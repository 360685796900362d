// Package tla is a small explicit-state model checker in the style of TLC,
// the checker for TLA+ specifications. It is the substrate for every
// experiment in this repository: a specification is a set of initial states
// plus named actions (guarded transition relations), and the checker
// exhaustively explores the reachable state space by breadth-first search,
// verifying invariants at every state and optionally recording the full
// state graph for export to GraphViz DOT (which the MBTCG pipeline parses,
// exactly as the paper's Golang generator parsed TLC's DOT dump).
//
// The package also implements direct trace checking (the "frontier method"):
// given a sequence of observed states — possibly partial — it decides
// whether the sequence is a behaviour of the specification. This is the
// fast path the paper wished TLC had (TLA+ issue 413); the slow,
// Pressler-style path that goes through a generated Trace module lives in
// package tlatext.
package tla

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// State is implemented by specification states. Key returns a canonical
// encoding of the state: two states are identical if and only if their keys
// are equal. The checker deduplicates on keys (or, on the parallel path,
// on 64-bit fingerprints of them — see Options.CollisionFree).
//
// Unless Options.Workers is 1, Key is called from multiple goroutines
// concurrently (on distinct states) and must not mutate shared state.
type State interface {
	Key() string
}

// Action is a named transition relation: Next returns every successor of a
// state reachable by taking this action, or nil if the action is not
// enabled. Actions correspond one-to-one with the named transitions of the
// TLA+ specification being transcribed.
//
// Unless Options.Workers (or TraceOptions.Workers) is 1, the checker calls
// Next from multiple goroutines concurrently while expanding a frontier.
// Next must therefore be pure up to shared state: reading captured
// configuration is fine, mutating captured caches or globals is not.
// Invariants and the state Constraint, by contrast, always run on the
// single merge goroutine.
type Action[S State] struct {
	Name string
	Next func(S) []S
}

// Invariant is a named state predicate checked at every reachable state.
// Check returns a non-nil error describing the violation, if any.
type Invariant[S State] struct {
	Name  string
	Check func(S) error
}

// OrbitVisitor enumerates the symmetry orbit of a state: it must call
// visit with every image of s under a non-identity permutation of the
// interchangeable identifiers (visiting s itself too is harmless). The
// visitor may build each image in one scratch state it reuses across calls
// and images — visit only encodes the image and must not retain it — which
// is what makes symmetric exploration near-allocation-free.
type OrbitVisitor[S State] func(s S, visit func(S))

// Spec is an executable specification: initial states, actions, invariants,
// and an optional state constraint. Constraint plays the role of TLC's
// CONSTRAINT clause: states for which it returns false are still checked
// against invariants but their successors are not explored, bounding the
// state space. SymmetryVisitor plays the role of TLC's SYMMETRY clause and
// lives here, next to Constraint and Invariants, because like them it is a
// property of the model, not of one checking run.
type Spec[S State] struct {
	Name       string
	Init       func() []S
	Actions    []Action[S]
	Invariants []Invariant[S]
	Constraint func(S) bool
	// SymmetryVisitor, when non-nil, enables symmetry reduction: the
	// checker dedups each state on the minimal encoding across its orbit,
	// so only one representative per orbit is explored — an n!-fold
	// reduction for n fully interchangeable identities. The factory is
	// invoked once per worker goroutine; the OrbitVisitor it returns is
	// then owned by that worker, so a scratch state captured in its
	// closure is reused without synchronization or per-state allocation.
	//
	// Soundness requires the permutations to be spec automorphisms: Init,
	// every Action, every Invariant verdict and the Constraint must be
	// preserved by them. When they are, invariant verdicts are identical
	// with and without reduction, and a shortest counterexample keeps its
	// length (its states are orbit representatives of the unreduced trace;
	// the specific identifiers appearing in it may be permuted). Distinct,
	// Transitions, Terminal, Depth and the recorded Graph all describe the
	// quotient space — smaller than the full one by construction.
	SymmetryVisitor func() OrbitVisitor[S]
	// Independence, when non-nil, is the spec's partial-order-reduction
	// declaration: which transitions belong to which process and which of
	// them may be deferred (see Independence). It only takes effect when a
	// run asks for it with Options.PartialOrder; like SymmetryVisitor it
	// lives here because independence is a property of the model, not of
	// one checking run. Composes with symmetry reduction — the declaration
	// must then be permutation-equivariant (permuting identities permutes
	// process indices but never changes owners' existence or safety).
	Independence *Independence[S]
}

// Edge is one transition of the recorded state graph, identifying source and
// destination states by their dense ids and the action taken.
type Edge struct {
	From   int
	Action string
	To     int
}

// Graph is the reachable-state graph recorded during checking. States are
// numbered densely in BFS discovery order; Inits lists the initial states.
//
// States and edges live in the run's state arena — resident segments or
// the spill file — and the accessors (Len, NumEdges, StateAt, KeyAt,
// ForEachEdge) serve them from there, so a graph larger than memory is
// still fully traversable. StateAt decodes a state when the spec state
// implements BinaryDecoder and replays its parent chain otherwise (see
// arena.go). The graph owns the arena's spill file; the caller releases it
// with Close when done.
//
// Accessors that cannot return an error (StateAt, KeyAt, and the
// traversals built on them) panic if a spilled segment has become
// unreadable or a state cannot be reconstructed — reconstruction reads are
// required reads, exactly as in counterexample reconstruction, and a
// silent wrong answer is worse.
type Graph[S State] struct {
	Inits []int

	spec *Spec[S]
	ret  *retainer[S]
	cod  *codec[S] // the run's merge codec, decoder bound

	adjOnce sync.Once
	adj     [][]Edge
}

// Len returns the number of states in the graph.
func (g *Graph[S]) Len() int { return g.ret.len() }

// NumEdges returns the number of recorded transitions.
func (g *Graph[S]) NumEdges() int { return g.ret.arena.edgeCount }

// StateAt returns state id, reconstructed from the arena (panicking on a
// reconstruction failure; see the type comment).
func (g *Graph[S]) StateAt(id int) S {
	s, err := g.ret.state(g.spec, g.cod, id, nil)
	if err != nil {
		panic(err)
	}
	return s
}

// KeyAt returns the canonical key of state id. A run that encodes states
// by Key() stored the key itself, which is served without reconstructing
// the state.
func (g *Graph[S]) KeyAt(id int) string {
	if g.cod.bin != nil {
		return g.StateAt(id).Key()
	}
	enc, err := g.ret.arena.encoding(id, nil)
	if err != nil {
		panic(err)
	}
	return string(enc)
}

// ForEachEdge streams every recorded edge to fn in recorded order,
// stopping at the first error. Edges are read back segment by segment, so
// the full edge list is never materialized.
func (g *Graph[S]) ForEachEdge(fn func(Edge) error) error {
	return g.ret.arena.forEachEdge(func(from int, act uint16, to int) error {
		return fn(Edge{From: from, Action: g.ret.acts[act], To: to})
	})
}

// Close releases the arena spill file the graph owns. Closing twice is a
// no-op. After Close, accessors may fail on spilled data — close only when
// done with the graph.
func (g *Graph[S]) Close() error {
	if !g.ret.graphOwned {
		return nil
	}
	g.ret.graphOwned = false
	return g.ret.arena.close()
}

// Successors returns the outgoing edges of state id, in recorded order.
// The adjacency index is built once, on first use; callers must not append
// further edges after querying.
func (g *Graph[S]) Successors(id int) []Edge {
	if id < 0 || id >= g.Len() {
		return nil
	}
	return g.adjacency()[id]
}

// Options configures a model-checking run.
type Options struct {
	// RecordGraph records every edge so the Result carries a Graph.
	// Required for DOT export, liveness checking and MBTCG. The graph is
	// served from the state arena's (possibly disk-spilled) segments — see
	// Graph.
	RecordGraph bool
	// MaxStates aborts exploration after this many distinct states
	// (0 = unlimited). The checker returns ErrStateLimit.
	MaxStates int
	// MaxDepth bounds the BFS depth (0 = unlimited).
	MaxDepth int
	// Workers is the number of goroutines expanding the frontier, TLC's
	// -workers. 0 means GOMAXPROCS; 1 selects the sequential reference
	// path. The parallel path is level-synchronized and produces results
	// identical to the sequential path: same counters, same graph, same
	// shortest counterexample.
	Workers int
	// PartialOrder enables ample-set partial-order reduction (-por on the
	// CLIs) for specs that declare Independence: per expanded state the
	// engine explores only one eligible process's transitions when the
	// soundness conditions hold, deferring the rest (see por.go for the
	// conditions and exactly what is preserved). On a spec without a
	// declaration the flag is a no-op — Result.PartialOrder reports
	// whether pruning was actually active. Composes with SymmetryVisitor,
	// any worker count and MemoryBudgetBytes; rejected with MaxDepth (a
	// depth bound cuts deferred interleavings differently from the
	// unpruned run). Liveness
	// checking needs the full edge set: run CheckEventually* on graphs
	// recorded without POR.
	PartialOrder bool
	// CollisionFree makes the parallel path deduplicate on full canonical
	// keys instead of 64-bit fingerprints, trading memory and speed for
	// immunity to fingerprint collisions (TLC's collision-probability
	// story: at N reachable states the chance any two collide is about
	// N²/2⁶⁵ — around 3·10⁻⁸ for a million states — and a collision can
	// silently prune a subtree, masking a violation). The sequential path
	// (Workers == 1) is always collision-free regardless of this flag;
	// set it for parallel runs whose verdict must be exact rather than
	// exact-with-probability-1.
	CollisionFree bool
	// ForceKeyEncoding makes the checker ignore a BinaryState
	// implementation and dedup on canonical Key() strings as if the spec
	// had none. It exists as the baseline for the byte-packed-encoding
	// benchmarks and as a debugging aid when an AppendBinary
	// implementation is suspected of violating the Key-agreement contract.
	ForceKeyEncoding bool
	// MemoryBudgetBytes bounds the resident memory of the visited set and,
	// separately, of the state arena (approximately — the engine charges a
	// fixed estimate per resident fingerprint). When set, the engine
	// dedups on a disk-spilling fingerprint store: shards past the budget
	// are sealed into sorted runs on disk and consulted by one merge-join
	// per BFS level, TLC's external-memory fingerprint set; and sealed
	// arena segments spill to a temp file. 0 keeps everything resident.
	//
	// The budget implies fingerprint deduplication at every worker count —
	// including Workers == 1, which is otherwise the always-collision-free
	// oracle — and is therefore rejected alongside CollisionFree, whose
	// full-encoding keys are memory-resident by definition.
	MemoryBudgetBytes int64
	// Context, when non-nil, cancels the run cooperatively: the engine
	// polls it between levels and between frontier states, and an
	// interrupted run returns the partial Result (Interrupted set,
	// states/depth/counters so far) under an error wrapping
	// ErrInterrupted — plus a checkpoint when CheckpointDir is set. The
	// CLIs wire SIGINT/SIGTERM here.
	Context context.Context
	// Deadline, when non-zero, bounds the run in wall-clock time: past
	// it, the run winds down exactly as a canceled Context does. A
	// deadline already in the past is rejected by Validate. Composes with
	// Context (whichever fires first stops the run).
	Deadline time.Time
	// FS routes the engine's durable I/O — spill runs, arena segments,
	// checkpoints — through an injectable filesystem seam. nil selects
	// the real filesystem (OSFS); tests plug in a FaultFS to exercise the
	// retry and degradation paths (see fs.go for the fault taxonomy:
	// transient errors are retried with capped backoff, persistent
	// failures of optional spill writes degrade to resident retention
	// under Result.DegradedMemory, persistent failures of required reads
	// fail the run explicitly).
	FS FS
	// CheckpointDir, when non-empty, makes the run durable: on
	// interruption (Context/Deadline) — and every CheckpointEvery levels
	// — the engine seals the current spill runs and arena segments into
	// this directory with a manifest, and a later run with ResumeFrom
	// continues where it stopped, with verdict and counts identical to an
	// uninterrupted run. Requires fingerprint deduplication (rejected
	// alongside CollisionFree).
	CheckpointDir string
	// CheckpointEvery checkpoints every N completed BFS levels in
	// addition to checkpoint-on-interrupt (0 = only on interrupt).
	// Requires CheckpointDir.
	CheckpointEvery int
	// ResumeFrom continues a checkpointed run from the given directory.
	// The spec (name, action and invariant names) and the result-shaping
	// options (MaxStates, MaxDepth, ForceKeyEncoding) must match the
	// checkpointing run; mismatches are rejected with ErrBadCheckpoint.
	// The checkpoint directory itself is never modified, so one
	// checkpoint can be resumed any number of times. Subject to the same
	// option constraints as CheckpointDir.
	ResumeFrom string
	// CheckpointMeta is an opaque caller blob stored verbatim in the
	// checkpoint manifest and surfaced by ReadCheckpointInfo — the hook
	// the CLIs use to persist the flag configuration a resumed process
	// needs to rebuild the identical spec.
	CheckpointMeta map[string]string
	// Progress, when non-nil, is called with a snapshot of the exploration
	// so far — the hook a long-lived server (cmd/checkd) streams to
	// clients. Its delivery contract depends on ProgressEvery:
	//
	// With ProgressEvery zero, Progress fires at every BFS level boundary,
	// on the merge goroutine between levels — so it must not block for
	// long, must not call back into the engine, and needs no internal
	// locking of its own.
	//
	// With ProgressEvery > 0, the level-boundary path is disabled and
	// Progress instead fires on a wall-clock ticker. The callback then
	// runs on a dedicated timer goroutine concurrent with the exploration
	// (never with itself), so it must be safe to run off the merge
	// goroutine.
	Progress func(Progress)
	// ProgressEvery, when positive, switches Progress to time-based
	// delivery: a snapshot of the last completed level boundary roughly
	// every ProgressEvery (see Progress for the threading contract).
	ProgressEvery time.Duration
	// Metrics, when non-nil, is the run's metrics registry: the engine
	// resolves counters, gauges and histograms from it at run start (see
	// the README's Observability section for the name catalogue) and
	// updates them as exploration proceeds. The registry may be scraped
	// concurrently — checkd serves per-job registries on GET /metrics. nil
	// disables metric collection at the cost of one nil-check branch per
	// instrumentation point.
	Metrics *obs.Registry
	// JournalWriter, when non-nil, receives the run journal: JSONL, one
	// structured event per BFS level, plus checkpoint, I/O-degradation and
	// terminal-verdict events, each with a schema version, sequence number
	// and monotone timestamp — enough to reconstruct the run's shape after
	// the fact. Journal write failures never fail the run. The writer must
	// be safe for the single journal goroutine holding its lock; an
	// *os.File is fine.
	JournalWriter io.Writer
}

// Progress is one Options.Progress snapshot: the counters of an in-flight
// run at a BFS level boundary, delivered at that boundary (the default) or
// at the next wall-clock tick when ProgressEvery is set.
type Progress struct {
	Distinct    int   // distinct states found so far
	Transitions int   // transitions examined so far
	Depth       int   // maximum BFS depth reached so far
	Level       int   // fully merged BFS levels
	Frontier    int   // states awaiting expansion (the level's width)
	SpillBytes  int64 // bytes of visited runs + arena segments on disk (spill pressure)
	// ResidentBytes estimates the memory charged against
	// Options.MemoryBudgetBytes (resident visited fingerprints plus
	// resident arena segments); 0 when no budget-tracking store is active.
	// Budget minus this is the run's headroom before the next spill.
	ResidentBytes int64
}

// checkpointing reports whether the run writes or resumes checkpoints.
func (o Options) checkpointing() bool {
	return o.CheckpointDir != "" || o.ResumeFrom != ""
}

// ErrInvalidOptions is the named error every Options (and TraceOptions)
// validation failure wraps: errors.Is(err, ErrInvalidOptions) reports that
// a checking run was rejected before exploring anything, with the detail in
// the error text.
var ErrInvalidOptions = errors.New("tla: invalid options")

// Validate rejects option combinations the engine would otherwise have to
// silently reinterpret. Check calls it first; callers constructing options
// from external input (CLI flags) can call it early for a better error.
func (o Options) Validate() error {
	switch {
	case o.Workers < 0:
		return fmt.Errorf("%w: negative Workers %d (0 means GOMAXPROCS, 1 the sequential oracle)", ErrInvalidOptions, o.Workers)
	case o.MaxStates < 0:
		return fmt.Errorf("%w: negative MaxStates %d (0 means unlimited)", ErrInvalidOptions, o.MaxStates)
	case o.MaxDepth < 0:
		return fmt.Errorf("%w: negative MaxDepth %d (0 means unlimited)", ErrInvalidOptions, o.MaxDepth)
	case o.MemoryBudgetBytes < 0:
		return fmt.Errorf("%w: negative MemoryBudgetBytes %d (0 means fully resident)", ErrInvalidOptions, o.MemoryBudgetBytes)
	case o.MemoryBudgetBytes > 0 && o.CollisionFree:
		return fmt.Errorf("%w: MemoryBudgetBytes requires fingerprint deduplication, but CollisionFree keys the visited set on full encodings, which are memory-resident by definition", ErrInvalidOptions)
	case !o.Deadline.IsZero() && !o.Deadline.After(time.Now()):
		return fmt.Errorf("%w: Deadline %s is in the past", ErrInvalidOptions, o.Deadline.Format(time.RFC3339))
	case o.CheckpointEvery < 0:
		return fmt.Errorf("%w: negative CheckpointEvery %d (0 means checkpoint only on interrupt)", ErrInvalidOptions, o.CheckpointEvery)
	case o.CheckpointEvery > 0 && o.CheckpointDir == "":
		return fmt.Errorf("%w: CheckpointEvery needs a CheckpointDir to write to", ErrInvalidOptions)
	case o.checkpointing() && o.CollisionFree:
		return fmt.Errorf("%w: checkpoints persist 64-bit fingerprints; CollisionFree keys the visited set on full encodings, which are not persisted", ErrInvalidOptions)
	case o.PartialOrder && o.MaxDepth > 0:
		return fmt.Errorf("%w: PartialOrder changes the depth at which deferred interleavings are explored, so MaxDepth would cut a different state set than the unpruned run; bound with MaxStates instead", ErrInvalidOptions)
	case o.ProgressEvery < 0:
		return fmt.Errorf("%w: negative ProgressEvery %s (0 means per-level Progress delivery)", ErrInvalidOptions, o.ProgressEvery)
	}
	return nil
}

// ErrStateLimit is returned when exploration hits Options.MaxStates.
var ErrStateLimit = errors.New("tla: state limit exceeded")

// ErrInvariantViolated is the named error all invariant failures wrap:
// errors.Is(err, ErrInvariantViolated) reports whether a Check error is a
// violation (as opposed to ErrStateLimit or a malformed spec), and
// errors.As(err, &v) with v of type *Violation[S] recovers the violating
// state and counterexample trace.
var ErrInvariantViolated = errors.New("tla: invariant violated")

var errNoInit = errors.New("tla: spec has no Init")

// Violation describes an invariant failure, with the shortest
// counterexample: the sequence of states (and the actions between them)
// from an initial state to the violating state.
type Violation[S State] struct {
	Invariant string
	Err       error
	Trace     []S
	TraceActs []string // TraceActs[i] led from Trace[i] to Trace[i+1]; len = len(Trace)-1
}

func (v *Violation[S]) Error() string {
	return fmt.Sprintf("invariant %s violated after %d steps: %v", v.Invariant, len(v.Trace)-1, v.Err)
}

// Unwrap makes every violation match errors.Is(err, ErrInvariantViolated)
// and lets errors.Is/As reach the invariant's own error.
func (v *Violation[S]) Unwrap() []error { return []error{ErrInvariantViolated, v.Err} }

// Result reports a completed (or aborted) model-checking run.
type Result[S State] struct {
	Spec           string
	Distinct       int // distinct states found
	Transitions    int // state transitions examined (including duplicates)
	Depth          int // maximum BFS depth reached
	Terminal       int // states with no enabled action (deadlocks, or completed behaviours)
	Violation      *Violation[S]
	Graph          *Graph[S] // non-nil iff Options.RecordGraph
	ConstraintCuts int       // states whose successors were skipped by the constraint
	// Interrupted reports that the run stopped early because
	// Options.Context was canceled or Options.Deadline passed; the
	// counters above describe the partial exploration. The companion
	// error wraps ErrInterrupted. A counterexample is never reported by
	// an interrupted run — absence of a Violation means "none found so
	// far", not "none exists".
	Interrupted bool
	// DegradedMemory reports that a persistent I/O failure (ENOSPC on a
	// spill or segment write) forced the run to fall back to resident
	// retention: the verdict and counters are exact, but
	// MemoryBudgetBytes was no longer honoured from the failure on.
	DegradedMemory bool
	// CheckpointPath is the directory of the last checkpoint the run
	// wrote (empty when none was written); `minitlc -resume` or
	// Options.ResumeFrom continues from it.
	CheckpointPath string
	// PartialOrder reports that ample-set pruning was actually active:
	// Options.PartialOrder was set AND the spec declared Independence. A
	// caller that requested POR on a spec without a declaration should
	// compare and tell the user.
	PartialOrder bool
	// AmpleStates counts expanded states at which an ample subset was
	// kept (some successors deferred); DeferredTransitions counts the
	// transitions those prunes skipped. Together with Distinct they are
	// the run's reduction evidence: Distinct here ≤ Distinct of the
	// unpruned run.
	AmpleStates         int
	DeferredTransitions int
}

// Check explores the reachable states of spec breadth-first and returns a
// Result. If an invariant fails, Result.Violation holds the shortest
// counterexample and Check returns it as the error as well; exploration
// stops at the first violation, as TLC does by default.
//
// One engine serves every configuration: Options selects the worker count
// (0 resolves to GOMAXPROCS; 1 is the sequential oracle, which dedups on
// full encodings and is therefore always collision-free unless
// MemoryBudgetBytes engages the spilling fingerprint store) and the visited
// store. Results are identical at every worker count and under every
// store, modulo fingerprint collisions (see CollisionFree).
func Check[S State](spec *Spec[S], opts Options) (*Result[S], error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if spec.Init == nil {
		return nil, errNoInit
	}
	workers := resolveWorkers(opts.Workers)
	em := newEngineMetrics(opts, workers)
	em.journalStart(spec.Name, workers, opts.PartialOrder && spec.Independence != nil)
	vs := newVisitedStore(opts, workers, em)
	defer vs.Close()
	res, err := runEngine(spec, opts, workers, vs, em)
	if res != nil {
		em.journalEnd(coreOf(res), err)
	}
	return res, err
}

// TerminalStates returns the ids of states with no outgoing edges in g.
// For specs whose constraint halts behaviours (e.g. "every client performed
// its one operation and merged"), these are the completed behaviours —
// MBTCG derives one test case per terminal state.
func (g *Graph[S]) TerminalStates() []int {
	hasOut := make([]bool, g.Len())
	if err := g.ForEachEdge(func(e Edge) error {
		hasOut[e.From] = true
		return nil
	}); err != nil {
		panic(err)
	}
	var out []int
	for id := range hasOut {
		if !hasOut[id] {
			out = append(out, id)
		}
	}
	return out
}

// PathTo returns one shortest path (state ids) from an initial state to the
// given state id, or nil if unreachable. The graph records BFS order, so
// parent-following via edges is reconstructed by a fresh BFS here.
func (g *Graph[S]) PathTo(id int) []int {
	parent := make([]int, g.Len())
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	var queue []int
	for _, i := range g.Inits {
		parent[i] = -1
		queue = append(queue, i)
	}
	adj := g.adjacency()
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == id {
			var rev []int
			for i := id; i >= 0; i = parent[i] {
				rev = append(rev, i)
			}
			path := make([]int, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				path = append(path, rev[i])
			}
			return path
		}
		for _, e := range adj[cur] {
			if parent[e.To] == -2 {
				parent[e.To] = cur
				queue = append(queue, e.To)
			}
		}
	}
	return nil
}

// adjacency returns the per-state outgoing-edge index, building it lazily
// on first use (one O(E) pass instead of a rescan per Successors call). The
// index materializes every edge in memory — callers that can stream should
// prefer ForEachEdge.
func (g *Graph[S]) adjacency() [][]Edge {
	g.adjOnce.Do(func() {
		g.adj = make([][]Edge, g.Len())
		if err := g.ForEachEdge(func(e Edge) error {
			g.adj[e.From] = append(g.adj[e.From], e)
			return nil
		}); err != nil {
			panic(err)
		}
	})
	return g.adj
}

// CheckEventually verifies the temporal property "from every reachable
// state, a state satisfying p is reachable" — the finite-state analogue of
// the paper's liveness property that the commit point is eventually
// propagated (under fairness, a behaviour cannot get stuck forever in
// states from which no p-state is reachable). It returns the id of a
// witness state that cannot reach any p-state, or -1 if the property holds.
func CheckEventually[S State](g *Graph[S], p func(S) bool) int {
	return CheckEventuallyWithin(g, p, nil)
}

// CheckEventuallyWithin is CheckEventually restricted to states satisfying
// within — normally the spec's state constraint. States on the constraint
// boundary are recorded but never expanded, so they trivially cannot reach
// anything; TLC likewise evaluates liveness only inside the constraint.
func CheckEventuallyWithin[S State](g *Graph[S], p func(S) bool, within func(S) bool) int {
	n := g.Len()
	canReach := make([]bool, n)
	radj := make([][]int, n)
	if err := g.ForEachEdge(func(e Edge) error {
		radj[e.To] = append(radj[e.To], e.From)
		return nil
	}); err != nil {
		panic(err)
	}
	var queue []int
	for id := 0; id < n; id++ {
		if p(g.StateAt(id)) {
			canReach[id] = true
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, pred := range radj[cur] {
			if !canReach[pred] {
				canReach[pred] = true
				queue = append(queue, pred)
			}
		}
	}
	for id := 0; id < n; id++ {
		if !canReach[id] && (within == nil || within(g.StateAt(id))) {
			return id
		}
	}
	return -1
}

// ActionNames returns the sorted set of action names appearing in g's edges.
func (g *Graph[S]) ActionNames() []string {
	set := make(map[string]bool)
	if err := g.ForEachEdge(func(e Edge) error {
		set[e.Action] = true
		return nil
	}); err != nil {
		panic(err)
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
