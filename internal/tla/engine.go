package tla

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The exploration engine is a level-synchronized BFS in the style of TLC's
// multi-worker mode, parameterized by a VisitedStore (deduplication) and a
// FrontierStore (pending work) — see store.go. Each level alternates two
// phases:
//
//   - Expansion (parallel): the frontier is cut into contiguous chunks and
//     a pool of workers expands them, computing every successor's canonical
//     encoding and claiming it in the visited store. The expensive work —
//     Next, encoding, symmetry canonicalization, hashing — all happens
//     here, concurrently. At Workers == 1 the same code runs inline on one
//     chunk: the sequential oracle is the engine at its narrowest setting,
//     not a separate implementation.
//
//   - Merge (sequential): candidate successors are replayed in exactly
//     frontier order, then action order, then successor order, assigning
//     dense ids, recording graph edges, checking invariants and applying
//     the state constraint and the MaxStates/MaxDepth bounds.
//
// Between the phases the store's ResolveLevel hook runs (the spilling
// store's merge-on-lookup against its disk runs), and after the merge
// EndLevel enforces memory budgets. Because ids, invariant checks and
// early exits are all resolved during the deterministic merge, the
// engine's Result — counters, recorded graph, and shortest counterexample
// — is identical at every worker count and under every store (modulo
// fingerprint collisions, which Options.CollisionFree rules out).

// candidate is one successor produced during expansion, awaiting the merge:
// the action's index in Spec.Actions, the claimed visited entry, and the
// successor state's index in its chunk's news — or -1 when the merge needs
// no state for it (see expandFrontier).
type candidate struct {
	act, succ int32
	entry     *VisitedEntry
}

// chunkOut is the ordered output of expanding one contiguous frontier chunk.
type chunkOut[S State] struct {
	worker   int // the worker that expanded the chunk (metrics attribution)
	cands    []candidate
	news     []S   // successor states the chunk's candidates index
	perState []int // successor count per frontier state of the chunk
	// ample is only appended under partial-order reduction: per frontier
	// state, the number of ample candidates at the head of its candidate
	// block (the expansion worker emits the chosen process's transitions
	// first, then the deferred remainder), or -1 when the state is not
	// prunable. The merge makes the final keep-or-expand call against the
	// cycle proviso.
	ample []int
}

// resolveWorkers maps Options.Workers to an effective worker count:
// 0 means GOMAXPROCS, TLC's default. (Negative counts are rejected by
// Options.Validate before this runs.)
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// chunkPlan cuts n items into contiguous chunks of roughly n/(workers*4):
// small enough for dynamic load balancing, large enough to amortize the
// per-chunk handoff. A single worker gets a single chunk — no handoff at
// all. It is the single source of truth for chunk count and boundaries;
// callers size their per-chunk result slices from nChunks and then call
// run.
type chunkPlan struct {
	n, workers, chunkSize, nChunks int
}

func planChunks(n, workers int) chunkPlan {
	chunkSize := n
	if workers > 1 {
		chunkSize = n / (workers * 4)
	}
	if chunkSize < 1 {
		chunkSize = 1
	}
	nChunks := (n + chunkSize - 1) / chunkSize
	if workers > nChunks {
		workers = nChunks
	}
	return chunkPlan{n: n, workers: workers, chunkSize: chunkSize, nChunks: nChunks}
}

// run calls fn(worker, chunk, lo, hi) for every chunk of the plan, either
// inline (narrow inputs are not worth a goroutine handoff) or from a pool
// of workers pulling chunk indices off an atomic cursor. fn must be safe
// for concurrent calls on distinct chunks; worker ids are dense in
// [0, p.workers) and stable within one goroutine, so callers key
// per-worker scratch (codec clones) off them; chunk indices are dense, so
// callers collect per-chunk results into a slice and reassemble them in
// deterministic chunk order.
func (p chunkPlan) run(fn func(worker, chunk, lo, hi int)) {
	doChunk := func(w, c int) {
		lo := c * p.chunkSize
		hi := lo + p.chunkSize
		if hi > p.n {
			hi = p.n
		}
		fn(w, c, lo, hi)
	}
	// Inline only when there is nothing to share: a single chunk would
	// serialize anyway, and one worker means no pool. Small frontiers with
	// expensive Next/Key/Matches (typical of trace checking) still profit
	// from a handful of goroutines.
	if p.workers == 1 || p.nChunks == 1 {
		for c := 0; c < p.nChunks; c++ {
			doChunk(0, c)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				c := int(cursor.Add(1)) - 1
				if c >= p.nChunks {
					return
				}
				doChunk(w, c)
			}
		}(w)
	}
	wg.Wait()
}

// runEngine is the unified level-synchronized exploration loop behind
// Check: one implementation for every worker count and store combination.
func runEngine[S State](spec *Spec[S], opts Options, workers int, vs VisitedStore, fr FrontierStore, em *engineMetrics) (res *Result[S], err error) {
	res = &Result[S]{Spec: spec.Name}
	if opts.RecordGraph {
		res.Graph = &Graph[S]{}
	}

	cod := newCodec(spec, opts.ForceKeyEncoding)
	// Per-worker codec clones persist across BFS levels: scratch buffers
	// and symmetry scratch states grow once, not once per level. Index 0
	// is the merge goroutine's own codec (also the single inline worker's).
	wcods := make([]*codec[S], workers)
	wcods[0] = cod
	for w := 1; w < workers; w++ {
		wcods[w] = cod.clone()
	}
	ret := newRetainer(spec, opts, em)

	// Partial-order reduction resolves here: the run must ask and the spec
	// must declare. Result.PartialOrder reports the resolution so CLIs can
	// warn about a request that had nothing to act on.
	ind := activeIndependence(spec, opts)
	res.PartialOrder = ind != nil
	var porScr []porScratch[S]
	if ind != nil {
		porScr = make([]porScratch[S], workers)
		for i := range porScr {
			porScr[i].planner = newPORPlanner(ind, em)
		}
	}

	// A checkpointed graph must be arena-backed: live graph columns are not
	// persisted, so a resumed run could never rebuild them without a
	// decoder. Validate cannot see S, so the check lives here.
	if opts.checkpointing() && opts.RecordGraph && cod.dec == nil {
		return res, fmt.Errorf("%w: RecordGraph with checkpoint/resume needs the arena-backed graph, which requires the spec state to implement BinaryDecoder (and not ForceKeyEncoding)", ErrInvalidOptions)
	}
	// Arena-backed graph: with a decoder available, graph states and edges
	// live in the arena (spilling under the budget with everything else)
	// and Result.Graph serves them lazily. Without a decoder the graph
	// falls back to live retention of its columns — correct, but resident.
	arenaGraph := opts.RecordGraph && ret.arena != nil && cod.dec != nil
	if arenaGraph {
		ret.arena.recordEdges = true
		ret.graphOwned = true
		res.Graph.ret = ret
		res.Graph.cod = cod
	}

	// ctl is the run's shared stop flag and first-panic slot; mg guards the
	// merge goroutine's own spec-callback calls (expansion workers carry
	// chunk-local guards — see expandFrontier). The stopper arms the same
	// stop flag when Options.Context or Options.Deadline fires.
	var ctl runControl
	var mg specGuard
	st := opts.newStopper(func() { ctl.stop.Store(true) })

	// Deferred teardown, innermost first: (1) finalize the result's
	// counters and degradation flags on every exit path; (2) convert a
	// merge-goroutine spec panic into the structured verdict (expansion
	// panics are parked in ctl and handled inline); (3) resolve arena
	// ownership — a run that failed without a violation discards its
	// arena-backed graph so the spill file is not leaked behind a result
	// nobody will traverse (a violation keeps the graph: callers dump it
	// alongside the counterexample); (4) release the retainer's spill file
	// — after (2), whose trace reconstruction may still read it, and
	// honoring (3)'s ownership verdict; (5) release the stopper's watcher.
	defer st.close()
	defer ret.close()
	defer func() {
		if arenaGraph && err != nil && res.Violation == nil {
			ret.graphOwned = false
			res.Graph = nil
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			pi := mg.capture(r) // re-panics on engine bugs (guard unarmed)
			res.Violation = nil
			err = specPanicError(spec, cod, ret, pi)
		}
	}()
	// Worker-counter attribution for the merge phase: the deltas of
	// (Transitions, Distinct) accumulated while replaying one chunk are
	// credited to the worker that expanded it — counted exactly where the
	// Result counters move, which is what pins Σexpansions == Transitions
	// and Σclaims == Distinct. The flush also runs from the finalize defer,
	// so early exits (violation, error, interrupt) attribute their partial
	// chunk too.
	var emAttr struct {
		active             bool
		worker             int
		expBase, claimBase int
	}
	emFlush := func() {
		if !emAttr.active {
			return
		}
		em.addWorker(emAttr.worker, int64(res.Transitions-emAttr.expBase), int64(ret.len()-emAttr.claimBase))
		emAttr.active = false
	}
	defer func() {
		emFlush()
		res.Distinct = ret.len()
		if d, ok := vs.(interface{ degradedMemory() bool }); ok && d.degradedMemory() {
			res.DegradedMemory = true
		}
		if ret.degradedMemory() {
			res.DegradedMemory = true
		}
	}()

	var ck *checkpointer
	if opts.CheckpointDir != "" {
		ck = newCheckpointer(opts)
		ck.em = em
	}

	// checkpoint wraps writeCheckpoint with the duration histogram and the
	// journal's checkpoint event.
	checkpoint := func(frontier []int, level int) (string, error) {
		start := time.Now()
		path, cerr := writeCheckpoint(ck, spec, opts, ret, vs, res, frontier, level)
		em.onCheckpoint(level, path, time.Since(start), cerr)
		return path, cerr
	}

	// interrupted finishes an interrupted run: the partial counters stay in
	// res, a checkpoint is written when configured, and the returned error
	// wraps ErrInterrupted. Expansion is side-effect-free until the merge
	// replays it — ids, counters and retention only change on the merge
	// goroutine — so the unexpanded frontier is a clean resume point even
	// when the stop landed mid-expansion.
	interrupted := func(frontier []int, level int) (*Result[S], error) {
		res.Interrupted = true
		ierr := st.err()
		if ck != nil {
			path, cerr := checkpoint(frontier, level)
			if cerr != nil {
				return res, errors.Join(ierr, fmt.Errorf("tla: writing checkpoint: %w", cerr))
			}
			res.CheckpointPath = path
		}
		return res, ierr
	}

	var arenaEnc []byte // addState's plain-encoding scratch (arena mode)

	// levelBase/levelCut support the POR cycle proviso: levelBase is the id
	// watermark when the current level's merge began, and levelCut[id -
	// levelBase] marks the states discovered this merge that were NOT
	// enqueued (constraint-cut) — they will never be expanded, so an ample
	// edge into one cannot serve as the proviso's not-yet-expanded witness.
	levelBase := 0
	var levelCut []bool

	// addState installs a newly discovered state (entry.ID must be -1):
	// id assignment, retention (live values, or arena encodings under
	// Options.StateArena), depth and graph bookkeeping, invariant checks,
	// constraint and depth bounds. Runs on the merge goroutine only.
	addState := func(s S, e *VisitedEntry, parent int, act string, depth int) (*Violation[S], error) {
		id := ret.len()
		if opts.MaxStates > 0 && id >= opts.MaxStates {
			return nil, ErrStateLimit
		}
		e.ID = id
		var enc []byte
		if ret.arena != nil {
			// The arena stores the plain encoding (one AppendBinary here
			// on the merge goroutine — not canonical, whose orbit scan the
			// workers already paid for deduplication).
			mg.enter(opEncode, act, id)
			arenaEnc = cod.encode(s, arenaEnc[:0])
			mg.exit()
			enc = arenaEnc
		}
		if err := ret.add(s, enc, parent, act, depth); err != nil {
			return nil, err
		}
		if depth > res.Depth {
			res.Depth = depth
		}
		if res.Graph != nil && !arenaGraph {
			res.Graph.States = append(res.Graph.States, s)
			res.Graph.Keys = append(res.Graph.Keys, s.Key())
		}
		for _, inv := range spec.Invariants {
			mg.enter(opInvariant, inv.Name, id)
			ierr := inv.Check(s)
			mg.exit()
			if ierr != nil {
				trace, acts, terr := safeTrace(spec, cod, ret, id)
				if terr != nil {
					return nil, terr
				}
				return &Violation[S]{Invariant: inv.Name, Err: ierr, Trace: trace, TraceActs: acts}, nil
			}
		}
		mg.enter(opConstraint, "", id)
		withinConstraint := spec.Constraint == nil || spec.Constraint(s)
		mg.exit()
		if !withinConstraint {
			res.ConstraintCuts++
		}
		pushed := withinConstraint && (opts.MaxDepth == 0 || depth < opts.MaxDepth)
		if pushed {
			ret.retainLive(id, s)
			fr.Push(id)
		}
		if ind != nil {
			levelCut = append(levelCut, !pushed)
		}
		return nil, nil
	}

	level := 0
	if opts.ResumeFrom != "" {
		// A resumed run restores the checkpoint instead of registering
		// initial states: counters, arena, visited runs, and the frontier's
		// live values (reconstructed by parent-chain replay, which runs
		// spec callbacks — the guard attributes a panic there to the
		// replay).
		mg.enter(opNext, "(resume replay)", -1)
		lvl, rerr := resumeRun(spec, opts, cod, ret, vs, fr, res, ck)
		mg.exit()
		if rerr != nil {
			return res, rerr
		}
		level = lvl
		// Seed worker 0 with the restored counters so the metrics-vs-Result
		// identities (Σexpansions == Transitions, Σclaims == Distinct) hold
		// across a resume as well.
		em.addWorker(0, int64(res.Transitions), int64(ret.len()))
	} else {
		mg.enter(opInit, "", -1)
		inits := spec.Init()
		mg.exit()
		if len(inits) > 0 {
			// Rebind the decoder to a real initial state: decoders may
			// carry run configuration the zero value lacks (see
			// BinaryDecoder). Worker clones never decode, so only the
			// merge codec needs the rebind.
			cod.bindDecoder(inits[0])
		}
		for _, s := range inits {
			mg.enter(opEncode, "", -1)
			cenc := cod.canonical(s)
			mg.exit()
			e := vs.Claim(cenc)
			if e.ID < 0 {
				viol, aerr := addState(s, e, -1, "", 0)
				if aerr != nil {
					return res, aerr
				}
				if viol != nil {
					if res.Graph != nil {
						res.Graph.Inits = append(res.Graph.Inits, e.ID)
					}
					res.Violation = viol
					return res, viol
				}
			}
			if res.Graph != nil {
				res.Graph.Inits = append(res.Graph.Inits, e.ID)
			}
		}
		if err := vs.EndLevel(); err != nil {
			return res, err
		}
		// Initial states are claimed on the merge goroutine, which the
		// worker-counter attribution credits to worker 0.
		em.addWorker(0, 0, int64(ret.len()))
	}
	startLevel := level

	// Chunk output buffers recycle across levels (see freeChunks): a
	// steady exploration stops allocating candidate storage once the
	// widest level has grown them.
	var pool chunkPool[S]
	// Time-based progress: the merge goroutine publishes each level
	// boundary's snapshot into snap, and a dedicated ticker goroutine
	// delivers it to Options.Progress every ProgressEvery. The per-level
	// delivery below is disabled then, so Progress never runs concurrently
	// with itself.
	var snap atomic.Pointer[Progress]
	if opts.ProgressEvery > 0 {
		snap.Store(&Progress{})
		ticker := startProgressTicker(opts.ProgressEvery, func() {
			if opts.Progress != nil {
				opts.Progress(*snap.Load())
			}
		})
		defer ticker.stop()
	}
	// report publishes one snapshot at a level boundary. It runs on the
	// merge goroutine, so the counters it reads are settled; spill pressure
	// sums the visited store's sealed runs and the arena's spill file, both
	// of which only grow on this goroutine too.
	report := func(frontier []int, level int) {
		if opts.Progress == nil && em == nil {
			return
		}
		p := Progress{
			Distinct:    ret.len(),
			Transitions: res.Transitions,
			Depth:       res.Depth,
			Level:       level,
			Frontier:    len(frontier),
		}
		if sb, ok := vs.(interface{ spilledBytes() int64 }); ok {
			p.SpillBytes += sb.spilledBytes()
		}
		if rb, ok := vs.(interface{ residentBytes() int64 }); ok {
			p.ResidentBytes += rb.residentBytes()
		}
		if ret.arena != nil {
			p.SpillBytes += ret.arena.fileSize
			p.ResidentBytes += ret.arena.residentBytes()
		}
		em.journalLevel(p)
		if opts.ProgressEvery > 0 {
			snap.Store(&p)
		} else if opts.Progress != nil {
			opts.Progress(p)
		}
	}
	for {
		frontier := fr.NextLevel()
		report(frontier, level)
		if st.stopped() {
			return interrupted(frontier, level)
		}
		if len(frontier) == 0 {
			break
		}
		em.observeLevelWidth(len(frontier))
		if ck != nil && opts.CheckpointEvery > 0 && level > startLevel && (level-startLevel)%opts.CheckpointEvery == 0 {
			// A periodic checkpoint failing is an explicit failure, not a
			// silent skip: the user asked for durability.
			path, cerr := checkpoint(frontier, level)
			if cerr != nil {
				return res, fmt.Errorf("tla: writing checkpoint: %w", cerr)
			}
			res.CheckpointPath = path
		}
		outs := expandFrontier(spec, wcods, ret, frontier, vs, &pool, &ctl, porScr, em)
		if pi := ctl.takePanic(); pi != nil {
			return res, specPanicError(spec, cod, ret, pi)
		}
		if st.stopped() {
			// Mid-expansion stop: the level's candidates are discarded —
			// no counter moved — and the same frontier checkpoints cleanly.
			return interrupted(frontier, level)
		}
		if err := vs.ResolveLevel(); err != nil {
			return res, err
		}

		// Merge phase: replay candidates in deterministic order. doCand is
		// one candidate's full treatment — counters, id assignment,
		// invariants, edge recording.
		doCand := func(c candidate, news []S, id, depth int) (*Violation[S], error) {
			res.Transitions++
			act := spec.Actions[c.act].Name
			var viol *Violation[S]
			sid := c.entry.ID
			if sid < 0 {
				if c.succ < 0 {
					// Expansion kept the state for the first candidate of
					// every unassigned entry in merge order; reaching one
					// without it is a checker bug, not a spec failure.
					panic("tla: engine bug: a candidate without its successor state reached the merge unassigned")
				}
				var aerr error
				viol, aerr = addState(news[c.succ], c.entry, id, act, depth+1)
				if aerr != nil {
					return nil, aerr
				}
				sid = c.entry.ID
			}
			if res.Graph != nil {
				if arenaGraph {
					if aerr := ret.addEdge(id, act, sid); aerr != nil {
						return nil, aerr
					}
				} else {
					res.Graph.Edges = append(res.Graph.Edges, Edge{From: id, Action: act, To: sid})
				}
			}
			return viol, nil
		}
		levelBase = ret.len()
		levelCut = levelCut[:0]
		fi := 0 // index into frontier, across chunk boundaries
		for oi := range outs {
			out := &outs[oi]
			emAttr.active, emAttr.worker = em != nil, out.worker
			emAttr.expBase, emAttr.claimBase = res.Transitions, ret.len()
			ci := 0
			for si, n := range out.perState {
				id := frontier[fi]
				fi++
				if n == 0 {
					// Terminal counting sees the full successor set — POR
					// prunes expansion, never the terminal verdict.
					res.Terminal++
					continue
				}
				depth := ret.depthOf(id)
				k, pruned := n, false
				if ind != nil && out.ample[si] >= 0 {
					k, pruned = out.ample[si], true
				}
				// Cycle proviso (C3), decided here where discovery order is
				// total. This is the BFS queue proviso: the ample set is
				// kept only if at least one ample successor was first
				// discovered during this very merge (id at or past
				// levelBase) and survived the constraint (not levelCut) —
				// i.e. it joins the next level's frontier and expands
				// strictly after this state. That witness is enough: a
				// transition deferred here stays enabled at the witness
				// (the declaration's non-disabling obligation), where it is
				// either explored or deferred again to a witness expanding
				// later still. Expansion levels strictly increase along the
				// witness chain, so in a finite graph the chain terminates
				// at a fully expanded state and nothing is ignored forever.
				// A back- or same-level ample successor (closing a cycle)
				// is harmless as long as some other successor is the
				// witness; if none is — every ample successor already
				// expanded, is expanding, or was cut — the pruning is
				// abandoned and the state fully expanded.
				ampleOK := false
				for j := 0; j < k; j++ {
					c := out.cands[ci+j]
					viol, aerr := doCand(c, out.news, id, depth)
					if aerr != nil {
						return res, aerr
					}
					if viol != nil {
						res.Violation = viol
						return res, viol
					}
					if sid := c.entry.ID; pruned && sid >= levelBase && !levelCut[sid-levelBase] {
						ampleOK = true
					}
				}
				if pruned && ampleOK {
					res.AmpleStates++
					res.DeferredTransitions += n - k
					em.onAmple(n - k)
				} else {
					for j := k; j < n; j++ {
						viol, aerr := doCand(out.cands[ci+j], out.news, id, depth)
						if aerr != nil {
							return res, aerr
						}
						if viol != nil {
							res.Violation = viol
							return res, viol
						}
					}
				}
				ci += n
			}
			emFlush()
		}
		pool.free(outs)
		// The level's frontier states are fully expanded: the arena drops
		// their live values (live retention keeps everything by design).
		ret.releaseAll(frontier)
		if err := vs.EndLevel(); err != nil {
			return res, err
		}
		level++
	}
	return res, nil
}

// chunkPool recycles chunk output buffers between BFS levels. It is only
// touched on the merge goroutine: buffers are handed to chunks before the
// workers start and reclaimed after the merge consumed them.
type chunkPool[S State] struct {
	cands    [][]candidate
	news     [][]S
	perState [][]int
	ample    [][]int
}

// seed pre-assigns recycled buffers to the level's chunk outputs.
func (p *chunkPool[S]) seed(outs []chunkOut[S]) {
	for i := range outs {
		if n := len(p.cands); n > 0 {
			outs[i].cands = p.cands[n-1]
			p.cands = p.cands[:n-1]
		}
		if n := len(p.news); n > 0 {
			outs[i].news = p.news[n-1]
			p.news = p.news[:n-1]
		}
		if n := len(p.perState); n > 0 {
			outs[i].perState = p.perState[n-1]
			p.perState = p.perState[:n-1]
		}
		if n := len(p.ample); n > 0 {
			outs[i].ample = p.ample[n-1]
			p.ample = p.ample[:n-1]
		}
	}
}

// free reclaims the level's buffers after the merge replayed them. The
// candidate and state slots are zeroed first: a recycled backing array
// must not pin the previous level's visited entries (which the spilling
// store drops when it seals a shard) or successor states (new states live
// on in the retainer regardless, but spill-revived duplicates would
// otherwise stay reachable until overwritten).
func (p *chunkPool[S]) free(outs []chunkOut[S]) {
	for i := range outs {
		if outs[i].cands != nil {
			clear(outs[i].cands)
			p.cands = append(p.cands, outs[i].cands[:0])
		}
		if outs[i].news != nil {
			clear(outs[i].news)
			p.news = append(p.news, outs[i].news[:0])
		}
		if outs[i].perState != nil {
			p.perState = append(p.perState, outs[i].perState[:0])
		}
		if outs[i].ample != nil {
			p.ample = append(p.ample, outs[i].ample[:0])
		}
	}
}

// expandFrontier expands every frontier state, in parallel across workers,
// returning per-chunk candidate lists in frontier order. Workers encode
// each successor through their private codec clone (byte-packed when the
// spec implements BinaryState, orbit-canonicalized when it declares
// symmetry) and claim the encoding in the visited store, so the merge
// phase performs no encoding or hashing at all. Successors already
// resident with an assigned id (entry.ID set and stable for the whole
// expansion phase) keep only {act, entry} — the merge needs neither the
// state nor its encoding to record the duplicate edge, and dropping them
// keeps per-level buffering near the fingerprint set's 8-bytes-per-state
// promise. Of the successors whose entry is still unassigned — genuinely
// new, or under the spilling store duplicates that ResolveLevel will settle
// before the merge looks — only the first candidate of each entry in merge
// order keeps its state (VisitedEntry.keepState): the merge assigns the id
// there, and every later candidate of the entry is a duplicate edge.
//
// Every chunk runs under a chunk-local specGuard and a deferred recover: a
// panic raised by Next or by the state encoding (spec code, both) is
// captured into ctl — which also stops the other workers at their next
// between-states poll — instead of taking the process down. The guard is
// armed and disarmed with plain field writes, so the isolation costs the
// hot path no allocations. The same between-states poll is the expansion
// phase's cancellation point.
//
// Under partial-order reduction (porScr non-nil, one scratch per worker)
// the full successor set of a state is buffered first, the ample process is
// chosen, and the candidates are emitted ample-first with the split
// recorded in out.ample. Workers only propose; the merge phase, which is
// the one place discovery order exists, decides whether the ample set
// satisfies the cycle proviso and whether the deferred remainder is
// processed or skipped — so POR results stay deterministic across worker
// counts just like everything else on this path. Because a skipped
// deferred candidate may be the first of its entry, this path keeps the
// state of every candidate whose entry is unassigned.
func expandFrontier[S State](spec *Spec[S], wcods []*codec[S], ret *retainer[S], frontier []int, vs VisitedStore, pool *chunkPool[S], ctl *runControl, porScr []porScratch[S], em *engineMetrics) []chunkOut[S] {
	plan := planChunks(len(frontier), len(wcods))
	outs := make([]chunkOut[S], plan.nChunks)
	pool.seed(outs)
	plan.run(func(w, c, lo, hi int) {
		var g specGuard
		defer func() {
			if r := recover(); r != nil {
				ctl.recordPanic(g.capture(r))
			}
		}()
		wcod := wcods[w]
		out := outs[c] // recycled buffers (or nil), length 0
		out.worker = w
		// keep appends a candidate, with its state when the merge will
		// need it.
		keep := func(succ S, act int, e *VisitedEntry, withState bool) {
			cd := candidate{act: int32(act), succ: -1, entry: e}
			if withState {
				cd.succ = int32(len(out.news))
				out.news = append(out.news, succ)
			}
			out.cands = append(out.cands, cd)
		}
		for _, id := range frontier[lo:hi] {
			if ctl.stop.Load() {
				break
			}
			s := ret.stateOf(id)
			before := len(out.cands)
			if porScr == nil {
				for ai, a := range spec.Actions {
					g.enter(opNext, a.Name, id)
					succs := a.Next(s)
					g.exit()
					for _, succ := range succs {
						g.enter(opEncode, a.Name, id)
						cenc := wcod.canonical(succ)
						g.exit()
						e := vs.Claim(cenc)
						keep(succ, ai, e, e.ID < 0 && e.keepState(c))
					}
				}
				out.perState = append(out.perState, len(out.cands)-before)
				em.observeFanout(len(out.cands) - before)
				continue
			}
			// POR path: generate everything first — terminal detection and
			// C0 need the full set, and the owner partition needs to see
			// every transition before any is emitted — then claim
			// everything, so the planner knows which successors are fresh
			// (no id yet). A fresh claim can only be resolved by this
			// level's merge, making it a certain cycle-proviso witness
			// unless the constraint cuts it; a stale one (id from an
			// earlier merge) can never be. Choosing on freshness is what
			// lets confluent specs prune: without it the planner keeps
			// electing clusters whose successors were visited levels ago
			// and the merge rejects nearly every ample set.
			sc := &porScr[w]
			sc.succs = sc.succs[:0]
			sc.acts = sc.acts[:0]
			sc.entries = sc.entries[:0]
			sc.fresh = sc.fresh[:0]
			for ai, a := range spec.Actions {
				g.enter(opNext, a.Name, id)
				succs := a.Next(s)
				g.exit()
				for _, succ := range succs {
					sc.succs = append(sc.succs, succ)
					sc.acts = append(sc.acts, ai)
				}
			}
			for t := range sc.succs {
				g.enter(opEncode, spec.Actions[sc.acts[t]].Name, id)
				cenc := wcod.canonical(sc.succs[t])
				g.exit()
				e := vs.Claim(cenc)
				sc.entries = append(sc.entries, e)
				sc.fresh = append(sc.fresh, e.ID < 0)
			}
			emitAt := func(t int) {
				keep(sc.succs[t], sc.acts[t], sc.entries[t], sc.fresh[t])
			}
			k := -1
			if proc := sc.planner.choose(s, sc.succs, sc.acts, sc.fresh, &g); proc >= 0 {
				k = 0
				for t := range sc.succs {
					if sc.planner.owners[t] == proc {
						emitAt(t)
						k++
					}
				}
				for t := range sc.succs {
					if sc.planner.owners[t] != proc {
						emitAt(t)
					}
				}
			} else {
				for t := range sc.succs {
					emitAt(t)
				}
			}
			out.perState = append(out.perState, len(out.cands)-before)
			out.ample = append(out.ample, k)
			em.observeFanout(len(out.cands) - before)
		}
		outs[c] = out
	})
	return outs
}

// porScratch is one expansion worker's partial-order-reduction state: the
// ample planner plus the full-successor buffer the owner partition is
// computed over. Like the codec clones, scratch persists across levels and
// is keyed by worker index.
type porScratch[S State] struct {
	planner *porPlanner[S]
	succs   []S
	acts    []int
	entries []*VisitedEntry // pre-choice claims
	fresh   []bool          // per successor: claimed with no id yet
}
