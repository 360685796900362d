package tla

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// Observation is one step of an observed execution trace. A trace event from
// a running implementation usually constrains only part of the
// specification state (the variables the implementation could snapshot at
// the moment of the transition), so an Observation is a predicate rather
// than a full state. Matches reports whether spec state s is consistent
// with what was observed.
//
// Unless TraceOptions.Workers is 1, Matches is called from multiple
// goroutines concurrently during the frontier advance and must not mutate
// shared state. Matches may see a scratch state valid only during the call
// (see Action.NextWhere) and must not retain it.
type Observation[S State] interface {
	Matches(s S) bool
	String() string
}

// FullObservation adapts a complete state into an Observation that matches
// exactly that state.
type FullObservation[S State] struct{ Want S }

// Matches reports whether s has the same canonical key as the observed state.
func (o FullObservation[S]) Matches(s S) bool { return s.Key() == o.Want.Key() }

func (o FullObservation[S]) String() string { return o.Want.Key() }

// TraceResult reports the outcome of checking an observed trace against a
// specification.
type TraceResult struct {
	// Steps is the number of observations successfully matched.
	Steps int
	// OK is true if every observation was matched.
	OK bool
	// FailedStep, when !OK, is the index of the first observation no
	// specification behaviour could produce. -1 when OK.
	FailedStep int
	// FrontierSizes[i] is the number of candidate specification states
	// consistent with the trace prefix ending at observation i. A
	// frontier larger than 1 means the observations were partial and
	// several spec behaviours remain possible (Pressler's refinement
	// technique: the missing variables are existentially quantified).
	FrontierSizes []int
	// Explanations[i] is the sorted set of action names that could have
	// produced observation i+1 from some state in frontier i (diagnostics).
	Explanations [][]string
	// Interrupted reports that the run stopped early because
	// TraceOptions.Context was canceled: Steps observations were matched
	// before the stop, OK is false, and the companion error wraps
	// ErrInterrupted. FailedStep stays -1 — an interrupted trace did not
	// diverge, it was not finished.
	Interrupted bool
}

// TraceError is returned when a trace is not a behaviour of the spec.
type TraceError struct {
	Step int
	Obs  string
}

func (e *TraceError) Error() string {
	return fmt.Sprintf("tla: trace diverges from specification at step %d (observation %s): no specification behaviour matches", e.Step, e.Obs)
}

// TraceOptions configures a trace-checking run.
type TraceOptions struct {
	// Workers is the number of goroutines advancing the frontier per
	// observation. 0 means GOMAXPROCS, 1 is fully sequential. The result
	// is identical at any worker count.
	Workers int
	// Stuttering also matches an observation against the unchanged states
	// of the current frontier (a "<stutter>" explanation). TLA+ behaviours
	// are closed under stuttering, so a faithful trace checker must accept
	// implementation events that changed no modelled variable.
	Stuttering bool
	// Context, when non-nil, cancels the run cooperatively: the frontier
	// advance checks it between observations and returns the partial
	// TraceResult (Interrupted set) with an error wrapping ErrInterrupted.
	// The CLIs wire SIGINT/SIGTERM here.
	Context context.Context
	// Deadline, when set, bounds the run in wall-clock time, composed with
	// Context exactly as Options.Deadline is.
	Deadline time.Time
	// Progress, when non-nil together with ProgressEvery, receives periodic
	// snapshots of the advance. It is called from the merge goroutine
	// between observations — never concurrently with itself or with the
	// frontier advance — at most once per ProgressEvery. Long traces whose
	// per-observation advance is slow report at observation granularity;
	// there is no mid-observation delivery.
	Progress func(TraceProgress)
	// ProgressEvery is the minimum interval between Progress deliveries.
	// Zero disables periodic progress (Progress is then never called).
	ProgressEvery time.Duration
}

// TraceProgress is one periodic snapshot of a trace-checking run.
type TraceProgress struct {
	// Step is the index of the observation about to be advanced past;
	// Total is len(trace).
	Step, Total int
	// Frontier is the number of candidate states consistent with the
	// trace prefix ending at the last matched observation.
	Frontier int
}

// Validate rejects nonsensical trace-checking options with
// ErrInvalidOptions, mirroring Options.Validate.
func (o TraceOptions) Validate() error {
	switch {
	case o.Workers < 0:
		return fmt.Errorf("%w: negative Workers %d (0 means GOMAXPROCS, 1 is sequential)", ErrInvalidOptions, o.Workers)
	case !o.Deadline.IsZero() && !o.Deadline.After(time.Now()):
		return fmt.Errorf("%w: Deadline %s is in the past", ErrInvalidOptions, o.Deadline.Format(time.RFC3339))
	case o.ProgressEvery < 0:
		return fmt.Errorf("%w: negative ProgressEvery %s", ErrInvalidOptions, o.ProgressEvery)
	}
	return nil
}

// stutterAction is the explanation recorded for a stuttering match.
const stutterAction = "<stutter>"

// CheckTrace decides whether the observed trace is a behaviour of spec,
// using the direct frontier method: the set of specification states
// consistent with the trace prefix is advanced one observation at a time.
// This is the linear-time path the paper wanted built into TLC (TLA+ issue
// 413); the Pressler-style Trace-module path lives in package tlatext.
//
// The first observation must match an initial state. Each later observation
// must be reachable from some state of the current frontier by exactly one
// action. An empty trace is trivially a behaviour.
func CheckTrace[S State](spec *Spec[S], trace []Observation[S]) (*TraceResult, error) {
	return CheckTraceWith(spec, trace, TraceOptions{})
}

// CheckTraceStuttering is CheckTrace with stuttering allowed: an observation
// may also be matched by taking no action, provided it is consistent with a
// state already in the frontier.
func CheckTraceStuttering[S State](spec *Spec[S], trace []Observation[S]) (*TraceResult, error) {
	return CheckTraceWith(spec, trace, TraceOptions{Stuttering: true})
}

// frontierChunk is the matched successors produced by one worker from one
// contiguous slice of the frontier.
type frontierChunk[S State] struct {
	states []S
	keys   []string
	acts   map[string]bool
}

// CheckTraceWith is the configurable entry point behind CheckTrace and
// CheckTraceStuttering: the frontier advance for each observation is split
// across opts.Workers goroutines, and the per-worker matches are merged
// into the deduplicated next frontier.
//
// Frontier deduplication takes the BinaryState fast path when the spec
// state implements it, but never applies Spec.SymmetryVisitor: observations name
// concrete identifiers (this node, that actor), so symmetric-but-distinct
// frontier states match different future observations and must stay
// distinct.
func CheckTraceWith[S State](spec *Spec[S], trace []Observation[S], opts TraceOptions) (*TraceResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	res := &TraceResult{FailedStep: -1}
	if len(trace) == 0 {
		res.OK = true
		return res, nil
	}
	st := newStopper(opts.Context, opts.Deadline, nil)
	defer st.close()
	workers := resolveWorkers(opts.Workers)
	cod := newCodec(&Spec[S]{}, false) // symmetry-free codec: binary fast path only
	// Per-worker codec clones persist across observations; index 0 is the
	// merge goroutine's own codec (also the single inline worker's).
	wcods := make([]*codec[S], workers)
	wcods[0] = cod
	for w := 1; w < workers; w++ {
		wcods[w] = cod.clone()
	}

	var frontier []S
	seen := make(map[string]bool)
	for _, s := range spec.Init() {
		if trace[0].Matches(s) {
			if enc := cod.canonical(s); !seen[string(enc)] {
				seen[string(enc)] = true
				frontier = append(frontier, s)
			}
		}
	}
	if len(frontier) == 0 {
		res.FailedStep = 0
		return res, &TraceError{Step: 0, Obs: trace[0].String()}
	}
	res.Steps = 1
	res.FrontierSizes = append(res.FrontierSizes, len(frontier))

	var lastProg time.Time
	if opts.Progress != nil && opts.ProgressEvery > 0 {
		lastProg = time.Now()
	}
	for i := 1; i < len(trace); i++ {
		if st.stopped() {
			res.Interrupted = true
			return res, st.err()
		}
		// Time-based progress, checked between observations on the merge
		// goroutine: one clock read per observation when enabled, zero
		// concurrency with the frontier advance.
		if opts.Progress != nil && opts.ProgressEvery > 0 {
			if now := time.Now(); now.Sub(lastProg) >= opts.ProgressEvery {
				lastProg = now
				opts.Progress(TraceProgress{Step: i, Total: len(trace), Frontier: len(frontier)})
			}
		}
		chunks := advanceFrontier(spec, wcods, frontier, trace[i], opts.Stuttering)

		next := frontier[:0:0]
		clear(seen)
		actSet := make(map[string]bool)
		for _, ch := range chunks {
			for j, s := range ch.states {
				if k := ch.keys[j]; !seen[k] {
					seen[k] = true
					next = append(next, s)
				}
			}
			for a := range ch.acts {
				actSet[a] = true
			}
		}
		if len(next) == 0 {
			res.FailedStep = i
			return res, &TraceError{Step: i, Obs: trace[i].String()}
		}
		acts := make([]string, 0, len(actSet))
		for a := range actSet {
			acts = append(acts, a)
		}
		sort.Strings(acts)
		res.Explanations = append(res.Explanations, acts)
		frontier = next
		res.Steps++
		res.FrontierSizes = append(res.FrontierSizes, len(frontier))
	}
	res.OK = true
	return res, nil
}

// advanceFrontier computes, in parallel, every successor (and, with
// stuttering, every unchanged frontier state) consistent with obs. Chunks
// come back in frontier order so the merged next frontier is deterministic.
// An action with NextWhere filters its candidates by obs before building
// them; the others build every successor and obs filters them after.
func advanceFrontier[S State](spec *Spec[S], wcods []*codec[S], frontier []S, obs Observation[S], stuttering bool) []frontierChunk[S] {
	plan := planChunks(len(frontier), len(wcods))
	chunks := make([]frontierChunk[S], plan.nChunks)
	plan.run(func(w, c, lo, hi int) {
		wcod := wcods[w]
		ch := frontierChunk[S]{acts: make(map[string]bool)}
		local := make(map[string]bool)
		add := func(s S, act string) {
			ch.acts[act] = true
			enc := wcod.canonical(s)
			if !local[string(enc)] { // no alloc on the duplicate path
				k := string(enc)
				local[k] = true
				ch.states = append(ch.states, s)
				ch.keys = append(ch.keys, k)
			}
		}
		matches := obs.Matches // bound once: no method value per call
		for _, s := range frontier[lo:hi] {
			if stuttering && matches(s) {
				add(s, stutterAction)
			}
			for _, a := range spec.Actions {
				if a.NextWhere != nil {
					for _, succ := range a.NextWhere(s, matches) {
						add(succ, a.Name)
					}
					continue
				}
				for _, succ := range a.Next(s) {
					if matches(succ) {
						add(succ, a.Name)
					}
				}
			}
		}
		chunks[c] = ch
	})
	return chunks
}
