package tla

import (
	"slices"
	"sort"
	"testing"
)

// This file holds the reference explorer the arena cross-checks compare
// against: a naive sequential breadth-first search over Key() strings that
// shares no code with the engine — no codec, visited store, frontier or
// arena — and keeps every state as a live value.

// refResult is what the reference explorer observed. Discovery order is the
// engine's id order: initial states in Init order, then each expanded state's
// successors in action order, then successor order.
type refResult struct {
	keys  []string // state keys in discovery order
	edges []string // key-projected edges "from -action-> to", sorted

	transitions, terminal, depth, cuts int

	// violated names the invariant failed by the first violating state in
	// discovery order ("" when none is reachable); traceLen is the number
	// of states on its shortest counterexample.
	violated string
	traceLen int
}

// reference explores spec breadth-first, stopping at the first invariant
// violation as Check does. Spec bounds (Constraint) apply; run bounds
// (MaxStates, MaxDepth) and reductions (symmetry, POR) do not exist here.
func reference[S State](spec *Spec[S]) *refResult {
	type item struct {
		s     S
		key   string
		depth int
	}
	r := &refResult{}
	seen := map[string]bool{}
	var queue []item
	// discover registers s if it is new and reports whether it violates an
	// invariant.
	discover := func(s S, depth int) bool {
		k := s.Key()
		if seen[k] {
			return false
		}
		seen[k] = true
		r.keys = append(r.keys, k)
		r.depth = max(r.depth, depth)
		for _, inv := range spec.Invariants {
			if inv.Check(s) != nil {
				r.violated, r.traceLen = inv.Name, depth+1
				return true
			}
		}
		if spec.Constraint != nil && !spec.Constraint(s) {
			r.cuts++
			return false
		}
		queue = append(queue, item{s, k, depth})
		return false
	}
	defer func() { sort.Strings(r.edges) }()
	for _, s := range spec.Init() {
		if discover(s, 0) {
			return r
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n := 0
		for _, a := range spec.Actions {
			for _, succ := range a.Next(cur.s) {
				n++
				r.transitions++
				r.edges = append(r.edges, cur.key+" -"+a.Name+"-> "+succ.Key())
				if discover(succ, cur.depth+1) {
					return r
				}
			}
		}
		if n == 0 {
			r.terminal++
		}
	}
	return r
}

// assertMatchesReference checks one engine run of spec against the
// reference explorer: counters; the violated invariant and shortest
// counterexample length, with the reported trace a behaviour of the spec;
// and, when the run recorded its graph, node keys in id order, every
// reconstructed state (StateAt decodes or replays), and key-projected
// edges.
func assertMatchesReference[S State](t *testing.T, label string, spec *Spec[S], got *Result[S], gotErr error) {
	t.Helper()
	ref := reference(spec)
	if got.Distinct != len(ref.keys) || got.Transitions != ref.transitions || got.Depth != ref.depth ||
		got.Terminal != ref.terminal || got.ConstraintCuts != ref.cuts {
		t.Fatalf("%s: distinct/transitions/depth/terminal/cuts = %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d", label,
			got.Distinct, got.Transitions, got.Depth, got.Terminal, got.ConstraintCuts,
			len(ref.keys), ref.transitions, ref.depth, ref.terminal, ref.cuts)
	}
	if ref.violated == "" {
		if gotErr != nil {
			t.Fatalf("%s: err = %v, the reference found no violation", label, gotErr)
		}
	} else {
		v := got.Violation
		if v == nil || v.Invariant != ref.violated || len(v.Trace) != ref.traceLen {
			t.Fatalf("%s: violation = %v, reference: %s after %d states", label, v, ref.violated, ref.traceLen)
		}
		assertTraceIsBehaviour(t, label, spec, v)
	}
	g := got.Graph
	if g == nil {
		return
	}
	if keys := graphKeys(g); !slices.Equal(keys, ref.keys) {
		t.Fatalf("%s: node keys differ from the reference:\n got  %v\n want %v", label, keys, ref.keys)
	}
	for id := 0; id < g.Len(); id++ {
		if k := g.StateAt(id).Key(); k != ref.keys[id] {
			t.Fatalf("%s: StateAt(%d).Key() = %q, want %q", label, id, k, ref.keys[id])
		}
	}
	if edges := keyEdges(t, g); !slices.Equal(edges, ref.edges) {
		t.Fatalf("%s: %d key-projected edges differ from the reference's %d", label, len(edges), len(ref.edges))
	}
}

// graphKeys lists a graph's node keys in id order.
func graphKeys[S State](g *Graph[S]) []string {
	keys := make([]string, g.Len())
	for id := range keys {
		keys[id] = g.KeyAt(id)
	}
	return keys
}

// graphEdges lists a graph's edges in recorded order.
func graphEdges[S State](t *testing.T, g *Graph[S]) []Edge {
	t.Helper()
	var out []Edge
	if err := g.ForEachEdge(func(e Edge) error {
		out = append(out, e)
		return nil
	}); err != nil {
		t.Fatalf("ForEachEdge: %v", err)
	}
	return out
}

// keyEdges projects a graph's edges onto state keys — the id-independent
// form the reference explorer records — sorted.
func keyEdges[S State](t *testing.T, g *Graph[S]) []string {
	t.Helper()
	var out []string
	for _, e := range graphEdges(t, g) {
		out = append(out, g.KeyAt(e.From)+" -"+e.Action+"-> "+g.KeyAt(e.To))
	}
	sort.Strings(out)
	return out
}

// closeGraphs releases the arena spill files the results' graphs own.
func closeGraphs[S State](t *testing.T, results ...*Result[S]) {
	t.Helper()
	for _, res := range results {
		if res != nil && res.Graph != nil {
			if err := res.Graph.Close(); err != nil {
				t.Fatalf("Graph.Close: %v", err)
			}
		}
	}
}
