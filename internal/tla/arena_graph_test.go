package tla

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// State graph tests. The contract under test (arena.go, engine.go, dot.go,
// checkpoint.go): RecordGraph serves Result.Graph from the arena's
// append-only segments, and the graph is the same whether the arena is
// resident, spilled or restored from a checkpoint — same nodes, same keys,
// same edges, byte-identical DOT output — and the same as the reference
// explorer's.

// dotBytes renders g as DOT, failing the test on error.
func dotBytes[S State](t *testing.T, g *Graph[S], name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, name); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	return buf.Bytes()
}

// cancelAfter wraps every action of spec to cancel ctx after the given
// number of Next calls — the generic twin of cancelingSpec.
func cancelAfter[S State](spec *Spec[S], cancel context.CancelFunc, after int64) *Spec[S] {
	var calls atomic.Int64
	for i := range spec.Actions {
		next := spec.Actions[i].Next
		spec.Actions[i].Next = func(s S) []S {
			if calls.Add(1) >= after {
				cancel()
				time.Sleep(2 * time.Millisecond)
			}
			return next(s)
		}
	}
	return spec
}

// TestArenaGraphMatchesResident is the headline graph property: a graph
// whose arena spilled to disk under a one-byte memory budget is
// byte-identical in DOT form to the resident graph, at one and at four
// workers, and the resident graph matches the reference explorer.
func TestArenaGraphMatchesResident(t *testing.T) {
	const max = 25
	for _, w := range []int{1, 4} {
		want, err := Check(binSpec(max, false), Options{RecordGraph: true, Workers: w})
		assertMatchesReference(t, fmt.Sprintf("workers=%d/resident", w), binSpec(max, false), want, err)
		wantDOT := dotBytes(t, want.Graph, "bincounter")
		label := fmt.Sprintf("workers=%d/spilled", w)
		got, err := Check(binSpec(max, false), Options{RecordGraph: true, Workers: w, MemoryBudgetBytes: 1})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for id := 0; id < want.Graph.Len(); id++ {
			if sk := got.Graph.StateAt(id).Key(); sk != want.Graph.KeyAt(id) {
				t.Fatalf("%s: StateAt(%d).Key() = %q, want %q", label, id, sk, want.Graph.KeyAt(id))
			}
		}
		if gotDOT := dotBytes(t, got.Graph, "bincounter"); !bytes.Equal(gotDOT, wantDOT) {
			t.Fatalf("%s: spilled DOT differs from the resident run's", label)
		}
		closeGraphs(t, want, got)
		if err := got.Graph.Close(); err != nil {
			t.Fatalf("%s: second Close: %v", label, err)
		}
	}
}

// TestArenaDecodeTrace: a violation on a BinaryDecoder state reconstructs
// its counterexample by decoding arena encodings, and with ForceKeyEncoding
// (no decoder) by replaying the recorded actions. Resident or spilled, both
// traces are identical and as short as the reference explorer's.
func TestArenaDecodeTrace(t *testing.T) {
	mk := func() *Spec[binState] {
		spec := binSpec(25, false)
		spec.Invariants = []Invariant[binState]{{
			Name: "SumBelow9",
			Check: func(s binState) error {
				if s.A+s.B >= 9 {
					return errors.New("sum reached 9")
				}
				return nil
			},
		}}
		return spec
	}
	decoded, err := Check(mk(), Options{})
	assertMatchesReference(t, "decoded", mk(), decoded, err)
	for _, opts := range []Options{{MemoryBudgetBytes: 1}, {ForceKeyEncoding: true}, {ForceKeyEncoding: true, MemoryBudgetBytes: 1}} {
		label := fmt.Sprintf("forcekeys=%v/budget=%d", opts.ForceKeyEncoding, opts.MemoryBudgetBytes)
		got, gotErr := Check(mk(), opts)
		assertResultsEqual(t, label, decoded, got, err, gotErr)
	}
}

// ckGraphOpts is the option set the graph-checkpoint tests share.
func ckGraphOpts() Options {
	return Options{RecordGraph: true, MemoryBudgetBytes: 1, Workers: 4}
}

// TestCheckpointArenaGraph: a checkpointing run records its graph into the
// arena, an interrupt seals the edge segments into the checkpoint, and the
// resumed run finishes with a graph byte-identical to an uninterrupted
// run's — the spilled arena as a durable on-disk state-graph format.
func TestCheckpointArenaGraph(t *testing.T) {
	const max = 20
	oracle, err := Check(binSpec(max, false), ckGraphOpts())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	oracleDOT := dotBytes(t, oracle.Graph, "bincounter")
	if err := oracle.Graph.Close(); err != nil {
		t.Fatalf("oracle Close: %v", err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := ckGraphOpts()
	opts.Context = ctx
	opts.CheckpointDir = dir
	partial, err := Check(cancelAfter(binSpec(max, false), cancel, 200), opts)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want an interrupted run", err)
	}
	if !partial.Interrupted || partial.CheckpointPath != dir {
		t.Fatalf("Interrupted = %v, CheckpointPath = %q, want a checkpoint in %q",
			partial.Interrupted, partial.CheckpointPath, dir)
	}

	ropts := ckGraphOpts()
	ropts.ResumeFrom = dir
	res, err := Check(binSpec(max, false), ropts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Graph == nil {
		t.Fatal("resumed run has no graph")
	}
	if gotDOT := dotBytes(t, res.Graph, "bincounter"); !bytes.Equal(gotDOT, oracleDOT) {
		t.Fatal("resumed graph DOT differs from the uninterrupted run's")
	}
	if err := res.Graph.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestResumeGraphRequiresEdges: resuming with RecordGraph from a
// checkpoint written without it (no edge records) is rejected with
// ErrBadCheckpoint instead of resumed into a partial graph.
func TestResumeGraphRequiresEdges(t *testing.T) {
	const max = 20
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{MemoryBudgetBytes: 1, Workers: 4, Context: ctx, CheckpointDir: dir}
	if _, err := Check(cancelAfter(binSpec(max, false), cancel, 200), opts); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want an interrupted run", err)
	}
	ropts := ckGraphOpts()
	ropts.ResumeFrom = dir
	if _, err := Check(binSpec(max, false), ropts); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("resume with RecordGraph from an edge-free checkpoint = %v, want ErrBadCheckpoint", err)
	}
	// Without the graph request the same checkpoint resumes fine.
	ropts.RecordGraph = false
	if _, err := Check(binSpec(max, false), ropts); err != nil {
		t.Fatalf("plain resume: %v", err)
	}
}
