package tla

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// TestArenaRoundTrip is the arena's core property test: every encoding
// added comes back byte-identical, across segment boundaries and through
// forced disk spills.
func TestArenaRoundTrip(t *testing.T) {
	for _, budget := range []int64{0, 1, 1 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			a := newArena(budget, nil, nil)
			defer a.close()
			rng := rand.New(rand.NewSource(1))
			var want [][]byte
			for i := 0; i < 500; i++ {
				enc := make([]byte, rng.Intn(64)+1)
				rng.Read(enc)
				want = append(want, enc)
				if err := a.add(enc, i-1, uint16(i%3), i); err != nil {
					t.Fatal(err)
				}
			}
			if a.len() != len(want) {
				t.Fatalf("arena holds %d records, want %d", a.len(), len(want))
			}
			// One buffer reused across reads: encoding copies, so earlier
			// results must never be clobbered by later reads.
			var buf []byte
			for id, enc := range want {
				var err error
				buf, err = a.encoding(id, buf[:0])
				if err != nil {
					t.Fatal(err)
				}
				got := buf
				if !bytes.Equal(got, enc) {
					t.Fatalf("budget=%d id=%d: round-trip %x != original %x", budget, id, got, enc)
				}
				m := a.meta[id]
				if int(m.parent) != id-1 || int(m.depth) != id || int(m.act) != id%3 {
					t.Fatalf("id=%d meta = %+v", id, m)
				}
			}
		})
	}
}

// TestArenaOversizedEncoding pins the dedicated-segment path: an encoding
// larger than a whole segment still round-trips, resident and spilled.
func TestArenaOversizedEncoding(t *testing.T) {
	for _, budget := range []int64{0, 1} {
		a := newArena(budget, nil, nil)
		big := bytes.Repeat([]byte{0xAB}, arenaSegBytes+17)
		if err := a.add([]byte("small"), -1, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := a.add(big, 0, 1, 1); err != nil {
			t.Fatal(err)
		}
		got, err := a.encoding(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, big) {
			t.Fatalf("budget=%d: oversized encoding corrupted (len %d vs %d)", budget, len(got), len(big))
		}
		a.close()
	}
}

// TestArenaSpillFileLifecycle pins the disk-backing contract: a
// one-byte budget spills every segment, the spill file exists during the
// run, and close removes it.
func TestArenaSpillFileLifecycle(t *testing.T) {
	a := newArena(1, nil, nil)
	if err := a.add([]byte("abc"), -1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if a.file == nil {
		t.Fatal("one-byte budget did not open a spill file")
	}
	name := a.file.Name()
	if _, err := os.Stat(name); err != nil {
		t.Fatalf("spill file missing during run: %v", err)
	}
	if !a.segs[0].spilled {
		t.Fatal("segment not marked spilled under a one-byte budget")
	}
	if err := a.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatalf("spill file survived close: stat err = %v", err)
	}
	// Closing a never-spilled arena is a no-op.
	if err := newArena(0, nil, nil).close(); err != nil {
		t.Fatal(err)
	}
}

// assertArenaAgrees runs spec with its graph recorded, once with the arena
// resident and once forced to disk under a one-byte budget, and checks both
// runs against the reference explorer.
func assertArenaAgrees[S State](t *testing.T, label string, spec *Spec[S], opts Options) {
	t.Helper()
	for _, budget := range []int64{0, 1} {
		o := opts
		o.RecordGraph, o.MemoryBudgetBytes = true, budget
		res, err := Check(spec, o)
		assertMatchesReference(t, fmt.Sprintf("%s/budget=%d", label, budget), spec, res, err)
		closeGraphs(t, res)
	}
}

// TestArenaMatchesLiveRetention is the engine-level arena cross-check:
// explorations retaining states in the arena, resident and forced to disk,
// must match the reference explorer, which retains every state as a live
// value — counters, node keys, reconstructed states, edges, verdicts and
// shortest counterexamples — at several worker counts, on the hand-written
// and randomized spec families. Run bounds, which the reference does not
// model, are checked resident against spilled.
func TestArenaMatchesLiveRetention(t *testing.T) {
	for _, w := range []int{1, 4} {
		assertArenaAgrees(t, fmt.Sprintf("counter/workers=%d", w), counterSpec(12), Options{Workers: w})
	}

	viol := counterSpec(8)
	viol.Invariants = append(viol.Invariants, Invariant[counterState]{
		Name: "ANeverFive",
		Check: func(s counterState) error {
			if s.A == 5 {
				return errors.New("A reached 5")
			}
			return nil
		},
	})
	assertArenaAgrees(t, "counter-violation", viol, Options{})

	for seed := int64(0); seed < 8; seed++ {
		assertArenaAgrees(t, fmt.Sprintf("random-%d", seed), randomSpec(seed), Options{Workers: 4})
	}

	bounded := Options{MaxStates: 100, MaxDepth: 9, RecordGraph: true}
	want, wantErr := Check(counterSpec(40), bounded)
	bounded.MemoryBudgetBytes = 1
	got, gotErr := Check(counterSpec(40), bounded)
	assertResultsEqual(t, "counter-bounded/spilled", want, got, wantErr, gotErr)
	closeGraphs(t, want, got)
}

// TestArenaSymmetryTrace pins exact reconstruction under symmetry
// reduction: the arena stores plain (not orbit-canonical) encodings, so
// although the visited set dedups on orbit representatives, the reported
// counterexample is a behaviour of the spec, as short as the unreduced
// reference's, and identical whether decoded or replayed (ForceKeyEncoding
// drops the decoder).
func TestArenaSymmetryTrace(t *testing.T) {
	mk := func() *Spec[binState] {
		spec := binSpecVisitor(20)
		spec.Invariants = []Invariant[binState]{{
			Name: "SumBelow7",
			Check: func(s binState) error {
				if s.A+s.B >= 7 {
					return errors.New("sum reached 7")
				}
				return nil
			},
		}}
		return spec
	}
	ref := reference(mk()) // the reference ignores SymmetryVisitor
	var traces [][]string
	var acts [][]string
	for _, opts := range []Options{{}, {ForceKeyEncoding: true, MemoryBudgetBytes: 1}} {
		res, err := Check(mk(), opts)
		label := fmt.Sprintf("symmetry/forcekeys=%v", opts.ForceKeyEncoding)
		if !errors.Is(err, ErrInvariantViolated) {
			t.Fatalf("%s: err = %v, want a violation", label, err)
		}
		v := res.Violation
		if v.Invariant != ref.violated || len(v.Trace) != ref.traceLen {
			t.Fatalf("%s: %s after %d states, reference %s after %d", label, v.Invariant, len(v.Trace), ref.violated, ref.traceLen)
		}
		assertTraceIsBehaviour(t, label, mk(), v)
		traces = append(traces, traceKeys(v.Trace))
		acts = append(acts, v.TraceActs)
	}
	if !reflect.DeepEqual(traces[1], traces[0]) || !reflect.DeepEqual(acts[1], acts[0]) {
		t.Fatalf("replayed trace differs from the decoded one under symmetry:\n got  %v %v\n want %v %v", traces[1], acts[1], traces[0], acts[0])
	}
}

// TestArenaGraphWithoutDecoder pins graphs of spec states without a
// BinaryDecoder. counterState implements neither BinaryState nor
// BinaryDecoder, so the arena stores Key() bytes: KeyAt serves them
// directly and StateAt replays the parent chain. Resident and spilled, the
// graph matches the reference explorer, and a checkpointed graph run
// resumes to the uninterrupted run's DOT.
func TestArenaGraphWithoutDecoder(t *testing.T) {
	assertArenaAgrees(t, "counter", counterSpec(6), Options{Workers: 2})

	const max = 20
	oracle, err := Check(counterSpec(max), Options{RecordGraph: true})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	wantDOT := dotBytes(t, oracle.Graph, "Counter")
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := Check(cancelAfter(counterSpec(max), cancel, 50), Options{RecordGraph: true, Context: ctx, CheckpointDir: dir})
	if !errors.Is(err, ErrInterrupted) || partial.CheckpointPath != dir {
		t.Fatalf("err = %v, CheckpointPath = %q, want an interrupted run checkpointed to %q", err, partial.CheckpointPath, dir)
	}
	res, err := Check(counterSpec(max), Options{RecordGraph: true, ResumeFrom: dir})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if gotDOT := dotBytes(t, res.Graph, "Counter"); !bytes.Equal(gotDOT, wantDOT) {
		t.Fatal("resumed graph without a decoder differs from the uninterrupted run's")
	}
	closeGraphs(t, oracle, res)
}

// assertTraceIsBehaviour replays a reported counterexample against the
// spec: Trace[0] must be an initial state, every step must be producible
// by the recorded action, and the final state must violate the named
// invariant.
func assertTraceIsBehaviour[S State](t *testing.T, label string, spec *Spec[S], v *Violation[S]) {
	t.Helper()
	if v == nil || len(v.Trace) == 0 {
		t.Fatalf("%s: violation without a trace", label)
	}
	isInit := false
	for _, s := range spec.Init() {
		if s.Key() == v.Trace[0].Key() {
			isInit = true
			break
		}
	}
	if !isInit {
		t.Fatalf("%s: trace does not start in an initial state: %s", label, v.Trace[0].Key())
	}
	for i := 1; i < len(v.Trace); i++ {
		actName := v.TraceActs[i-1]
		found := false
		for _, a := range spec.Actions {
			if a.Name != actName {
				continue
			}
			for _, succ := range a.Next(v.Trace[i-1]) {
				if succ.Key() == v.Trace[i].Key() {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("%s: step %d: %s does not lead from %s to %s", label, i, actName, v.Trace[i-1].Key(), v.Trace[i].Key())
		}
	}
	last := v.Trace[len(v.Trace)-1]
	violated := false
	for _, inv := range spec.Invariants {
		if inv.Name == v.Invariant {
			violated = inv.Check(last) != nil
		}
	}
	if !violated {
		t.Fatalf("%s: final trace state does not violate %s: %s", label, v.Invariant, last.Key())
	}
}
