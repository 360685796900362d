package tla

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestOptionsValidate pins the named-error contract: nonsensical options
// are rejected up front with ErrInvalidOptions instead of being silently
// reinterpreted, and valid combinations pass.
func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Workers: -1},
		{MaxStates: -5},
		{MaxDepth: -2},
		{MemoryBudgetBytes: -1},
		{MemoryBudgetBytes: 1 << 20, CollisionFree: true},
	}
	for _, opts := range bad {
		if err := opts.Validate(); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("Validate(%+v) = %v, want ErrInvalidOptions", opts, err)
		}
		if _, err := Check(counterSpec(3), opts); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("Check with %+v = %v, want ErrInvalidOptions", opts, err)
		}
	}
	good := []Options{
		{},
		{Workers: 0, MaxStates: 0, MaxDepth: 0},
		{Workers: 4, CollisionFree: true},
		{MemoryBudgetBytes: 1},
	}
	for _, opts := range good {
		if err := opts.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", opts, err)
		}
	}
	if _, err := CheckTraceWith(counterSpec(3), []Observation[counterState]{
		FullObservation[counterState]{counterState{0, 0}},
	}, TraceOptions{Workers: -3}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("CheckTraceWith(Workers: -3) = %v, want ErrInvalidOptions", err)
	}
}

// TestSpillMatchesMemoryStore is the engine-level cross-check of the
// disk-spilling visited store: with a one-byte budget (every level seals a
// run, every later level merge-joins against the accumulated runs) the
// counters, recorded graph and shortest counterexample must be
// byte-identical to the fully resident store, at every worker count,
// including on the randomized spec family and under bounds.
func TestSpillMatchesMemoryStore(t *testing.T) {
	check := func(label string, spec *Spec[counterState], opts Options) {
		t.Helper()
		want, wantErr := Check(spec, opts)
		for _, w := range []int{1, 2, 8} {
			sopts := opts
			sopts.Workers = w
			sopts.MemoryBudgetBytes = 1
			got, gotErr := Check(spec, sopts)
			assertResultsEqual(t, fmt.Sprintf("%s/workers=%d", label, w), want, got, wantErr, gotErr)
		}
	}
	check("counter", counterSpec(12), Options{RecordGraph: true})
	check("counter-bounded", counterSpec(40), Options{MaxStates: 100, MaxDepth: 9, RecordGraph: true})

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
	check("counter-violation", viol, Options{RecordGraph: true})

	for seed := int64(0); seed < 8; seed++ {
		spec := randomSpec(seed)
		want, wantErr := Check(spec, Options{RecordGraph: true})
		got, gotErr := Check(spec, Options{RecordGraph: true, Workers: 4, MemoryBudgetBytes: 1})
		assertResultsEqual(t, spec.Name+"-spill", want, got, wantErr, gotErr)
	}
}

// TestSpillStoreSealsAndRevives drives the spilling store through a
// one-byte budget and reads the run's metrics: a forced-spill exploration
// must actually seal runs on disk and merge-join later levels against
// them, while reproducing the resident result exactly.
func TestSpillStoreSealsAndRevives(t *testing.T) {
	reg := obs.NewRegistry()
	want, wantErr := Check(counterSpec(15), Options{RecordGraph: true, Workers: 2})
	got, gotErr := Check(counterSpec(15), Options{RecordGraph: true, Workers: 2, MemoryBudgetBytes: 1, Metrics: reg})
	assertResultsEqual(t, "spill", want, got, wantErr, gotErr)
	if n := reg.Counter("tla_spill_run_seals_total").Value(); n == 0 {
		t.Fatal("one-byte budget explored the space without sealing a single run — the spill path never engaged")
	}
	if n := reg.Counter("tla_spill_merge_joins_total").Value(); n == 0 {
		t.Fatal("runs sealed but no level merge-joined against them — no spilled fingerprint was ever revived")
	}
	closeGraphs(t, want, got)
}

// TestSpillStoreProtocol exercises the store's claim/resolve/seal cycle
// directly, without the engine: a spilled fingerprint must be revived with
// its original id by the next level's merge-on-lookup, and an unseen one
// must stay unassigned.
func TestSpillStoreProtocol(t *testing.T) {
	st := newSpillVisited(1, nil, nil)
	defer st.Close()

	a := st.Claim([]byte("a"))
	if a.ID != -1 {
		t.Fatalf("fresh claim ID = %d, want -1", a.ID)
	}
	if again := st.Claim([]byte("a")); again != a {
		t.Fatal("re-claim within a level must return the same entry")
	}
	if err := st.ResolveLevel(); err != nil {
		t.Fatal(err)
	}
	if a.ID != -1 {
		t.Fatalf("resolve with no runs set ID = %d", a.ID)
	}
	a.ID = 7 // the merge phase's assignment
	if err := st.EndLevel(); err != nil {
		t.Fatal(err)
	}
	if len(st.runs) != 1 {
		t.Fatalf("over-budget EndLevel sealed %d runs, want 1", len(st.runs))
	}

	revived := st.Claim([]byte("a"))
	if revived == a {
		t.Fatal("claim after spill returned the evicted entry")
	}
	fresh := st.Claim([]byte("b"))
	if err := st.ResolveLevel(); err != nil {
		t.Fatal(err)
	}
	if revived.ID != 7 {
		t.Fatalf("revived ID = %d, want the spilled 7", revived.ID)
	}
	if fresh.ID != -1 {
		t.Fatalf("unseen fingerprint resolved to ID %d, want -1", fresh.ID)
	}
}

// TestSpillRunCompaction pins the run-compaction contract: once more
// than spillCompactAfter sorted runs accumulate, EndLevel merges them
// into one, previously spilled ids still revive through the compacted
// run, and duplicate fingerprints across runs collapse to one record.
func TestSpillRunCompaction(t *testing.T) {
	st := newSpillVisited(1, nil, nil)
	defer st.Close()

	entries := map[string]*VisitedEntry{}
	nextID := 0
	// Drive spillCompactAfter+1 levels, each sealing one single-claim run;
	// the final EndLevel must compact. Re-claim key "dup" every level so
	// the same fingerprint lands in every run with the same id.
	for level := 0; level <= spillCompactAfter; level++ {
		key := fmt.Sprintf("key-%d", level)
		e := st.Claim([]byte(key))
		dup := st.Claim([]byte("dup"))
		if err := st.ResolveLevel(); err != nil {
			t.Fatal(err)
		}
		if e.ID < 0 {
			e.ID = nextID
			nextID++
			entries[key] = e
		}
		if dup.ID < 0 {
			dup.ID = nextID
			nextID++
			entries["dup"] = dup
		}
		if err := st.EndLevel(); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.runs) != 1 {
		t.Fatalf("after %d over-budget levels the store holds %d runs, want 1 compacted", spillCompactAfter+1, len(st.runs))
	}
	// Every spilled fingerprint must revive with its original id through
	// the compacted run.
	revived := map[string]*VisitedEntry{}
	for key := range entries {
		revived[key] = st.Claim([]byte(key))
	}
	if err := st.ResolveLevel(); err != nil {
		t.Fatal(err)
	}
	for key, want := range entries {
		if got := revived[key]; got.ID != want.ID {
			t.Fatalf("key %s revived with id %d through the compacted run, want %d", key, got.ID, want.ID)
		}
	}
	// The compacted run holds each fingerprint once: its record count is
	// the distinct-claim count, not the sum of the input runs.
	fi, err := os.Stat(st.runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(entries) * spillRecSize); fi.Size() != want {
		t.Fatalf("compacted run is %d bytes, want %d (%d distinct records)", fi.Size(), want, len(entries))
	}
}

// TestLevelFrontierRecycles pins the double-buffering contract: the slice
// handed out by NextLevel stays valid while the next level accumulates.
func TestLevelFrontierRecycles(t *testing.T) {
	f := &levelFrontier[counterState]{}
	f.Push(1, counterState{A: 1})
	f.Push(2, counterState{A: 2})
	level, states := f.NextLevel()
	f.Push(3, counterState{A: 3}) // must not clobber level's backing arrays
	if !reflect.DeepEqual(level, []int{1, 2}) || !reflect.DeepEqual(states, []counterState{{A: 1}, {A: 2}}) {
		t.Fatalf("level = %v %v, want [1 2] with their states", level, states)
	}
	next, nextStates := f.NextLevel()
	if !reflect.DeepEqual(next, []int{3}) || !reflect.DeepEqual(nextStates, []counterState{{A: 3}}) {
		t.Fatalf("next level = %v %v, want [3] with its state", next, nextStates)
	}
	// Handing out the next level drops the expanded level's live values.
	if states[0] != (counterState{}) || states[1] != (counterState{}) {
		t.Fatalf("expanded level's states survived NextLevel: %v", states)
	}
	if empty, _ := f.NextLevel(); len(empty) != 0 {
		t.Fatalf("drained frontier returned %v", empty)
	}
}
