package tla

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// filteredCounterSpec is counterSpec(max) with NextWhere set on IncA only,
// so a trace check mixes the filtered and the unfiltered path. The
// counters record which path each action took.
func filteredCounterSpec(max int, incANext, incAWhere, incBNext *atomic.Int64) *Spec[counterState] {
	spec := counterSpec(max)
	incA, incB := spec.Actions[0].Next, spec.Actions[1].Next
	spec.Actions = []Action[counterState]{
		{
			Name: "IncA",
			Next: func(s counterState) []counterState {
				incANext.Add(1)
				return incA(s)
			},
			NextWhere: func(s counterState, keep func(counterState) bool) []counterState {
				incAWhere.Add(1)
				if s.A >= max || !keep(counterState{s.A + 1, s.B}) {
					return nil
				}
				return []counterState{{s.A + 1, s.B}}
			},
		},
		{
			Name: "IncB",
			Next: func(s counterState) []counterState {
				incBNext.Add(1)
				return incB(s)
			},
		},
	}
	return spec
}

// TestMixedNextWhereSpec checks that the trace checker takes NextWhere for
// the actions that have it, and only for them: IncA's Next is never
// called, IncB's is, and every result — verdicts, frontiers, explanations
// and stutter matches — equals that of the unfiltered spec, at 1 and 4
// workers.
func TestMixedNextWhereSpec(t *testing.T) {
	traces := map[string][]Observation[counterState]{
		"partial": {
			partialObs{a: 0},
			partialObs{a: 1},
			partialObs{a: 1, atLeast: true},
			partialObs{a: 2, atLeast: true},
			partialObs{a: 2, atLeast: true},
			partialObs{a: 3, atLeast: true},
		},
		"stutter": {
			FullObservation[counterState]{counterState{0, 0}},
			FullObservation[counterState]{counterState{0, 0}},
			FullObservation[counterState]{counterState{1, 0}},
			FullObservation[counterState]{counterState{1, 1}},
			FullObservation[counterState]{counterState{1, 1}},
		},
		"diverges": {
			FullObservation[counterState]{counterState{0, 0}},
			FullObservation[counterState]{counterState{1, 0}},
			FullObservation[counterState]{counterState{0, 0}},
		},
	}
	for name, trace := range traces {
		for _, stutter := range []bool{false, true} {
			for _, w := range []int{1, 4} {
				label := fmt.Sprintf("%s/stutter=%v/workers=%d", name, stutter, w)
				opts := TraceOptions{Workers: w, Stuttering: stutter}
				want, wantErr := CheckTraceWith(counterSpec(6), trace, opts)
				var incANext, incAWhere, incBNext atomic.Int64
				got, gotErr := CheckTraceWith(filteredCounterSpec(6, &incANext, &incAWhere, &incBNext), trace, opts)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: err = %v, want %v", label, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\n got  %+v\n want %+v", label, got, want)
				}
				if n := incANext.Load(); n != 0 {
					t.Errorf("%s: IncA.Next called %d times; it has NextWhere", label, n)
				}
				if incAWhere.Load() == 0 || incBNext.Load() == 0 {
					t.Errorf("%s: IncA.NextWhere called %d times, IncB.Next %d times; want both used",
						label, incAWhere.Load(), incBNext.Load())
				}
			}
		}
	}
}
