package mbtc

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fuzzer"
	"repro/internal/raftmongo"
	"repro/internal/replset"
	"repro/internal/tla"
	"repro/internal/trace"
)

// unguided returns a copy of spec without NextWhere, so the trace checker
// builds every successor and filters it after.
func unguided(spec *tla.Spec[raftmongo.State]) *tla.Spec[raftmongo.State] {
	u := *spec
	u.Actions = slices.Clone(spec.Actions)
	for i := range u.Actions {
		u.Actions[i].NextWhere = nil
	}
	return &u
}

// fuzzObservations captures one rollback-fuzzer run and returns its
// checker observations.
func fuzzObservations(t *testing.T, seed int64, steps int, syncFirst bool) []tla.Observation[raftmongo.State] {
	t.Helper()
	fcfg := fuzzer.DefaultRollbackConfig()
	fcfg.Seed, fcfg.Steps, fcfg.SyncBeforeWrites = seed, steps, syncFirst
	events, err := RunTraced(replset.Config{Nodes: fcfg.Nodes, Seed: seed}, func(c *replset.Cluster) error {
		_, err := fuzzer.FuzzRollback(fcfg, c)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	processed, err := trace.Process(fcfg.Nodes, events, trace.ProcessOptions{FillOplogPrefixes: true})
	if err != nil {
		t.Fatal(err)
	}
	return ObservationsFromProcessed(fcfg.Nodes, events, processed)
}

// TestGuidedTraceMatchesUnguided checks that filtering candidates by the
// observation before they are built (NextWhere) changes nothing a trace
// check reports: on the rollback-fuzzer basket seeds, against both spec
// variants at 1 and 4 workers, the TraceResult — steps, verdict, failing
// step, frontier sizes and explanations — and the error equal those of
// the same spec without NextWhere. The negative control, seed 7 without
// SyncBeforeWrites, must still diverge at observation 14 on both paths.
func TestGuidedTraceMatchesUnguided(t *testing.T) {
	const steps = 2000
	runs := []struct {
		seed      int64
		syncFirst bool
	}{{7, true}, {3, true}, {11, true}, {7, false}}
	for _, r := range runs {
		obs := fuzzObservations(t, r.seed, steps, r.syncFirst)
		for _, variant := range []func(raftmongo.Config) *tla.Spec[raftmongo.State]{raftmongo.SpecV1, raftmongo.SpecV2} {
			spec := variant(CheckConfig(3))
			for _, w := range []int{1, 4} {
				label := fmt.Sprintf("%s/seed=%d/sync=%v/workers=%d", spec.Name, r.seed, r.syncFirst, w)
				opts := tla.TraceOptions{Workers: w}
				got, gotErr := tla.CheckTraceWith(spec, obs, opts)
				want, wantErr := tla.CheckTraceWith(unguided(spec), obs, opts)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: err = %v, want %v", label, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: guided result differs:\n got  %+v\n want %+v", label, got, want)
				}
				if spec.Name == "RaftMongoV2" {
					switch {
					case r.syncFirst && !got.OK:
						t.Fatalf("%s: diverged at observation %d, want PASS", label, got.FailedStep)
					case !r.syncFirst && got.FailedStep != 14:
						t.Fatalf("%s: negative control OK=%v FailedStep=%d, want a divergence at observation 14", label, got.OK, got.FailedStep)
					}
				}
			}
		}
	}
}
