package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryMetricEmitted runs each workload at the tiny size, untraced and
// traced, and checks that the result line carries every metric
// BENCHMARK.json names, with its unit, and that every gate passed. Every
// end-to-end metric and every layer the workload fills must read above 0.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []int{0, 1} {
			want := spec.EndToEnd
			if traced == 1 {
				want = spec.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, traced), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.4", "--trace", fmt.Sprint(traced),
					"--size", "tiny", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				nonZero := spec.EndToEnd
				if traced == 1 {
					nonZero = nil
					for _, name := range filledLayers[w.Name] {
						nonZero = append(nonZero, metricSpec{Name: name})
					}
					checkIdentities(t, w.Name, res.Metrics)
				}
				for _, m := range nonZero {
					if v := res.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("metric %s = %g, want > 0", m.Name, v)
					}
				}
			})
		}
	}
}

// runtimeLayers are filled on every workload.
var runtimeLayers = []string{"runtime.allocs_per_unit", "runtime.alloc_bytes_per_unit"}

// filledLayers lists, per workload, the per-layer metrics the README's
// layer map says it fills; each must read above 0 on a traced run, so a
// shim or registry name that silently stops counting fails the test.
var filledLayers = map[string][]string{
	"mbtc-rollback": append([]string{
		"replset.capture_s", "trace.process_s", "trace.events",
		"tla.tracecheck_s", "tla.tracecheck.frontier_sum", "tla.tracecheck.frontier_max",
		"tla.tracecheck.match_ratio", "tla.tracecheck.us_per_frontier_state.q1",
		"tla.tracecheck.us_per_frontier_state.q4", "mbtc.match_cpu_s",
		"raftmongo.next_cpu_s", "raftmongo.next_calls", "raftmongo.successors", "raftmongo.ns_per_successor",
		"tla.engine_cpu_s", "tla.cpu_utilization",
	}, runtimeLayers...),
	"mbtcg-arrayot": append([]string{
		"tla.graph_check_s", "tla.dot_write_s", "tla.dot_bytes", "mbtcg.from_dot_s",
		"arrayot.next_cpu_s", "ot.run_s", "otgo.run_s",
		"tla.distinct", "tla.transitions", "tla.depth", "tla.worker_claims", "tla.level_width_max",
		"tla.engine_cpu_s", "tla.cpu_utilization",
	}, runtimeLayers...),
	"check-raftmongo-v2": append([]string{
		"raftmongo.next_cpu_s", "raftmongo.next_calls", "raftmongo.successors", "raftmongo.ns_per_successor",
		"tla.distinct", "tla.transitions", "tla.depth", "tla.worker_claims", "tla.level_width_max",
		"tla.invariant_cpu_s", "tla.engine_cpu_s", "tla.cpu_utilization",
	}, runtimeLayers...),
	"checkd-jobs": append([]string{
		"checkd.submit_us", "checkd.queue_wait_ms", "checkd.run_ms", "checkd.raw_check_ms", "checkd.overhead_ratio",
	}, runtimeLayers...),
}

// checkIdentities checks the exact relations a traced run's layer
// readings must satisfy: the engine's per-worker claims sum to its
// distinct states, and the model check reads the tiny configuration's
// exact counts.
func checkIdentities(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	val := func(name string) float64 { return m[name].Value }
	switch workload {
	case "mbtcg-arrayot":
		if val("tla.worker_claims") != val("tla.distinct") {
			t.Errorf("tla.worker_claims = %g, tla.distinct = %g, want equal", val("tla.worker_claims"), val("tla.distinct"))
		}
	case "check-raftmongo-v2":
		if val("tla.worker_claims") != v2TinyDistinct || val("tla.distinct") != v2TinyDistinct {
			t.Errorf("tla.worker_claims = %g, tla.distinct = %g, want both %d",
				val("tla.worker_claims"), val("tla.distinct"), v2TinyDistinct)
		}
		if val("tla.transitions") != v2TinyTransitions {
			t.Errorf("tla.transitions = %g, want %d", val("tla.transitions"), v2TinyTransitions)
		}
	case "checkd-jobs":
		if r := val("checkd.cache_hit_ratio"); r < 0 || r > 1 {
			t.Errorf("checkd.cache_hit_ratio = %g, want within [0, 1]", r)
		}
	}
}

// TestNegativeControlTrips pins the control that fails a checker which
// accepts every trace: the default seed without SyncBeforeWrites must
// diverge, at observation 14.
func TestNegativeControlTrips(t *testing.T) {
	inst, err := newRollback(params{seed: 0, tiny: true, workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := inst.(*rollback)
	for _, err := range r.controls() {
		if err != nil {
			t.Fatal(err)
		}
	}
	rep, err := r.pipeline(negativeSeed, r.steps, false)
	if err != nil || rep.OK || rep.FailedStep != 14 {
		t.Fatalf("negative control: %s, want DIVERGE at observation 14", verdict(rep, err))
	}
}

// TestRollbackSeedsPass checks that every measured and held-out fuzzer
// seed passes at the full 4,000 steps.
func TestRollbackSeedsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size fuzz runs")
	}
	inst, err := newRollback(params{workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := inst.(*rollback)
	for _, seed := range append(append([]int64(nil), rollbackSeeds...), heldOutSeeds...) {
		rep, err := r.pipeline(seed, r.steps, true)
		if err != nil || !rep.OK {
			t.Errorf("seed %d: %s, want PASS", seed, verdict(rep, err))
			continue
		}
		t.Logf("seed %d: PASS, %d events", seed, rep.Events)
	}
}
