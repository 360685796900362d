package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/tla"
)

// A traced run records spans around every call the benchmark makes into a
// layer, and accumulates the per-layer counters the README lists. Nothing
// inside the program is instrumented: the shims below wrap the spec's
// actions, invariants and the trace checker's observations from outside.

// span is one timed call into a layer. Spans of one operation share the
// operation's root span through their Parent chain.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is an
// untraced run: every method is then a no-op.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	layers *layerAcc
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), layers: newLayerAcc()}
}

// begin opens a span and returns its id (0 on an untraced run).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.origin))})
	return len(t.spans)
}

// end closes span id, attaching attrs.
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.origin))
	t.spans[id-1].Attrs = attrs
}

// record adds a span whose bounds were observed rather than bracketed,
// such as a checkd job phase seen by polling.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the run context and then every span, one JSON object a
// line.
func (t *tracer) write(path string, ctx map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"context": ctx}); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// layerAcc accumulates per-layer quantities over the traced windows of a
// run. Additive quantities are summed and reported per round — one
// complete pass over the workload's input — so windows holding different
// numbers of rounds report alike.
type layerAcc struct {
	mu      sync.Mutex
	sum     map[string]float64
	max     map[string]float64
	samples map[string][]float64
	rounds  float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{sum: map[string]float64{}, max: map[string]float64{}, samples: map[string][]float64{}}
}

func (a *layerAcc) add(name string, v float64) {
	a.mu.Lock()
	a.sum[name] += v
	a.mu.Unlock()
}

func (a *layerAcc) hi(name string, v float64) {
	a.mu.Lock()
	if v > a.max[name] {
		a.max[name] = v
	}
	a.mu.Unlock()
}

func (a *layerAcc) sample(name string, v float64) {
	a.mu.Lock()
	a.samples[name] = append(a.samples[name], v)
	a.mu.Unlock()
}

func (a *layerAcc) round() {
	a.mu.Lock()
	a.rounds++
	a.mu.Unlock()
}

// layerDef is one per-layer metric: its unit and how it is derived from
// the accumulator. A layer the workload does not call reads 0.
type layerDef struct {
	name, unit string
	value      func(a *layerAcc) float64
}

func perRound(key string) func(*layerAcc) float64 {
	return func(a *layerAcc) float64 {
		if a.rounds == 0 {
			return 0
		}
		return a.sum[key] / a.rounds
	}
}

func maxOf(key string) func(*layerAcc) float64 {
	return func(a *layerAcc) float64 { return a.max[key] }
}

func ratio(num, den string, scale float64) func(*layerAcc) float64 {
	return func(a *layerAcc) float64 {
		if a.sum[den] == 0 {
			return 0
		}
		return scale * a.sum[num] / a.sum[den]
	}
}

func medianOf(key string) func(*layerAcc) float64 {
	return func(a *layerAcc) float64 { return median(a.samples[key]) }
}

// layerDefs lists every per-layer metric except tracing_overhead_pct,
// which compares windows rather than reading the accumulator. Raw
// accumulator keys that are not metrics themselves start with "raw.".
var layerDefs = []layerDef{
	// replset/fuzzer capture and trace post-processing (mbtc-rollback).
	{"replset.capture_s", "s", perRound("replset.capture_s")},
	{"trace.process_s", "s", perRound("trace.process_s")},
	{"trace.events", "count", perRound("trace.events")},
	// The trace checker (mbtc-rollback).
	{"tla.tracecheck_s", "s", perRound("tla.tracecheck_s")},
	{"tla.tracecheck.frontier_sum", "count", perRound("tla.tracecheck.frontier_sum")},
	{"tla.tracecheck.frontier_max", "count", maxOf("tla.tracecheck.frontier_max")},
	{"tla.tracecheck.match_ratio", "ratio", ratio("raw.match_true", "raw.match_calls", 1)},
	{"tla.tracecheck.us_per_frontier_state.q1", "us", ratio("raw.q1_ns", "raw.q1_frontier", 1e-3)},
	{"tla.tracecheck.us_per_frontier_state.q4", "us", ratio("raw.q4_ns", "raw.q4_frontier", 1e-3)},
	{"mbtc.match_cpu_s", "s", perRound("mbtc.match_cpu_s")},
	// The raftmongo spec (mbtc-rollback, check-raftmongo-v2).
	{"raftmongo.next_cpu_s", "s", perRound("raftmongo.next_cpu_s")},
	{"raftmongo.next_calls", "count", perRound("raftmongo.next_calls")},
	{"raftmongo.successors", "count", perRound("raftmongo.successors")},
	{"raftmongo.ns_per_successor", "ns", ratio("raftmongo.next_cpu_s", "raftmongo.successors", 1e9)},
	// The model-checking engine (check-raftmongo-v2, mbtcg-arrayot).
	{"tla.distinct", "count", perRound("tla.distinct")},
	{"tla.transitions", "count", perRound("tla.transitions")},
	{"tla.depth", "count", maxOf("tla.depth")},
	{"tla.invariant_cpu_s", "s", perRound("tla.invariant_cpu_s")},
	{"tla.engine_cpu_s", "s", perRound("tla.engine_cpu_s")},
	{"tla.cpu_utilization", "ratio", ratio("raw.engine_process_cpu_s", "raw.engine_capacity_s", 1)},
	{"tla.worker_claims", "count", perRound("tla.worker_claims")},
	{"tla.level_width_max", "count", maxOf("tla.level_width_max")},
	// The Go runtime, over whole operations (every workload).
	{"runtime.allocs_per_unit", "count", ratio("raw.allocs", "raw.units", 1)},
	{"runtime.alloc_bytes_per_unit", "B", ratio("raw.alloc_bytes", "raw.units", 1)},
	{"runtime.gc_cpu_s", "s", perRound("runtime.gc_cpu_s")},
	// Graph recording, the DOT boundary and the OT implementations
	// (mbtcg-arrayot).
	{"tla.graph_check_s", "s", perRound("tla.graph_check_s")},
	{"tla.dot_write_s", "s", perRound("tla.dot_write_s")},
	{"tla.dot_bytes", "B", perRound("tla.dot_bytes")},
	{"mbtcg.from_dot_s", "s", perRound("mbtcg.from_dot_s")},
	{"arrayot.next_cpu_s", "s", perRound("arrayot.next_cpu_s")},
	{"ot.run_s", "s", perRound("ot.run_s")},
	{"otgo.run_s", "s", perRound("otgo.run_s")},
	// The checkd service (checkd-jobs).
	{"checkd.submit_us", "us", medianOf("checkd.submit_us")},
	{"checkd.queue_wait_ms", "ms", medianOf("checkd.queue_wait_ms")},
	{"checkd.run_ms", "ms", medianOf("checkd.run_ms")},
	{"checkd.raw_check_ms", "ms", medianOf("checkd.raw_check_ms")},
	{"checkd.overhead_ratio", "ratio", func(a *layerAcc) float64 {
		raw := median(a.samples["checkd.raw_check_ms"])
		if raw == 0 {
			return 0
		}
		return median(a.samples["checkd.run_ms"]) / raw
	}},
	{"checkd.cache_hit_ratio", "ratio", ratio("raw.cache_hits", "raw.resubmits", 1)},
	{"checkd.cached_p50_us", "us", medianOf("checkd.cached_us")},
}

// metrics evaluates every layerDef.
func (a *layerAcc) metrics() map[string]metric {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]metric, len(layerDefs)+1)
	for _, d := range layerDefs {
		out[d.name] = metric{d.value(a), d.unit}
	}
	return out
}

// counter is an atomic counter alone on its cache line, so checker
// workers updating different counters do not slow each other down.
type counter struct {
	atomic.Int64
	_ [56]byte
}

// timerSample is the sampling period of a sampledTimer.
const timerSample = 8

// sampledTimer counts every call exactly and times one call in
// timerSample, charging it timerSample times its duration. Two clock reads
// on every call would cost a good share of a cheap Next or Matches.
type sampledTimer struct {
	calls, ns counter
}

// start counts a call and, for a sampled one, returns its start time.
func (t *sampledTimer) start() (time.Time, bool) {
	if t.calls.Add(1)%timerSample != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (t *sampledTimer) stop(start time.Time, sampled bool) {
	if sampled {
		t.ns.Add(timerSample * int64(time.Since(start)))
	}
}

func (t *sampledTimer) seconds() float64 { return float64(t.ns.Load()) / 1e9 }

// specShim counts and times a spec's Next and invariant calls. The
// counters are atomics because Next runs on every checker worker.
type specShim struct {
	next, inv  sampledTimer
	successors counter
}

// wrapSpec returns a copy of spec whose actions and invariants report into
// sh. Names and order are kept, so the checker's results are unchanged.
func wrapSpec[S tla.State](spec *tla.Spec[S], sh *specShim) *tla.Spec[S] {
	w := *spec
	w.Actions = make([]tla.Action[S], len(spec.Actions))
	for i, a := range spec.Actions {
		next := a.Next
		w.Actions[i] = tla.Action[S]{Name: a.Name, Next: func(s S) []S {
			start, sampled := sh.next.start()
			out := next(s)
			sh.next.stop(start, sampled)
			sh.successors.Add(int64(len(out)))
			return out
		}}
	}
	w.Invariants = make([]tla.Invariant[S], len(spec.Invariants))
	for i, inv := range spec.Invariants {
		check := inv.Check
		w.Invariants[i] = tla.Invariant[S]{Name: inv.Name, Check: func(s S) error {
			start, sampled := sh.inv.start()
			err := check(s)
			sh.inv.stop(start, sampled)
			return err
		}}
	}
	return &w
}

// report adds the shim's totals to the accumulator under the spec layer's
// name ("raftmongo" or "arrayot") and returns the spec's own CPU seconds.
func (sh *specShim) report(a *layerAcc, layer string) float64 {
	next, inv := sh.next.seconds(), sh.inv.seconds()
	a.add(layer+".next_cpu_s", next)
	if layer == "raftmongo" {
		a.add("raftmongo.next_calls", float64(sh.next.calls.Load()))
		a.add("raftmongo.successors", float64(sh.successors.Load()))
	}
	a.add("tla.invariant_cpu_s", inv)
	return next + inv
}

// obsShim wraps a trace observation, counting and timing Matches calls.
type obsShim[S tla.State] struct {
	inner tla.Observation[S]
	c     *matchCounters
}

type matchCounters struct {
	timer sampledTimer
	hits  counter
}

func (o obsShim[S]) Matches(s S) bool {
	start, sampled := o.c.timer.start()
	ok := o.inner.Matches(s)
	o.c.timer.stop(start, sampled)
	if ok {
		o.c.hits.Add(1)
	}
	return ok
}

func (o obsShim[S]) String() string { return o.inner.String() }

// rtSample is a reading of the process's allocation and CPU counters.
type rtSample struct {
	allocs, allocBytes float64
	gcCPU              float64
	cpu                float64 // user+system seconds of the whole process
}

var rtNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return rtSample{allocs: val(ms[0]), allocBytes: val(ms[1]), gcCPU: val(ms[2]), cpu: processCPU()}
}

// addRuntime charges the allocation and GC work between two readings to
// units of work.
func (a *layerAcc) addRuntime(before, after rtSample, units float64) {
	a.add("raw.allocs", after.allocs-before.allocs)
	a.add("raw.alloc_bytes", after.allocBytes-before.allocBytes)
	a.add("raw.units", units)
	a.add("runtime.gc_cpu_s", after.gcCPU-before.gcCPU)
}

// addEngineCPU charges a checker call: the process CPU it took, less the
// spec's own CPU, is the engine's; utilization is CPU over the wall time
// of GOMAXPROCS processors.
func (a *layerAcc) addEngineCPU(before, after rtSample, wall time.Duration, specCPU float64) {
	cpu := after.cpu - before.cpu
	a.add("tla.engine_cpu_s", cpu-specCPU)
	a.add("raw.engine_process_cpu_s", cpu)
	a.add("raw.engine_capacity_s", wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// startOperation returns the heap's free memory to the OS and restarts
// the peak-RSS count, so each operation starts from the same heap and
// peakRSSMB reads the operation's own peak.
func startOperation() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS. Where the
	// kernel does not allow it, peakRSSMB reads the process's peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size since startOperation: VmHWM, or
// the process's lifetime peak where /proc is not available.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if n, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64); err == nil {
					return n / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostContext is recorded in every output: the context line of the
// result and the first line of a spans file.
func hostContext(s settings) map[string]any {
	ctx := map[string]any{
		"workload":   s.workload,
		"seed":       s.seed,
		"size":       map[bool]string{false: "full", true: "tiny"}[s.tiny],
		"trace":      s.trace,
		"seconds":    s.seconds,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    s.workers,
		"go_version": runtime.Version(),
		"commit":     s.commit,
	}
	if s.workload == "mbtc-rollback" {
		ctx["fuzz_seeds"] = rollbackBasket(s.seed, s.fuzzSeeds)
	}
	return ctx
}
