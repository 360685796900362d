// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload — one of the paper's pipelines (MBTC trace
// checking, MBTCG test generation), model checking at the paper's
// configuration, or the checkd job service — for a fixed time, checks
// every result against its correctness gate, and prints one JSON result
// line. With -trace 1 it instead alternates untraced and traced windows
// and reports how the workload's time splits across the layers it calls.
// README.md describes the workloads, the metrics and how to read a trace.
//
//	bash perfbench/run.sh --workload check-raftmongo-v2 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// settings is one invocation's command line.
type settings struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	tiny      bool
	workers   int // checker workers and checkd clients: nproc
	outDir    string
	commit    string
	fuzzSeeds []int64
}

// metric is one entry of the result line's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parseSettings(args []string, stderr io.Writer) (settings, error) {
	var s settings
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&s.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&s.seed, "seed", 7, "workload seed")
	fs.Float64Var(&s.seconds, "seconds", 20, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	size := fs.String("size", "full", "input size: full (the paper's configurations) or tiny (self-test)")
	fs.StringVar(&s.outDir, "out", "", "directory for run files and spans (default $CARGO_TARGET_DIR or .bench_build, under perfbench-out)")
	fs.StringVar(&s.commit, "commit", "unknown", "commit being measured, recorded in the context line")
	fuzz := fs.String("fuzz-seeds", "", "comma-separated rollback-fuzzer seeds replacing mbtc-rollback's basket (held-out seeds)")
	if err := fs.Parse(args); err != nil {
		return s, err
	}
	s.trace = *traceFlag == 1
	s.workers = runtime.NumCPU()
	switch *size {
	case "full":
	case "tiny":
		s.tiny = true
	default:
		return s, fmt.Errorf("unknown -size %q", *size)
	}
	if lookupWorkload(s.workload) == nil {
		return s, fmt.Errorf("unknown -workload %q (want one of %s)", s.workload, strings.Join(workloadNames(), ", "))
	}
	if s.seconds <= 0 {
		return s, errors.New("-seconds must be positive")
	}
	if *fuzz != "" {
		for _, f := range strings.Split(*fuzz, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return s, fmt.Errorf("-fuzz-seeds: %w", err)
			}
			s.fuzzSeeds = append(s.fuzzSeeds, n)
		}
	}
	if s.outDir == "" {
		base := os.Getenv("CARGO_TARGET_DIR")
		if base == "" {
			base = ".bench_build"
		}
		s.outDir = filepath.Join(base, "perfbench-out")
	}
	return s, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	s, err := parseSettings(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(s, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench sets the workload up, runs its gates and measures it.
func bench(s settings, stdout, stderr io.Writer) (*result, error) {
	runDir := filepath.Join(s.outDir, fmt.Sprintf("%s-seed%d-pid%d", s.workload, s.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	p := params{seed: s.seed, tiny: s.tiny, workers: s.workers, dir: runDir, fuzzSeeds: s.fuzzSeeds}
	w := lookupWorkload(s.workload)

	ctx := hostContext(s)
	if err := printJSONLine(stdout, map[string]any{"context": ctx}); err != nil {
		return nil, err
	}

	reps := setupReps
	if s.tiny {
		reps = tinySetupReps
	}
	inst, setupSecs, err := setUp(w, p, reps)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer func() {
		if err := inst.close(); err != nil {
			fmt.Fprintln(stderr, "perfbench: closing the workload:", err)
		}
	}()

	var tally tally
	for _, err := range inst.controls() {
		tally.attempted++
		if err != nil {
			tally.fail(err)
		}
	}

	res := &result{Metrics: map[string]metric{}}
	if !s.trace {
		win, err := inst.measure(time.Now().Add(seconds(s.seconds)), nil)
		if err != nil {
			return nil, err
		}
		tally.add(win)
		res.Metrics = endToEnd(win, setupSecs)
		fmt.Fprintf(stdout, "%s: %s = %.6g %s over %d operations; p50 %.4g ms, p90 %.4g ms (%d samples)\n",
			w.name, w.rateName, res.Metrics["throughput_per_s"].Value, w.unitName, win.attempted,
			res.Metrics["latency_p50_ms"].Value, res.Metrics["latency_p90_ms"].Value, len(win.latMs))
	} else {
		layersOut, err := traced(s, inst, &tally, ctx, stdout)
		if err != nil {
			return nil, err
		}
		res.Metrics = layersOut
	}
	for _, msg := range tally.messages {
		fmt.Fprintln(stderr, "perfbench: gate failed:", msg)
	}
	res.Attempted, res.Failed = tally.attempted, tally.failed
	res.Correct = tally.failed == 0 && tally.attempted > 0
	return res, nil
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median. A set-up takes 30–300 ms, so a few repetitions would let a
// short burst of host noise move the median. The tiny size saves time.
const (
	setupReps     = 15
	tinySetupReps = 2
)

// setUp builds the workload n times, timing each build, and keeps the
// last instance. Everything a run needs before its first timed operation
// happens here, including a warm-up at a small size, so work moved out of
// the measured operations shows up in setup_s.
func setUp(w *workload, p params, n int) (instance, float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < n; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(p)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, median(times), nil
}

// endToEnd derives the end-to-end metrics of an untraced window.
func endToEnd(win *window, setupSecs float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupSecs, "s"},
		"throughput_per_s": {median(win.rates), "1/s"},
		"latency_p50_ms":   {median(win.latMs), "ms"},
		"latency_p90_ms":   {quantile(win.latMs, 0.9), "ms"},
		"peak_rss_mb":      {median(win.peakMB), "MB"},
	}
}

// traced alternates untraced and traced windows, two of each, so slow
// drift of the host weighs on both sides alike, then reports the per-layer
// metrics of the traced windows and the tracing overhead between them.
func traced(s settings, inst instance, t *tally, ctx map[string]any, stdout io.Writer) (map[string]metric, error) {
	tr := newTracer()
	var plain, withTrace []*window
	quarter := seconds(s.seconds / 4)
	for i := 0; i < 4; i++ {
		var rec *tracer
		if i%2 == 1 {
			rec = tr
		}
		win, err := inst.measure(time.Now().Add(quarter), rec)
		if err != nil {
			return nil, err
		}
		t.add(win)
		if rec == nil {
			plain = append(plain, win)
		} else {
			withTrace = append(withTrace, win)
		}
	}
	out := tr.layers.metrics()
	perUnit := func(ws []*window) float64 {
		var busy time.Duration
		var units float64
		for _, w := range ws {
			busy += w.busy
			units += w.units
		}
		return busy.Seconds() / units
	}
	out["tracing_overhead_pct"] = metric{100 * (perUnit(withTrace)/perUnit(plain) - 1), "%"}

	spansPath := filepath.Join(s.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.workload, s.seed))
	if err := tr.write(spansPath, ctx); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s: %d spans written to %s; tracing overhead %.2f%%\n",
		s.workload, tr.len(), spansPath, out["tracing_overhead_pct"].Value)
	return out, nil
}

// tally counts attempted and failed operations across windows.
type tally struct {
	attempted, failed int
	messages          []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.messages) < 10 {
		t.messages = append(t.messages, err.Error())
	}
}

func (t *tally) add(w *window) {
	t.attempted += w.attempted
	for _, err := range w.failures {
		t.fail(err)
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func printJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least a q share of the samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
