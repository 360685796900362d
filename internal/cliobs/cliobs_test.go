package cliobs

import (
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mbtc"
	"repro/internal/tla"
)

// fixedClock hands Observe a deterministic timeline so the states/sec
// derivative is exact.
func fixedClock(times ...time.Time) func() time.Time {
	i := 0
	return func() time.Time {
		t := times[i]
		if i < len(times)-1 {
			i++
		}
		return t
	}
}

func TestObserveLineAndDerivative(t *testing.T) {
	var sb strings.Builder
	p := NewPrinter(&sb, "minitlc", 0)
	t0 := time.Unix(100, 0)
	p.now = fixedClock(t0, t0.Add(2*time.Second))

	p.Observe(tla.Progress{Distinct: 100, Frontier: 10, Depth: 3})
	p.Observe(tla.Progress{Distinct: 300, Frontier: 20, Depth: 5, SpillBytes: 2048})

	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), sb.String())
	}
	// The first observation has no previous snapshot: rate 0.
	want0 := "minitlc: progress: distinct=100 frontier=10 depth=3 states/s=0 spill=0B"
	if lines[0] != want0 {
		t.Fatalf("line 0 = %q, want %q", lines[0], want0)
	}
	// 200 new states over 2 s = 100 states/s.
	want1 := "minitlc: progress: distinct=300 frontier=20 depth=5 states/s=100 spill=2.0KiB"
	if lines[1] != want1 {
		t.Fatalf("line 1 = %q, want %q", lines[1], want1)
	}
}

func TestObserveHeadroomClampsAtZero(t *testing.T) {
	var sb strings.Builder
	p := NewPrinter(&sb, "t", 1<<20)
	p.Observe(tla.Progress{ResidentBytes: 1 << 19})
	p.Observe(tla.Progress{ResidentBytes: 3 << 20}) // over budget: headroom floors at 0
	out := sb.String()
	if !strings.Contains(out, "headroom=512.0KiB") {
		t.Fatalf("missing headroom in:\n%s", out)
	}
	if !strings.Contains(out, "headroom=0B") {
		t.Fatalf("over-budget headroom not clamped to zero:\n%s", out)
	}
}

func TestObserveTraceLine(t *testing.T) {
	var sb strings.Builder
	p := NewPrinter(&sb, "mbtc", 0)
	t0 := time.Unix(7, 0)
	p.now = fixedClock(t0, t0.Add(time.Second))
	p.ObserveTrace(tla.TraceProgress{Step: 5, Total: 40, Frontier: 3})
	p.ObserveTrace(tla.TraceProgress{Step: 25, Total: 40, Frontier: 1})
	want := "mbtc: progress: step=5/40 frontier=3 steps/s=0\n" +
		"mbtc: progress: step=25/40 frontier=1 steps/s=20\n"
	if sb.String() != want {
		t.Fatalf("output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestBytes(t *testing.T) {
	cases := map[int64]string{
		0:       "0B",
		512:     "512B",
		1 << 10: "1.0KiB",
		1536:    "1.5KiB",
		1 << 20: "1.0MiB",
		1 << 30: "1.0GiB",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Fatalf("Bytes(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestRunFlags pins the shared flag layer: the model-checking set adds
// -mem-budget and -journal to the three flags every checking CLI takes,
// and the parsed values land in the engine and trace options.
func TestRunFlags(t *testing.T) {
	var trace RunFlags
	tfs := flag.NewFlagSet("mbtc", flag.ContinueOnError)
	trace.Register(tfs, "trace-checker", false)
	if tfs.Lookup("mem-budget") != nil || tfs.Lookup("journal") != nil {
		t.Fatal("trace CLIs registered model-checking flags")
	}
	if err := tfs.Parse([]string{"-workers", "3", "-deadline", "1h", "-progress-every", "1s"}); err != nil {
		t.Fatal(err)
	}
	topts := trace.TraceOptions("mbtc", tla.TraceOptions{})
	if topts.Workers != 3 || topts.Deadline.IsZero() || topts.ProgressEvery != time.Second || topts.Progress == nil {
		t.Fatalf("trace options = %+v", topts)
	}

	var engine RunFlags
	efs := flag.NewFlagSet("minitlc", flag.ContinueOnError)
	engine.Register(efs, "checker", true)
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	if err := efs.Parse([]string{"-workers", "2", "-mem-budget", "4096", "-journal", journal}); err != nil {
		t.Fatal(err)
	}
	opts, closeJournal, err := engine.EngineOptions("minitlc", tla.Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 2 || opts.MemoryBudgetBytes != 4096 || opts.JournalWriter == nil || !opts.RecordGraph ||
		!opts.Deadline.IsZero() || opts.Progress != nil {
		t.Fatalf("engine options = %+v", opts)
	}
	if err := closeJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestPrintTraceReport pins the trace CLIs' verdict lines.
func TestPrintTraceReport(t *testing.T) {
	var sb strings.Builder
	if err := PrintTraceReport(&sb, "scenario", "v2", &mbtc.Report{Events: 4, MaxFrontier: 2, OK: true}, nil); err != nil {
		t.Fatal(err)
	}
	if err := PrintTraceReport(&sb, "scenario", "v1", &mbtc.Report{Events: 4, FailedStep: 3, FailedEvent: "e3"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := PrintTraceReport(&sb, "scenario", "v2", &mbtc.Report{Events: 4, Checked: 2, Interrupted: true}, tla.ErrInterrupted); err != nil {
		t.Fatalf("interrupted check = %v, want a clean partial run", err)
	}
	want := "scenario against RaftMongo v2: 4 trace events, 0 oplog prefix fills, max frontier 2\n" +
		"MBTC PASS: the trace is a behaviour of the specification\n" +
		"scenario against RaftMongo v1: 4 trace events, 0 oplog prefix fills, max frontier 0\n" +
		"MBTC FAIL: trace diverges at step 3 of 4 (e3)\n" +
		"scenario against RaftMongo v2: interrupted after matching 2 of 4 trace events (no divergence so far)\n"
	if sb.String() != want {
		t.Fatalf("output:\n%s\nwant:\n%s", sb.String(), want)
	}
	boom := errors.New("boom")
	if err := PrintTraceReport(&sb, "scenario", "v2", nil, boom); err != boom {
		t.Fatalf("failed check = %v, want the error passed through", err)
	}
	if _, err := TraceSpec("v3", 3); err == nil {
		t.Fatal("TraceSpec accepted an unknown variant")
	}
}
