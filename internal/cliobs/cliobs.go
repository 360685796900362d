// Package cliobs is the command-line tools' shared glue: the run-control
// flags every checking CLI takes (RunFlags), the signal context that makes
// runs interruptible, the one-line progress reports on stderr (Printer),
// and the trace CLIs' spec-variant switch and verdict report. Status goes
// to stderr only, newline-terminated, so the CLIs' primary stdout output
// (verdicts, DOT graphs, JSON) is never corrupted and remains pipeable.
package cliobs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/mbtc"
	"repro/internal/raftmongo"
	"repro/internal/tla"
)

// SignalContext returns a context canceled by the first SIGINT or SIGTERM,
// so a run winds down cooperatively at its next stop point (partial
// statistics, and a checkpoint when one is configured). stop restores the
// default handling: a second signal kills the process the usual way.
func SignalContext() (ctx context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// RunFlags are the run-control flags the checking CLIs share: -workers,
// -deadline and -progress-every everywhere, plus -mem-budget and -journal
// on the model-checking CLIs.
type RunFlags struct {
	Workers       int
	Deadline      time.Duration
	ProgressEvery time.Duration
	MemBudget     int64
	Journal       string
}

// Register registers the shared flags on fs. checker names what -workers
// parallelizes ("checker", "trace-checker"); engine adds -mem-budget and
// -journal, which only model-checking runs have.
func (f *RunFlags) Register(fs *flag.FlagSet, checker string, engine bool) {
	fs.IntVar(&f.Workers, "workers", 0, checker+" worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	fs.DurationVar(&f.Deadline, "deadline", 0, "wall-clock bound on the run, e.g. 90s or 10m (0 = none); an over-deadline run stops like an interrupt")
	fs.DurationVar(&f.ProgressEvery, "progress-every", 0, "print a one-line status to stderr this often, e.g. 5s (0 = off)")
	if engine {
		fs.Int64Var(&f.MemBudget, "mem-budget", 0, "approximate resident bytes of the visited set, and of the retained-state arena, before each spills to disk (0 = fully resident)")
		fs.StringVar(&f.Journal, "journal", "", "append the run journal (JSONL, one event per BFS level plus checkpoint/retry/degrade/verdict) to this file")
	}
}

// EngineOptions applies the flags to a model-checking run of tool: worker
// count, memory budget, deadline, the stderr progress printer, and the
// -journal file, opened for appending and released by the returned close.
func (f *RunFlags) EngineOptions(tool string, opts tla.Options) (tla.Options, func() error, error) {
	opts.Workers = f.Workers
	opts.MemoryBudgetBytes = f.MemBudget
	if f.Deadline > 0 {
		opts.Deadline = time.Now().Add(f.Deadline)
	}
	if f.ProgressEvery > 0 {
		opts.Progress = NewPrinter(os.Stderr, tool, f.MemBudget).Observe
		opts.ProgressEvery = f.ProgressEvery
	}
	if f.Journal == "" {
		return opts, func() error { return nil }, nil
	}
	jf, err := os.OpenFile(f.Journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return opts, nil, fmt.Errorf("opening journal: %w", err)
	}
	opts.JournalWriter = jf
	return opts, jf.Close, nil
}

// TraceOptions applies the flags to a trace-checking run of tool.
func (f *RunFlags) TraceOptions(tool string, topts tla.TraceOptions) tla.TraceOptions {
	topts.Workers = f.Workers
	if f.Deadline > 0 {
		topts.Deadline = time.Now().Add(f.Deadline)
	}
	if f.ProgressEvery > 0 {
		topts.Progress = NewPrinter(os.Stderr, tool, 0).ObserveTrace
		topts.ProgressEvery = f.ProgressEvery
	}
	return topts
}

// TraceSpec returns the RaftMongo variant a captured trace of an n-node
// replica set is checked against: "v1" (global term) or "v2" (gossiped
// terms).
func TraceSpec(variant string, nodes int) (*tla.Spec[raftmongo.State], error) {
	cfg := mbtc.CheckConfig(nodes)
	switch variant {
	case "v1":
		return raftmongo.SpecV1(cfg), nil
	case "v2":
		return raftmongo.SpecV2(cfg), nil
	}
	return nil, fmt.Errorf("unknown spec variant %q", variant)
}

// PrintTraceReport prints the outcome of checking label's trace against
// RaftMongo variant: the partial result of an interrupted check, or the
// summary line and the MBTC PASS/FAIL verdict. An interrupted check is a
// successful partial run; any other error is returned.
func PrintTraceReport(w io.Writer, label, variant string, rep *mbtc.Report, err error) error {
	if err != nil {
		if rep != nil && rep.Interrupted && errors.Is(err, tla.ErrInterrupted) {
			fmt.Fprintf(w, "%s against RaftMongo %s: interrupted after matching %d of %d trace events (no divergence so far)\n",
				label, variant, rep.Checked, rep.Events)
			return nil
		}
		return err
	}
	fmt.Fprintf(w, "%s against RaftMongo %s: %d trace events, %d oplog prefix fills, max frontier %d\n",
		label, variant, rep.Events, rep.PrefixFills, rep.MaxFrontier)
	if rep.OK {
		fmt.Fprintln(w, "MBTC PASS: the trace is a behaviour of the specification")
		return nil
	}
	fmt.Fprintf(w, "MBTC FAIL: trace diverges at step %d of %d (%s)\n", rep.FailedStep, rep.Events, rep.FailedEvent)
	return nil
}

// Printer renders progress snapshots for one tool. The zero value is not
// usable; construct with NewPrinter. Observe is safe to use as
// Options.Progress under either delivery contract (it locks internally,
// and the engine never calls Progress concurrently with itself).
type Printer struct {
	w    io.Writer
	tool string
	// budget is Options.MemoryBudgetBytes; when positive the status line
	// includes the remaining headroom before the next spill.
	budget int64

	mu     sync.Mutex
	prev   int       // previous snapshot's Distinct
	prevAt time.Time // and when it was taken, for the states/sec derivative
	now    func() time.Time
}

// NewPrinter returns a Printer writing `tool: progress: ...` lines to w
// (conventionally os.Stderr).
func NewPrinter(w io.Writer, tool string, budget int64) *Printer {
	return &Printer{w: w, tool: tool, budget: budget, now: time.Now}
}

// Observe renders one engine snapshot. States/sec is the derivative
// against the previous observation, so the first line reports 0.
func (p *Printer) Observe(prog tla.Progress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	var rate float64
	if dt := now.Sub(p.prevAt).Seconds(); !p.prevAt.IsZero() && dt > 0 {
		rate = float64(prog.Distinct-p.prev) / dt
	}
	p.prev, p.prevAt = prog.Distinct, now

	line := fmt.Sprintf("%s: progress: distinct=%d frontier=%d depth=%d states/s=%.0f spill=%s",
		p.tool, prog.Distinct, prog.Frontier, prog.Depth, rate, Bytes(prog.SpillBytes))
	if p.budget > 0 {
		head := p.budget - prog.ResidentBytes
		if head < 0 {
			head = 0
		}
		line += fmt.Sprintf(" headroom=%s", Bytes(head))
	}
	fmt.Fprintln(p.w, line)
}

// ObserveTrace renders one trace-checker snapshot (TraceOptions.Progress).
func (p *Printer) ObserveTrace(tp tla.TraceProgress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	var rate float64
	if dt := now.Sub(p.prevAt).Seconds(); !p.prevAt.IsZero() && dt > 0 {
		rate = float64(tp.Step-p.prev) / dt
	}
	p.prev, p.prevAt = tp.Step, now
	fmt.Fprintf(p.w, "%s: progress: step=%d/%d frontier=%d steps/s=%.0f\n",
		p.tool, tp.Step, tp.Total, tp.Frontier, rate)
}

// Bytes renders a byte count compactly (4.0KiB, 1.2MiB); counts under a
// kibibyte print as plain integers.
func Bytes(n int64) string {
	const (
		kib = 1 << 10
		mib = 1 << 20
		gib = 1 << 30
	)
	switch {
	case n >= gib:
		return fmt.Sprintf("%.1fGiB", float64(n)/gib)
	case n >= mib:
		return fmt.Sprintf("%.1fMiB", float64(n)/mib)
	case n >= kib:
		return fmt.Sprintf("%.1fKiB", float64(n)/kib)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
