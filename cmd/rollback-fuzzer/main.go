// Command rollback-fuzzer runs the randomized replica-set test of §4.1
// standalone: partitions, elections, restarts and random writes against a
// (optionally traced) replica set, writing per-node trace logs to files —
// one log file per node, as each mongod writes its own. With -check the
// captured trace is additionally merged and model-based trace-checked
// against the RaftMongo specification (the Figure 1 pipeline's checking
// half, in-process), with the trace checker's knobs: -workers, -deadline
// and -progress-every.
//
// Usage:
//
//	rollback-fuzzer [-steps 8400] [-seed 7] [-nodes 3] [-out dir] [-flawed] [-sync-before-writes] \
//	                [-check] [-spec v2] [-workers N] [-deadline DUR] [-progress-every DUR]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cliobs"
	"repro/internal/fuzzer"
	"repro/internal/mbtc"
	"repro/internal/replset"
	"repro/internal/tla"
	"repro/internal/trace"
)

func main() {
	var (
		steps     = flag.Int("steps", 8400, "fuzzer steps")
		seed      = flag.Int64("seed", 7, "random seed")
		nodes     = flag.Int("nodes", 3, "replica-set size")
		outDir    = flag.String("out", "", "directory for per-node trace logs (tracing off when empty, unless -check)")
		flawed    = flag.Bool("flawed", false, "flawed initial-sync quorum + recent-only initial sync")
		syncFirst = flag.Bool("sync-before-writes", false, "fully sync all followers before writes begin")
		check     = flag.Bool("check", false, "trace-check the captured run against the RaftMongo specification")
		specVar   = flag.String("spec", "v2", "specification variant for -check: v1 (global term) or v2 (gossiped terms)")
		rf        cliobs.RunFlags
	)
	rf.Register(flag.CommandLine, "trace-checker (-check)", false)
	flag.Parse()
	// First signal stops the trace checker cooperatively (the fuzzer run
	// itself is short); a second one kills the process normally.
	ctx, stop := cliobs.SignalContext()
	defer stop()
	if err := run(ctx, *steps, *seed, *nodes, *outDir, *flawed, *syncFirst, *check, *specVar, rf); err != nil {
		fmt.Fprintln(os.Stderr, "rollback-fuzzer:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, steps int, seed int64, nodes int, outDir string, flawed, syncFirst, check bool, specVar string, rf cliobs.RunFlags) error {
	switch {
	case steps < 0:
		return fmt.Errorf("-steps %d: negative fuzzer step count", steps)
	case nodes < 1:
		return fmt.Errorf("-nodes %d: a replica set needs at least one node", nodes)
	}
	topts := rf.TraceOptions("rollback-fuzzer", tla.TraceOptions{Context: ctx})
	if err := topts.Validate(); err != nil {
		return err
	}
	cfg := replset.Config{
		Nodes:                   nodes,
		Seed:                    seed,
		RecentOnlyInitialSync:   flawed,
		FlawedInitialSyncQuorum: flawed,
	}
	var (
		files []*os.File
		bufs  []*bytes.Buffer
	)
	if outDir != "" || check {
		sinks := make([]io.Writer, nodes)
		if check {
			bufs = make([]*bytes.Buffer, nodes)
			for i := range bufs {
				bufs[i] = &bytes.Buffer{}
				sinks[i] = bufs[i]
			}
		}
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			for i := 0; i < nodes; i++ {
				f, err := os.Create(filepath.Join(outDir, fmt.Sprintf("node%d.log", i)))
				if err != nil {
					return err
				}
				files = append(files, f)
				if sinks[i] != nil {
					sinks[i] = io.MultiWriter(f, sinks[i])
				} else {
					sinks[i] = f
				}
			}
		}
		cfg.TraceSinks = sinks
	}
	c, err := replset.New(cfg)
	if err != nil {
		return err
	}
	fcfg := fuzzer.RollbackConfig{
		Seed:             seed,
		Nodes:            nodes,
		Steps:            steps,
		SyncBeforeWrites: syncFirst,
		AllowRestarts:    true,
		AllowElections:   true,
	}
	rep, err := fuzzer.FuzzRollback(fcfg, c)
	for _, f := range files {
		f.Close()
	}
	if err != nil {
		return err
	}
	fmt.Printf("rollback_fuzzer: %d steps, %d writes, %d elections, %d partitions, %d restarts, %d trace events (paper run: 2,683 events)\n",
		rep.Steps, rep.Writes, rep.Elections, rep.Partitions, rep.Restarts, c.EventCount())
	if outDir != "" {
		fmt.Printf("trace logs in %s\n", outDir)
	}
	if !check {
		return nil
	}
	return checkTrace(nodes, bufs, specVar, topts)
}

// checkTrace merges the per-node logs and runs the trace checker — the
// same path mbtc -fuzz takes, minus the second fuzzer run.
func checkTrace(nodes int, bufs []*bytes.Buffer, specVar string, topts tla.TraceOptions) error {
	streams := make([][]trace.Event, nodes)
	for i, b := range bufs {
		evs, err := trace.ReadEvents(bytes.NewReader(b.Bytes()))
		if err != nil {
			return err
		}
		streams[i] = evs
	}
	merged, err := trace.Merge(streams)
	if err != nil {
		return err
	}
	spec, err := cliobs.TraceSpec(specVar, nodes)
	if err != nil {
		return err
	}
	crep, err := mbtc.CheckEventsOpts(nodes, merged, spec, topts)
	return cliobs.PrintTraceReport(os.Stdout, "trace check", specVar, crep, err)
}
