// Command minitlc is the repository's TLC stand-in: it model-checks one of
// the bundled specifications, prints state-space statistics and any
// invariant violation with its counterexample, and can dump the reachable
// state graph as GraphViz DOT.
//
// Long runs are interruptible and resumable: ^C (or SIGTERM) stops the
// checker cooperatively and prints the partial statistics; with
// -checkpoint DIR the interrupted run also seals its state to DIR, and
// -resume DIR continues it later with a verdict and counts identical to an
// uninterrupted run. -checkpoint-every N additionally seals a checkpoint
// every N BFS levels, so even a killed process loses at most N levels.
//
// Usage:
//
//	minitlc -spec raftmongo-v1|raftmongo-v2|arrayot|locking \
//	        [-nodes 3] [-max-term 3] [-max-log 3] [-actors 2] \
//	        [-dot out.dot] [-liveness] [-workers N] [-symmetry] [-por] [-mem-budget BYTES] \
//	        [-checkpoint DIR] [-checkpoint-every N] [-resume DIR] [-deadline DUR] \
//	        [-progress-every DUR] [-journal FILE]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/arrayot"
	"repro/internal/cliobs"
	"repro/internal/locking"
	"repro/internal/raftmongo"
	"repro/internal/tla"
)

// specConfig is every flag that shapes the explored state space; a resumed
// run must use the checkpointing run's values, so they round-trip through
// the checkpoint's metadata blob.
type specConfig struct {
	specName string
	nodes    int
	maxTerm  int
	maxLog   int
	actors   int
	symmetry bool
	por      bool
}

func (c specConfig) meta() map[string]string {
	return map[string]string{
		"spec":     c.specName,
		"nodes":    strconv.Itoa(c.nodes),
		"max-term": strconv.Itoa(c.maxTerm),
		"max-log":  strconv.Itoa(c.maxLog),
		"actors":   strconv.Itoa(c.actors),
		"symmetry": strconv.FormatBool(c.symmetry),
		"por":      strconv.FormatBool(c.por),
	}
}

func configFromMeta(meta map[string]string) (specConfig, error) {
	var c specConfig
	var ok bool
	if c.specName, ok = meta["spec"]; !ok {
		return c, errors.New("checkpoint metadata is missing the spec name (not written by minitlc?)")
	}
	var err error
	atoi := func(key string) int {
		if err != nil {
			return 0
		}
		v, aerr := strconv.Atoi(meta[key])
		if aerr != nil {
			err = fmt.Errorf("checkpoint metadata %s=%q: %v", key, meta[key], aerr)
		}
		return v
	}
	c.nodes, c.maxTerm, c.maxLog, c.actors = atoi("nodes"), atoi("max-term"), atoi("max-log"), atoi("actors")
	c.symmetry = meta["symmetry"] == "true"
	c.por = meta["por"] == "true" // absent in pre-POR checkpoints: false
	return c, err
}

// validate rejects spec bounds that would make the run meaningless: a
// replica set or lock manager needs at least one member, and the term and
// oplog bounds cannot be negative.
func (c specConfig) validate() error {
	switch {
	case c.nodes < 1:
		return fmt.Errorf("-nodes %d: a replica set needs at least one node", c.nodes)
	case c.actors < 1:
		return fmt.Errorf("-actors %d: the lock manager needs at least one actor", c.actors)
	case c.maxTerm < 0:
		return fmt.Errorf("-max-term %d: negative term bound", c.maxTerm)
	case c.maxLog < 0:
		return fmt.Errorf("-max-log %d: negative oplog length bound", c.maxLog)
	}
	return nil
}

// ckConfig is the checkpoint/resume flags.
type ckConfig struct {
	dir    string
	every  int
	resume string
}

func main() {
	var (
		specName = flag.String("spec", "raftmongo-v1", "specification: raftmongo-v1, raftmongo-v2, arrayot, locking")
		nodes    = flag.Int("nodes", 3, "replica-set size (raftmongo)")
		maxTerm  = flag.Int("max-term", 3, "term bound (raftmongo)")
		maxLog   = flag.Int("max-log", 3, "oplog length bound (raftmongo)")
		actors   = flag.Int("actors", 2, "actor count (locking)")
		dotPath  = flag.String("dot", "", "write the state graph as DOT to this file")
		liveness = flag.Bool("liveness", false, "check the commit-point-propagation liveness property (raftmongo)")
		symmetry = flag.Bool("symmetry", false, "symmetry reduction over interchangeable identities (raftmongo nodes, locking actors)")
		por      = flag.Bool("por", false, "ample-set partial-order reduction for specs that declare transition independence (raftmongo, locking); composes with -symmetry, -workers and -mem-budget")
		ck       ckConfig
		rf       cliobs.RunFlags
	)
	flag.StringVar(&ck.dir, "checkpoint", "", "write a resumable checkpoint to this directory on interrupt, -deadline included (and periodically with -checkpoint-every)")
	flag.IntVar(&ck.every, "checkpoint-every", 0, "additionally checkpoint every N BFS levels (0 = only on interrupt; needs -checkpoint)")
	flag.StringVar(&ck.resume, "resume", "", "resume the run checkpointed in this directory (spec flags are restored from the checkpoint); unless -checkpoint says otherwise, further checkpoints go to the same directory")
	rf.Register(flag.CommandLine, "checker", true)
	flag.Parse()

	ctx, stop := cliobs.SignalContext()
	defer stop()
	cfg := specConfig{specName: *specName, nodes: *nodes, maxTerm: *maxTerm, maxLog: *maxLog, actors: *actors, symmetry: *symmetry, por: *por}
	if err := run(ctx, cfg, rf, *dotPath, *liveness, ck); err != nil {
		fmt.Fprintln(os.Stderr, "minitlc:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg specConfig, rf cliobs.RunFlags, dotPath string, liveness bool, ck ckConfig) error {
	if ck.resume != "" {
		// The checkpoint knows which state space it explored; the resumed
		// run must rebuild the identical spec, so its metadata overrides
		// the spec flags.
		info, err := tla.ReadCheckpointInfo(ck.resume)
		if err != nil {
			return err
		}
		cfg, err = configFromMeta(info.Meta)
		if err != nil {
			return err
		}
		if ck.dir == "" {
			ck.dir = ck.resume // keep checkpointing where the run left off
		}
		fmt.Printf("resuming %s from %s: %d distinct states, %d transitions, depth %d, %d levels\n",
			info.Spec, ck.resume, info.Distinct, info.Transitions, info.Depth, info.Levels)
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.por && liveness {
		// CheckEventuallyWithin walks the recorded graph; POR records only
		// the reduced edge set, which under-approximates reachability from
		// intermediate states and can produce bogus liveness verdicts.
		cfg.por = false
		fmt.Fprintln(os.Stderr, "minitlc: note: -liveness needs the full state graph; -por disabled for this run")
	}
	opts, closeJournal, err := rf.EngineOptions("minitlc", tla.Options{
		RecordGraph:     dotPath != "" || liveness,
		PartialOrder:    cfg.por,
		Context:         ctx,
		CheckpointDir:   ck.dir,
		CheckpointEvery: ck.every,
		ResumeFrom:      ck.resume,
		CheckpointMeta:  cfg.meta(),
	})
	if err != nil {
		return err
	}
	defer closeJournal()
	if err := opts.Validate(); err != nil {
		return err
	}
	switch cfg.specName {
	case "raftmongo-v1", "raftmongo-v2":
		rcfg := raftmongo.Config{Nodes: cfg.nodes, MaxTerm: cfg.maxTerm, MaxLogLen: cfg.maxLog, Symmetric: cfg.symmetry}
		spec := raftmongo.SpecV1(rcfg)
		if cfg.specName == "raftmongo-v2" {
			spec = raftmongo.SpecV2(rcfg)
		}
		res, err := check(spec, opts)
		if err != nil {
			return err
		}
		if res.Interrupted {
			return nil
		}
		if liveness {
			w := tla.CheckEventuallyWithin(res.Graph, raftmongo.CommitPointsEqual, func(s raftmongo.State) bool {
				return rcfg.Nodes == s.NumNodes() && withinBounds(rcfg, s)
			})
			if w == -1 {
				fmt.Println("liveness: commit point is eventually propagated — OK")
			} else {
				fmt.Printf("liveness FAILED: state %q cannot reach agreement\n", res.Graph.KeyAt(w))
			}
		}
		return dump(res.Graph, dotPath, spec.Name)
	case "arrayot":
		if cfg.symmetry {
			fmt.Fprintln(os.Stderr, "minitlc: note: array_ot has no symmetric identities (clients act in ID order); -symmetry has no effect")
		}
		res, err := check(arrayot.Spec(arrayot.DefaultConfig()), opts)
		if err != nil || res.Interrupted {
			return err
		}
		if res.Graph != nil {
			fmt.Printf("terminal states (generated test cases): %d\n", len(res.Graph.TerminalStates()))
		}
		return dump(res.Graph, dotPath, "array_ot")
	case "locking":
		res, err := check(locking.Spec(locking.SpecConfig{Actors: cfg.actors, Symmetric: cfg.symmetry}), opts)
		if err != nil || res.Interrupted {
			return err
		}
		return dump(res.Graph, dotPath, "Locking")
	}
	return fmt.Errorf("unknown spec %q", cfg.specName)
}

func withinBounds(cfg raftmongo.Config, s raftmongo.State) bool {
	for i := 0; i < s.NumNodes(); i++ {
		if s.Terms[i] > cfg.MaxTerm || len(s.Oplogs[i]) > cfg.MaxLogLen {
			return false
		}
	}
	return true
}

func check[S tla.State](spec *tla.Spec[S], opts tla.Options) (*tla.Result[S], error) {
	start := time.Now()
	res, err := tla.Check(spec, opts)
	elapsed := time.Since(start)
	if res != nil && res.DegradedMemory {
		fmt.Fprintln(os.Stderr, "minitlc: warning: a persistent I/O failure disabled disk spilling; results are exact but -mem-budget was not honoured (DegradedMemory)")
	}
	if res != nil && opts.PartialOrder && !res.PartialOrder {
		fmt.Fprintln(os.Stderr, "minitlc: note: -por requested but this spec declares no transition independence; the run was unpruned")
	}
	if res != nil && res.PartialOrder {
		fmt.Printf("partial-order reduction: %d ample states, %d transitions deferred\n", res.AmpleStates, res.DeferredTransitions)
	}
	if err != nil {
		switch {
		case res != nil && res.Violation != nil:
			v := res.Violation
			fmt.Printf("%s: invariant %s VIOLATED: %v\n", spec.Name, v.Invariant, v.Err)
			fmt.Printf("counterexample (%d steps):\n", len(v.Trace)-1)
			for i, s := range v.Trace {
				act := "<init>"
				if i > 0 {
					act = v.TraceActs[i-1]
				}
				fmt.Printf("  %2d %-45s %s\n", i, act, s.Key())
			}
			return res, nil
		case res != nil && res.Interrupted && errors.Is(err, tla.ErrInterrupted):
			// A clean interrupt is a successful partial run — unless a
			// requested checkpoint could not be written, which the joined
			// error reports and the missing CheckpointPath confirms.
			if opts.CheckpointDir != "" && res.CheckpointPath == "" {
				return nil, err
			}
			fmt.Printf("%s: interrupted after %d distinct states, %d transitions, depth %d (%.2fs)\n",
				spec.Name, res.Distinct, res.Transitions, res.Depth, elapsed.Seconds())
			if res.CheckpointPath != "" {
				fmt.Printf("checkpoint written to %s — continue with: minitlc -resume %s\n", res.CheckpointPath, res.CheckpointPath)
			}
			return res, nil
		default:
			return nil, err
		}
	}
	fmt.Printf("%s: %d distinct states, %d transitions, depth %d, %d terminal (%.2fs)\n",
		spec.Name, res.Distinct, res.Transitions, res.Depth, res.Terminal, elapsed.Seconds())
	return res, nil
}

// dump writes the state graph as DOT and closes it, releasing the arena
// spill file backing the graph.
func dump[S tla.State](g *tla.Graph[S], path, name string) error {
	if g == nil {
		return nil
	}
	defer g.Close()
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.WriteDOT(f, name); err != nil {
		return err
	}
	fmt.Printf("state graph written to %s (%d nodes, %d edges)\n", path, g.Len(), g.NumEdges())
	return nil
}
