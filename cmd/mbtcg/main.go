// Command mbtcg runs the model-based test-case generation pipeline of the
// paper's §5: it model-checks the array_ot specification, dumps the state
// graph to a DOT file, parses it back, derives one test case per terminal
// state (4,913 under the paper's configuration), runs the cases against
// both the reference and the independent OT implementation, and prints the
// branch-coverage table of §5.2.
//
// Usage:
//
//	mbtcg [-dot array_ot.dot] [-emit generated_test.go] [-coverage] [-workers N] [-mem-budget BYTES] \
//	      [-deadline DUR] [-progress-every DUR] [-journal FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/arrayot"
	"repro/internal/cliobs"
	"repro/internal/coverage"
	"repro/internal/fuzzer"
	"repro/internal/mbtcg"
	"repro/internal/ot"
	"repro/internal/otgo"
	"repro/internal/tla"
)

func main() {
	var (
		dotPath  = flag.String("dot", "array_ot.dot", "state-graph DOT output path")
		emitPath = flag.String("emit", "", "write the generated cases as a Go test file")
		withCov  = flag.Bool("coverage", false, "print the §5.2 coverage comparison table")
		rf       cliobs.RunFlags
	)
	rf.Register(flag.CommandLine, "model-checker", true)
	flag.Parse()
	// First signal stops the model checker cooperatively; generation needs
	// the complete state graph, so an interrupted (or over-deadline)
	// exploration aborts the pipeline with the partial-state count.
	ctx, stop := cliobs.SignalContext()
	defer stop()
	if err := run(ctx, *dotPath, *emitPath, *withCov, rf); err != nil {
		fmt.Fprintln(os.Stderr, "mbtcg:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, dotPath, emitPath string, withCov bool, rf cliobs.RunFlags) error {
	opts, closeJournal, err := rf.EngineOptions("mbtcg", tla.Options{Context: ctx})
	if err != nil {
		return err
	}
	defer closeJournal()
	if err := opts.Validate(); err != nil {
		return err
	}
	cases, res, err := mbtcg.GenerateResult(arrayot.DefaultConfig(), dotPath, opts)
	if err != nil {
		return err
	}
	fmt.Printf("model checked array_ot: %d distinct states; generated %d test cases (paper: 4,913)\n",
		res.Distinct, len(cases))

	if ms := mbtcg.RunAll(cases, ot.NewTransformer(nil, false)); len(ms) != 0 {
		fmt.Printf("reference implementation FAILED %d cases; first: %s\n", len(ms), ms[0])
	} else {
		fmt.Println("reference implementation: all generated cases pass")
	}
	if ms := mbtcg.RunAll(cases, otgo.Engine{}); len(ms) != 0 {
		fmt.Printf("independent implementation FAILED %d cases; first: %s\n", len(ms), ms[0])
	} else {
		fmt.Println("independent implementation: all generated cases pass (C++/Go parity)")
	}

	if emitPath != "" {
		f, err := os.Create(emitPath)
		if err != nil {
			return err
		}
		if err := mbtcg.EmitGoTests(f, "generated", "repro/internal/ot", cases); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("generated test file written to %s\n", emitPath)
	}

	if withCov {
		handReg := coverage.NewRegistry()
		if err := mbtcg.RunWorkloads(mbtcg.HandwrittenCases(), ot.NewTransformer(handReg, false)); err != nil {
			return err
		}
		fuzzReg := coverage.NewRegistry()
		fcfg := fuzzer.DefaultTransformConfig()
		frep := fuzzer.FuzzTransform(fcfg, ot.NewTransformer(fuzzReg, false))
		genReg := coverage.NewRegistry()
		if ms := mbtcg.RunAll(cases, ot.NewTransformer(genReg, false)); len(ms) != 0 {
			return fmt.Errorf("generated cases failed during coverage run: %s", ms[0])
		}
		fmt.Println("\nbranch coverage of the array merge rules (paper: 18/86, 79/86, 86/86):")
		fmt.Printf("  %-32s %s\n", fmt.Sprintf("handwritten (%d tests)", len(mbtcg.HandwrittenCases())), handReg.Report())
		fmt.Printf("  %-32s %s\n", fmt.Sprintf("fuzz-transform (%d execs)", frep.Executions), fuzzReg.Report())
		fmt.Printf("  %-32s %s\n", fmt.Sprintf("generated (%d cases)", len(cases)), genReg.Report())
	}
	return nil
}
