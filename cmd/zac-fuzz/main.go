// Command zac-fuzz is the compile fuzzer: it generates circuits from the
// workload forge (pinned specs or a seeded random stream) and checks each
// one with the differential oracle of internal/difftest. The oracle checks
// the front end every compiler shares once per input — the QASM
// write→parse round trip and resynthesis validity, each with statevector
// equivalence at ≤ 10 qubits — then every selected registry compiler
// (fidelity, duration and counter sanity, ZAIR replay, qubit conservation
// and move accounting, repeat-compile determinism), then the compilers
// against each other (compile-outcome agreement up to 64 qubits, ablation
// fidelity ordering). With -mutate it adds a coverage-guided mutation loop
// driven by per-pass and planner-branch feature counters. Any divergence
// is greedily shrunk to a minimal reproduction and, with -corpus,
// persisted as a QASM repro file.
//
//	zac-fuzz                                    # 25 random specs, all compilers
//	zac-fuzz -n 200 -seed 42                    # bigger seeded run
//	zac-fuzz -duration 10m                      # nightly: mutate until the clock runs out
//	zac-fuzz -spec "rb:n=32,depth=20,seed=7"    # exact specs (';'-separated)
//	zac-fuzz -smoke                             # the pinned CI specs (make fuzz-smoke)
//	zac-fuzz -compilers zac,zac-advreuse -fidtol 0.3
//	zac-fuzz -smoke -mutate 64 -corpus corpus/  # coverage-guided fuzzing (make fuzz-diff)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"zac/internal/compiler"
	"zac/internal/difftest"
	"zac/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args with its own FlagSet,
// writes to the given streams, and returns the process exit code (0 clean,
// 1 divergences or bad -compilers, 2 usage or harness errors).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zac-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specsFlag := fs.String("spec", "", "';'-separated workload specs to seed the run with (disables random seeds)")
	smoke := fs.Bool("smoke", false, "seed the run with the pinned CI smoke specs (same as make fuzz-smoke)")
	n := fs.Int("n", 25, "random seed specs when no -spec/-smoke is given")
	seed := fs.Int64("seed", 1, "seed of the random spec stream and the mutation RNG (runs are reproducible per seed)")
	duration := fs.Duration("duration", 0, "mutate until this much time has passed (overrides -mutate; for nightly runs)")
	compilers := fs.String("compilers", "", "comma-separated registry compilers (default: whole registry)")
	noShrink := fs.Bool("noshrink", false, "report divergences without minimizing them")
	listWorkloads := fs.Bool("list-workloads", false, "list generator families with parameter schemas and exit")
	verbose := fs.Bool("v", false, "print the seeds and every reached feature")
	mutate := fs.Int("mutate", 0, "coverage-guided mutation iterations after the seeds")
	corpus := fs.String("corpus", "", "persist minimized repros to this directory")
	fidTol := fs.Float64("fidtol", 0, "ablation fidelity-ordering tolerance (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listWorkloads {
		fmt.Fprint(stdout, workload.List())
		return 0
	}

	// Validate -compilers up front against the registry: a typo should
	// fail fast with the valid list, not surface deep into a run.
	var selected []string
	if *compilers != "" {
		for _, name := range strings.Split(*compilers, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, err := compiler.Get(name); err != nil {
				fmt.Fprintf(stderr, "zac-fuzz: unknown compiler %q (valid: %s)\n",
					name, strings.Join(compiler.Names(), ", "))
				return 1
			}
			selected = append(selected, name)
		}
	}
	oracle, err := difftest.New(difftest.Options{
		Compilers:   selected,
		FidelityTol: *fidTol,
		NoShrink:    *noShrink,
		CorpusDir:   *corpus,
	})
	if err != nil {
		fmt.Fprintf(stderr, "zac-fuzz: %v\n", err)
		return 2
	}

	iterations := *mutate
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
		iterations = math.MaxInt
	}

	var seeds []string
	switch {
	case *specsFlag != "":
		for _, s := range strings.Split(*specsFlag, ";") {
			if s = strings.TrimSpace(s); s != "" {
				seeds = append(seeds, s)
			}
		}
	case *smoke:
		seeds = workload.SmokeSpecs()
	default:
		r := workload.NewRNG(*seed)
		for i := 0; i < *n; i++ {
			seeds = append(seeds, workload.RandomSpec(r).Canonical())
		}
	}
	if *verbose {
		for _, s := range seeds {
			fmt.Fprintf(stderr, "[fuzz] seed %s\n", s)
		}
	}

	start := time.Now()
	lr, err := oracle.RunLoop(ctx, difftest.LoopOptions{
		Seeds:      seeds,
		Iterations: iterations,
		Seed:       *seed,
	})
	if err != nil && ctx.Err() == nil {
		fmt.Fprintf(stderr, "zac-fuzz: %v\n", err)
		return 2
	}

	for _, d := range lr.Divergences {
		fmt.Fprintf(stdout, "DIVERGE %s\n", d)
	}
	summary := difftest.Summarize(lr.Divergences)
	fmt.Fprintf(stdout, "zac-fuzz: %d compilers, %d inputs in %s, %s\n",
		len(oracle.Compilers()), lr.Inputs, time.Since(start).Round(time.Millisecond), summary)
	fmt.Fprintf(stdout, "features reached: %d (seeds alone: %d, new via mutation: %d)\n",
		len(lr.Features), len(lr.BaselineFeatures), len(lr.NewFeatures))
	if *verbose {
		feats := make([]string, 0, len(lr.Features))
		for f := range lr.Features {
			feats = append(feats, f)
		}
		sort.Strings(feats)
		for _, f := range feats {
			fmt.Fprintf(stdout, "  %-40s %d\n", f, lr.Features[f])
		}
	}
	for _, f := range lr.NewFeatures {
		fmt.Fprintf(stdout, "  new: %s\n", f)
	}
	for _, p := range summary.Corpus {
		fmt.Fprintf(stdout, "corpus: %s\n", p)
	}
	if summary.Total > 0 {
		return 1
	}
	return 0
}
