// Command zac is the ZAC compiler CLI: it reads an OpenQASM 2.0 circuit (or
// a named built-in benchmark), compiles it for a zoned neutral-atom
// architecture through the compiler registry, and writes the resulting ZAIR
// program as JSON together with a fidelity report and per-pass timings.
//
//	zac -circuit ghz_n23                       # built-in benchmark
//	zac -circuit spec:rb:n=32,depth=20,seed=7  # generated workload (see -list-workloads)
//	zac -qasm program.qasm -arch arch.json     # external inputs
//	zac -circuit qft_n18 -setting dynPlace     # ablation setting
//	zac -circuit bv_n14 -out bv.zair.json      # dump ZAIR
//	zac -circuit ghz_n23 -compiler enola       # baseline via the registry
//	zac -list-compilers                        # registry contents
//	zac -list-workloads                        # generator families + schemas
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/qasm"
	"zac/internal/telemetry"
	"zac/internal/trace"
	"zac/internal/workload"
)

func main() {
	qasmPath := flag.String("qasm", "", "OpenQASM 2.0 input file")
	benchName := flag.String("circuit", "", "built-in benchmark name (e.g. ghz_n23; see -list) or workload spec (e.g. spec:rb:n=32,depth=20,seed=7; see -list-workloads)")
	list := flag.Bool("list", false, "list built-in benchmarks and exit")
	listCompilers := flag.Bool("list-compilers", false, "list registry compilers and exit")
	listWorkloads := flag.Bool("list-workloads", false, "list workload generator families with parameter schemas and exit")
	archPath := flag.String("arch", "", "architecture JSON (default: the compiler's target architecture)")
	setting := flag.String("setting", core.SettingSADynPlaceReuse,
		"compiler setting: Vanilla | dynPlace | dynPlace+reuse | SA+dynPlace+reuse")
	compilerName := flag.String("compiler", "",
		"registry compiler (zac, zac-vanilla, enola, atomique, nalac, sc-heron, sc-grid, …); overrides -setting")
	aods := flag.Int("aods", 0, "override the number of AODs (0 = architecture default)")
	saRestarts := flag.Int("sa-restarts", 1, "independent SA initial-placement chains, best kept (zac family; ≥ 1)")
	workers := flag.Int("workers", 0, "intra-compile parallelism budget (0 = all cores; zac family)")
	out := flag.String("out", "", "write the ZAIR program JSON to this file")
	showTrace := flag.Bool("trace", false, "print the program timeline and AOD Gantt chart")
	showTelemetry := flag.Bool("telemetry", false, "print the compile's telemetry span tree (per-pass and kernel timings)")
	flag.Parse()

	// Malformed parallelism knobs exit 1 up front instead of silently
	// clamping: a script that typos -sa-restarts should not publish
	// single-chain results as multi-restart ones.
	if *saRestarts < 1 {
		fatal(fmt.Errorf("-sa-restarts must be >= 1, got %d", *saRestarts))
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers must be >= 0 (0 = all cores), got %d", *workers))
	}

	if *list {
		for _, b := range bench.All() {
			fmt.Printf("%-16s %3d qubits (paper: %d 2Q, %d 1Q gates)\n", b.Name, b.NumQubits, b.Paper2Q, b.Paper1Q)
		}
		return
	}
	if *listCompilers {
		for _, n := range compiler.Names() {
			fmt.Println(n)
		}
		return
	}
	if *listWorkloads {
		fmt.Print(workload.List())
		return
	}

	name := *compilerName
	if name == "" {
		name = *setting // the Fig. 11 legend names are registered aliases
	}
	comp, err := compiler.Get(name)
	if err != nil {
		fatal(err)
	}
	// Evaluation-model compilers (the baselines and SC routers) emit a
	// header-only program; honoring -out or -trace for them would hand
	// scripts an empty instruction stream, so refuse before compiling.
	_, emitsZAIR := compiler.Setting(comp.Name())
	if (*showTrace || *out != "") && !emitsZAIR {
		fatal(fmt.Errorf("compiler %s emits no ZAIR instruction stream; -out/-trace need a zac-family compiler", comp.Name()))
	}

	c, err := loadCircuit(*qasmPath, *benchName)
	if err != nil {
		fatal(err)
	}
	a := compiler.TargetArch(comp)
	if *archPath != "" {
		data, err := os.ReadFile(*archPath)
		if err != nil {
			fatal(err)
		}
		a = &arch.Architecture{}
		if err := json.Unmarshal(data, a); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *archPath, err))
		}
	}
	if *aods > 0 {
		a = arch.WithAODs(a, *aods)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// With -telemetry the compile runs under a span trace (the same
	// instrumentation zac-serve records per request) and the tree is
	// printed after the report.
	var recorder *telemetry.Recorder
	var rootSpan *telemetry.Span
	if *showTelemetry {
		recorder = telemetry.NewRecorder(1)
		ctx, rootSpan = recorder.StartTrace(ctx, "zac.compile")
	}
	res, err := compiler.Request{
		Compiler: comp,
		Arch:     a,
		Build:    func() (*circuit.Circuit, error) { return c, nil },
		Options:  compiler.Options{SARestarts: *saRestarts, Workers: *workers},
	}.Compile(ctx)
	rootSpan.End()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("circuit:          %s (%d qubits)\n", c.Name, c.NumQubits)
	fmt.Printf("compiler:         %s\n", comp.Name())
	one, two := res.Staged.GateCounts()
	fmt.Printf("gates:            %d 2Q, %d 1Q after preprocessing\n", two, one)
	fmt.Printf("rydberg stages:   %d\n", res.NumRydbergStages)
	fmt.Printf("reused gates:     %d\n", res.ReusedGates)
	fmt.Printf("qubit movements:  %d (%d rearrangement jobs)\n", res.TotalMoves, res.NumJobs)
	fmt.Printf("duration:         %.3f ms\n", res.Duration/1000)
	fmt.Printf("compile time:     %s\n", res.CompileTime)
	if len(res.Passes) > 0 {
		fmt.Printf("passes:          ")
		for _, p := range res.Passes {
			fmt.Printf(" %s %s", p.Pass, p.Duration)
		}
		fmt.Println()
	}
	b := res.Breakdown
	fmt.Printf("fidelity:         total %.4f\n", b.Total)
	fmt.Printf("  1Q %.4f | 2Q %.4f | excitation %.4f | transfer %.4f | decoherence %.4f\n",
		b.OneQ, b.TwoQ, b.Excite, b.Transfer, b.Decohere)

	if *showTelemetry {
		if td, ok := recorder.Get(rootSpan.TraceID()); ok {
			fmt.Println()
			fmt.Print(telemetry.TreeString(td))
		}
	}

	if *showTrace {
		fmt.Println()
		fmt.Print(trace.Gantt(res.Program, 100))
	}

	if *out != "" {
		data, err := json.MarshalIndent(res.Program, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("zair program:     %s (%d instructions)\n", *out, res.Program.NumZAIRInstructions())
	}
	fmt.Println("[INFO] Finish Compilation")
}

func loadCircuit(qasmPath, benchName string) (*circuit.Circuit, error) {
	switch {
	case qasmPath != "" && benchName != "":
		return nil, fmt.Errorf("use either -qasm or -circuit, not both")
	case qasmPath != "":
		data, err := os.ReadFile(qasmPath)
		if err != nil {
			return nil, err
		}
		c, err := qasm.Parse(string(data))
		if err != nil {
			return nil, err
		}
		c.Name = qasmPath
		return c, nil
	case benchName != "":
		if workload.IsSpec(benchName) {
			return workload.Build(benchName)
		}
		b, err := bench.ByName(benchName)
		if err != nil {
			return nil, err
		}
		return b.Build(), nil
	default:
		return nil, fmt.Errorf("provide -qasm FILE or -circuit NAME (see -list; workload specs via spec:…)")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "zac: %v\n", err)
	os.Exit(1)
}
