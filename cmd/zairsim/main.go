// Command zairsim loads one or more ZAIR programs (as produced by
// `zac -out`), verifies their physical consistency against an architecture,
// and reports statistics and fidelity under the paper's model — the
// consumer-side counterpart of the compiler, useful for validating
// externally generated or hand-edited ZAIR programs. Multiple programs are
// verified concurrently through the engine's worker pool; reports print in
// argument order. With -cachedir, verification reports are cached on disk
// (keyed by program content digest and architecture fingerprint, the same
// cache directory zac-serve and zac-bench use), so re-verifying unchanged
// programs is free.
//
// With -selfcheck a built-in benchmark is compiled in-process through the
// compiler registry (-compiler selects the ZAC preset) and the emitted
// program is verified immediately — the end-to-end round trip without an
// intermediate file.
//
//	zairsim -program bv.zair.json
//	zairsim -program bv.zair.json -arch custom_arch.json
//	zairsim -parallel 4 a.zair.json b.zair.json c.zair.json
//	zairsim -cachedir ~/.cache/zac big.zair.json
//	zairsim -selfcheck ghz_n23 -compiler zac-dynplace
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/engine"
	"zac/internal/fidelity"
	"zac/internal/zair"
)

func main() {
	programPath := flag.String("program", "", "ZAIR program JSON file (may also be given as positional arguments)")
	archPath := flag.String("arch", "", "architecture JSON (default: reference architecture)")
	parallel := flag.Int("parallel", 0, "worker pool size for multiple programs (0 = all CPUs)")
	cacheDir := flag.String("cachedir", "", "persistent report-cache directory shared with zac-serve and zac-bench")
	selfcheck := flag.String("selfcheck", "", "compile this built-in benchmark through the compiler registry and verify the emitted program in-process")
	compilerName := flag.String("compiler", "zac", "registry compiler for -selfcheck (must emit ZAIR: zac, zac-vanilla, zac-dynplace, zac-dynplace-reuse)")
	flag.Parse()

	cache := engine.NewTiered(0)
	if *cacheDir != "" {
		disk, err := engine.OpenDiskCache(*cacheDir, 0)
		if err != nil {
			fatal(err)
		}
		cache.SetDisk(disk)
	}

	paths := flag.Args()
	if *programPath != "" {
		paths = append([]string{*programPath}, paths...)
	}
	if len(paths) == 0 && *selfcheck == "" {
		fmt.Fprintln(os.Stderr, "zairsim: -program FILE (or positional FILEs, or -selfcheck BENCH) required")
		os.Exit(2)
	}

	a := arch.Reference()
	if *archPath != "" {
		raw, err := os.ReadFile(*archPath)
		if err != nil {
			fatal(err)
		}
		a = &arch.Architecture{}
		if err := json.Unmarshal(raw, a); err != nil {
			fatal(err)
		}
	}

	if *selfcheck != "" {
		out, err := runSelfcheck(*selfcheck, *compilerName, a)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		if len(paths) == 0 {
			return
		}
		fmt.Println()
	}

	reports, err := engine.Map(context.Background(), *parallel, len(paths), func(i int) (string, error) {
		data, err := os.ReadFile(paths[i])
		if err != nil {
			return "", err
		}
		key := fmt.Sprintf("zairsim|prog=%x|arch=%s", sha256.Sum256(data), a.Fingerprint())
		return engine.GetTiered(cache, key, engine.JSONCodec[string](), func() (string, error) {
			return report(paths[i], data, a)
		})
	})
	if err != nil {
		fatal(err)
	}
	for i, r := range reports {
		if i > 0 {
			fmt.Println()
		}
		if len(paths) > 1 {
			fmt.Printf("--- %s ---\n", paths[i])
		}
		fmt.Print(r)
	}
}

// runSelfcheck compiles a built-in benchmark through the compiler registry
// and verifies the emitted ZAIR program in-process, returning the report
// prefixed with the compiler that produced it.
func runSelfcheck(benchName, compilerName string, a *arch.Architecture) (string, error) {
	comp, err := compiler.Get(compilerName)
	if err != nil {
		return "", err
	}
	b, err := bench.ByName(benchName)
	if err != nil {
		return "", err
	}
	res, err := compiler.Request{
		Compiler: comp,
		Arch:     a,
		Build:    func() (*circuit.Circuit, error) { return b.Build(), nil },
	}.Compile(context.Background())
	if err != nil {
		return "", err
	}
	if len(res.Program.Instructions) == 0 {
		return "", fmt.Errorf("compiler %s emits no ZAIR instruction stream; pick a zac-family compiler", comp.Name())
	}
	data, err := json.MarshalIndent(res.Program, "", " ")
	if err != nil {
		return "", err
	}
	rep, err := report("selfcheck:"+benchName, data, a)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("selfcheck:        %s via %s\n%s", benchName, comp.Name(), rep), nil
}

// report verifies and evaluates one program, returning its printable report.
func report(path string, data []byte, a *arch.Architecture) (string, error) {
	var prog zair.Program
	if err := json.Unmarshal(data, &prog); err != nil {
		return "", fmt.Errorf("parsing %s: %w", path, err)
	}

	v := &zair.Verifier{Resolve: a.ResolveTrap}
	if err := v.Verify(&prog); err != nil {
		return "", fmt.Errorf("%s: verification failed: %w", path, err)
	}

	stats := replayStats(&prog, a)
	b := fidelity.Compute(core.ParamsFromArch(a), stats)
	cs := prog.CountStats()
	var out strings.Builder
	fmt.Fprintf(&out, "verification:     OK\n")
	fmt.Fprintf(&out, "program:          %s (%d qubits)\n", prog.Name, prog.NumQubits)
	fmt.Fprintf(&out, "instructions:     %d ZAIR (%d 1qGate, %d rydberg, %d jobs), %d machine-level\n",
		prog.NumZAIRInstructions(), cs.OneQGate, cs.Rydberg, cs.RearrangeJobs, cs.MachineInsts)
	fmt.Fprintf(&out, "moved qubits:     %d (%d transfers)\n", cs.MovedQubits, stats.Transfers)
	fmt.Fprintf(&out, "duration:         %.3f ms\n", prog.Duration()/1000)
	fmt.Fprintf(&out, "fidelity:         %.4f (1Q %.4f · 2Q %.4f · transfer %.4f · decoherence %.4f)\n",
		b.Total, b.OneQ, b.TwoQ, b.Transfer, b.Decohere)
	return out.String(), nil
}

// replayStats reconstructs fidelity statistics from a ZAIR instruction
// stream. 2Q gate counts come from Rydberg exposures: every pair of qubits
// sharing a Rydberg site when the laser fires counts as one CZ.
func replayStats(p *zair.Program, a *arch.Architecture) fidelity.Stats {
	var st fidelity.Stats
	st.Duration = p.Duration()
	st.Busy = make([]float64, p.NumQubits)

	// Track positions to resolve Rydberg pairings.
	pos := map[int]zair.QLoc{}
	entSLMs := map[int]int{} // slm id → entanglement zone index
	for zi, z := range a.Entanglement {
		for _, s := range z.SLMs {
			entSLMs[s.ID] = zi
		}
	}
	if init, ok := p.Instructions[0].(zair.Init); ok {
		for _, l := range init.Locs {
			pos[l.Q] = l
		}
	}
	for _, inst := range p.Instructions[1:] {
		switch v := inst.(type) {
		case zair.OneQGate:
			for _, l := range v.Locs {
				st.OneQGates++
				st.AddBusy(l.Q, a.Times.OneQGate)
			}
		case zair.Rydberg:
			// Pair qubits by (zone, row, col).
			bySite := map[[3]int][]int{}
			for q, l := range pos {
				zi, ok := entSLMs[l.A]
				if !ok || zi != v.ZoneID {
					continue
				}
				key := [3]int{zi, l.R, l.C}
				bySite[key] = append(bySite[key], q)
			}
			for _, qs := range bySite {
				if len(qs) == 2 {
					st.TwoQGates++
					st.AddBusy(qs[0], a.Times.Rydberg)
					st.AddBusy(qs[1], a.Times.Rydberg)
				} else {
					st.Excited += len(qs)
				}
			}
		case zair.RearrangeJob:
			dur := v.EndTime - v.BeginTime
			for r := range v.EndLocs {
				for _, e := range v.EndLocs[r] {
					pos[e.Q] = e
					st.Transfers += 2
					st.AddBusy(e.Q, dur)
				}
			}
		}
	}
	return st
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "zairsim: %v\n", err)
	os.Exit(1)
}
