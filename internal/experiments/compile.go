package experiments

import (
	"context"
	"fmt"
	"time"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/fidelity"
	"zac/internal/resynth"
)

// naResult is the common evaluation shape the experiment tables consume:
// fidelity breakdown, circuit duration, and the wall-clock compile time
// (measured once, at the compilation that populated the cache entry).
type naResult struct {
	breakdown fidelity.Breakdown
	duration  float64 // µs
	compile   time.Duration
}

// toNA projects a unified compiler result onto the table shape.
func toNA(r *core.Result) naResult {
	return naResult{breakdown: r.Breakdown, duration: r.Duration, compile: r.CompileTime}
}

// request is the compiler.Request of one harness compilation: benchmark b
// through c for a (nil = the compiler's target architecture) under co (nil
// = the compiler's preset), sharing the harness's pass-artifact cache.
func request(cfg Config, c compiler.Compiler, b bench.Benchmark, a *arch.Architecture, co *core.Options) compiler.Request {
	return compiler.Request{
		Compiler: c,
		Arch:     a,
		Build:    func() (*circuit.Circuit, error) { return b.Build(), nil },
		Options: compiler.Options{
			Key: b.Name, Artifacts: cfg.artifacts(), Core: co,
			SARestarts: cfg.SARestarts, Workers: cfg.Workers,
		},
	}
}

// zacRequest is the request of one full-ZAC compilation of b for a under co.
func zacRequest(cfg Config, b bench.Benchmark, a *arch.Architecture, co *core.Options) (compiler.Request, error) {
	zc, err := compiler.Get("zac")
	if err != nil {
		return compiler.Request{}, err
	}
	return request(cfg, zc, b, a, co), nil
}

// cachedCompile runs one request through the harness cache under its
// Request.Key. Results persist to the disk tier as core.Snapshot, so an
// entry restored after a restart has nil Plan and Staged.
func cachedCompile(ctx context.Context, cfg Config, r compiler.Request) (*core.Result, error) {
	return cachedDisk(cfg, r.Key(), core.ResultCodec(), func() (*core.Result, error) {
		res, err := r.Compile(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", r.Options.Key, r.Compiler.Name(), err)
		}
		return res, nil
	})
}

// cachedZAC compiles a benchmark with the full-ZAC registry compiler under
// the given options for a.
func cachedZAC(ctx context.Context, cfg Config, b bench.Benchmark, a *arch.Architecture, opts core.Options) (*core.Result, error) {
	r, err := zacRequest(cfg, b, a, &opts)
	if err != nil {
		return nil, err
	}
	return cachedCompile(ctx, cfg, r)
}

// cachedZACNativeCCZ is the native-CCZ variant of cachedZAC: the benchmark
// is preprocessed with PreprocessNativeCCZ and compiled on the three-trap
// architecture.
func cachedZACNativeCCZ(ctx context.Context, cfg Config, b bench.Benchmark, a *arch.Architecture) (*core.Result, error) {
	key := "zacccz|" + b.Name + "|arch=" + a.Fingerprint()
	return cachedDisk(cfg, key, core.ResultCodec(), func() (*core.Result, error) {
		staged, err := cfg.artifacts().Staged("ccz|"+b.Name, a.TotalSites(), func() (*circuit.Staged, error) {
			native, err := resynth.PreprocessNativeCCZ(b.Build())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			return native, nil
		})
		if err != nil {
			return nil, err
		}
		zc, err := compiler.Get("zac")
		if err != nil {
			return nil, err
		}
		opts := core.Default()
		r, err := zc.Compile(ctx, staged, a, compiler.Options{
			Key: "ccz|" + b.Name, Artifacts: cfg.artifacts(), Core: &opts,
		})
		if err != nil {
			return nil, fmt.Errorf("%s/zac-ccz: %w", b.Name, err)
		}
		return r, nil
	})
}

// evalCompiler compiles one benchmark with one registry compiler under the
// paper's evaluation setup: the compiler's default target architecture and
// preset, with the input shaped by the registry's stage-split rule.
func evalCompiler(ctx context.Context, cfg Config, name string, b bench.Benchmark) (naResult, error) {
	c, err := compiler.Get(name)
	if err != nil {
		return naResult{}, err
	}
	r, err := cachedCompile(ctx, cfg, request(cfg, c, b, nil, nil))
	if err != nil {
		return naResult{}, err
	}
	return toNA(r), nil
}

// colCompilers maps the paper's column legends onto registry names.
var colCompilers = map[string]string{
	ColZAC:      "zac",
	ColNALAC:    "nalac",
	ColEnola:    "enola",
	ColAtomique: "atomique",
	ColSCHeron:  "sc-heron",
	ColSCGrid:   "sc-grid",
}

// evalCol evaluates one benchmark under one compiler column — the unit of
// work the experiment runners fan out over the pool. Every column resolves
// through the compiler registry; the four neutral-atom columns share the
// zoned-split staged circuit, exactly as the sequential harness did.
func evalCol(ctx context.Context, cfg Config, col string, b bench.Benchmark) (naResult, error) {
	name, ok := colCompilers[col]
	if !ok {
		return naResult{}, fmt.Errorf("experiments: unknown compiler column %q", col)
	}
	return evalCompiler(ctx, cfg, name, b)
}
