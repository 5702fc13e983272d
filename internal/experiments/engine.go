package experiments

import (
	"context"
	"fmt"

	"zac/internal/compiler"
	"zac/internal/engine"
)

// Config controls how an experiment executes. The zero value runs fully
// parallel (one worker per CPU) with the compilation cache enabled; use
// Sequential() for a one-worker run. The result rows are identical for
// every worker count because the engine assembles them by input index, not
// arrival order.
type Config struct {
	// Parallel is the worker-pool size: ≤ 0 selects runtime.NumCPU(),
	// 1 runs strictly sequentially on the calling goroutine.
	Parallel int
	// NoCache bypasses the process-wide compilation cache, recompiling
	// every (circuit, compiler, architecture) combination from scratch —
	// the seed's sequential behavior, kept for benchmarking the engine
	// against it.
	NoCache bool
	// Progress, when non-nil, receives a one-line message as each unit of
	// work completes.
	Progress func(msg string)
	// SARestarts, when > 1, overrides the ZAC-family initial-placement
	// restart count (independent annealing chains, best kept). It changes
	// compiled outputs, so it joins the harness cache key; 0 and 1 both
	// keep the presets' single-chain default.
	SARestarts int
	// Workers bounds each compilation's intra-compile parallelism (0 = all
	// cores). Speed-only: it never changes outputs and stays out of every
	// cache key.
	Workers int
}

// Sequential is the Config matching the pre-engine harness: one worker,
// cache enabled.
func Sequential() Config { return Config{Parallel: 1} }

func (c Config) progressf(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

// compileCache memoizes every compilation the harness performs under its
// compiler.Request key (circuit, architecture, output-relevant options), so
// circuits shared across experiments — e.g. the representative subset reused
// by Fig8/Fig9/Fig10/Table2 — compile once per process. The LRU front is
// sized far above the full suite's entry count; attaching a disk tier with
// SetCacheDir makes final results survive restarts as well.
var compileCache = engine.NewTiered(8192)

// compileArtifacts is the pass-artifact view of the process-wide cache:
// staged circuits and placement plans computed once and shared across every
// compiler the harness drives.
var compileArtifacts = compiler.NewArtifacts(compileCache)

// artifacts returns the shared pass-artifact cache, or nil when the config
// opted out of caching (a nil Artifacts computes everything in place).
func (c Config) artifacts() *compiler.Artifacts {
	if c.NoCache {
		return nil
	}
	return compileArtifacts
}

// cached routes a memory-only computation through the process-wide cache
// unless the config opted out. Entries looked up this way are never written
// to the disk tier — the right mode for values that hold deep pointer
// graphs into the architecture (placement plans, ftqc results).
func cached[T any](cfg Config, key string, compute func() (T, error)) (T, error) {
	return cachedDisk(cfg, key, nil, compute)
}

// cachedDisk routes a computation through the full cache hierarchy: LRU
// memory front, then the disk tier (when SetCacheDir attached one and codec
// is non-nil), then compute with write-through to both tiers.
func cachedDisk[T any](cfg Config, key string, codec *engine.Codec, compute func() (T, error)) (T, error) {
	if cfg.NoCache {
		return compute()
	}
	return engine.GetTiered(compileCache, key, codec, compute)
}

// SetCacheDir attaches a persistent disk tier rooted at dir to the
// compilation cache (maxBytes 0 = unbounded), or detaches it when dir is
// empty. Compilation results then survive process restarts and are shared
// with other processes pointed at the same directory.
func SetCacheDir(dir string, maxBytes int64) error {
	if dir == "" {
		compileCache.SetDisk(nil)
		return nil
	}
	d, err := engine.OpenDiskCache(dir, maxBytes)
	if err != nil {
		return err
	}
	compileCache.SetDisk(d)
	return nil
}

// ResetCache drops every in-memory cached compilation (the disk tier, if
// attached, is untouched). Benchmarks call it to measure cold-cache
// behavior; servers can call it to bound memory.
func ResetCache() { compileCache.Reset() }

// CacheStats reports the compilation cache's per-tier hit/miss counters.
func CacheStats() engine.TieredStats { return compileCache.Stats() }

// mapRows is the harness's fan-out primitive: it runs fn(i) for every index
// through the bounded worker pool and returns the results in input order.
func mapRows[T any](ctx context.Context, cfg Config, n int, fn func(i int) (T, error)) ([]T, error) {
	return engine.Map(ctx, cfg.Parallel, n, fn)
}
