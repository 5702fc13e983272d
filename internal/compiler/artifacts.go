package compiler

import (
	"context"
	"fmt"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/core"
	"zac/internal/engine"
	"zac/internal/place"
)

// Artifacts is the pass-granular artifact cache: staged circuits and
// placement plans are keyed by circuit identity (plus the parameters that
// shape them) and computed once, shared across every compiler and caller
// routed through the same underlying engine.Tiered. Staged circuits
// round-trip through JSON and persist to the disk tier when one is
// attached; plans hold deep pointer graphs into the architecture and stay
// memory-only. A nil *Artifacts is valid and computes everything in place.
type Artifacts struct {
	cache *engine.Tiered
}

// NewArtifacts wraps a tiered cache as a pass-artifact cache. Artifact keys
// are prefixed "pass:", so the same Tiered can also hold whole-compile
// results without collisions.
func NewArtifacts(t *engine.Tiered) *Artifacts { return &Artifacts{cache: t} }

// Stats returns the underlying cache's hit/miss counters.
func (ar *Artifacts) Stats() engine.TieredStats {
	if ar == nil || ar.cache == nil {
		return engine.TieredStats{}
	}
	return ar.cache.Stats()
}

// Staged memoizes circuit preprocessing. build must return the
// resynthesized, ASAP-staged circuit; oversized Rydberg stages are then
// split to splitSites when positive and the result validated. Every
// compiler asking for the same (key, splitSites) shares one staged
// instance — compilers only read it.
func (ar *Artifacts) Staged(key string, splitSites int, build func() (*circuit.Staged, error)) (*circuit.Staged, error) {
	compute := func() (*circuit.Staged, error) {
		staged, err := build()
		if err != nil {
			return nil, err
		}
		staged = circuit.SplitRydbergStages(staged, splitSites)
		if err := staged.Validate(); err != nil {
			return nil, fmt.Errorf("staged circuit invalid: %w", err)
		}
		return staged, nil
	}
	if ar == nil || ar.cache == nil || key == "" {
		return compute()
	}
	k := fmt.Sprintf("pass:staged|%s|split=%d", key, splitSites)
	return engine.GetTiered(ar.cache, k, engine.JSONCodec[*circuit.Staged](), compute)
}

// planKey renders the memoization key of a placement artifact. place.Options
// is a flat struct of scalars, so its %+v rendering is a stable, complete
// identity; Canonical() fills defaults and strips the execution-only Workers
// knob, so two option sets that produce the same plan share one artifact
// regardless of the worker budget they ran under.
func planKey(key string, a *arch.Architecture, opts place.Options) string {
	return fmt.Sprintf("pass:place|%s|arch=%s|opts=%+v", key, a.Fingerprint(), opts.Canonical())
}

// Plan memoizes the placement pass for (key, a, opts), computing the plan
// with BuildPlan on a miss. The bool reports a cache hit (including joining
// a computation already in flight).
func (ar *Artifacts) Plan(ctx context.Context, key string, a *arch.Architecture, staged *circuit.Staged, opts place.Options) (*place.Plan, bool, error) {
	compute := func(ctx context.Context) (*place.Plan, error) {
		return place.BuildPlan(ctx, a, staged, opts)
	}
	return ar.memoPlan(key, a, opts)(ctx, compute)
}

// memoPlan adapts the artifact cache to the core pipeline's MemoPlan hook
// for a fixed (key, architecture, options) identity. The computation runs
// under DoCtx semantics: cancelled only when every caller sharing the plan
// has cancelled.
func (ar *Artifacts) memoPlan(key string, a *arch.Architecture, opts place.Options) core.MemoPlanFunc {
	return func(ctx context.Context, compute func(context.Context) (*place.Plan, error)) (*place.Plan, bool, error) {
		if ar == nil || ar.cache == nil || key == "" {
			plan, err := compute(ctx)
			return plan, false, err
		}
		computed := false
		plan, err := engine.GetTieredCtx(ar.cache, ctx, planKey(key, a, opts), nil, func(ctx context.Context) (*place.Plan, error) {
			computed = true
			return compute(ctx)
		})
		return plan, err == nil && !computed, err
	}
}
