package difftest

import (
	"context"
	"fmt"
	"sort"

	"zac/internal/circuit"
	"zac/internal/cover"
	"zac/internal/workload"
)

// LoopOptions configures a coverage-guided fuzzing run.
type LoopOptions struct {
	// Seeds are the starting workload specs (canonical or parseable form);
	// empty selects workload.SmokeSpecs().
	Seeds []string
	// ExtraSeeds are QASM circuits (e.g. the repro corpus) added to the
	// seed pool alongside the spec seeds.
	ExtraSeeds []*circuit.Circuit
	// Iterations is the number of mutated inputs to generate and check
	// after the seeds; 0 checks the seeds only.
	Iterations int
	// Seed seeds the mutation RNG; the same seed and options replay the
	// same run exactly.
	Seed int64
}

// LoopResult is a fuzzing run's report.
type LoopResult struct {
	// Inputs is the total number of inputs checked (seeds + mutations).
	Inputs int
	// Divergences are every classified disagreement found, in discovery
	// order.
	Divergences []Divergence
	// Features maps every feature reached during the run — pipeline passes
	// and planner branches — to its hit count, merged across all inputs.
	Features map[string]uint64
	// BaselineFeatures are the features the seed inputs alone reached.
	BaselineFeatures []string
	// NewFeatures are the features only mutated inputs reached — the
	// loop's evidence that mutation extends coverage beyond the seeds.
	NewFeatures []string
	// Kept are the labels of mutated inputs retained as seeds for reaching
	// a feature no earlier input reached.
	Kept []string
}

// String renders the run report: input and divergence totals, then the
// coverage story.
func (lr *LoopResult) String() string {
	s := fmt.Sprintf("%d inputs checked, %s", lr.Inputs, Summarize(lr.Divergences))
	s += fmt.Sprintf("\nfeatures reached: %d (seeds alone: %d, new via mutation: %d)",
		len(lr.Features), len(lr.BaselineFeatures), len(lr.NewFeatures))
	for _, f := range lr.NewFeatures {
		s += "\n  new: " + f
	}
	if len(lr.Kept) > 0 {
		s += fmt.Sprintf("\nkept %d mutated seeds:", len(lr.Kept))
		for _, k := range lr.Kept {
			s += "\n  " + k
		}
	}
	return s
}

// loopEntry is one live seed of the mutation pool. Spec-backed entries can
// mutate at the spec level; every entry can mutate at the gate level.
type loopEntry struct {
	label string
	c     *circuit.Circuit
	spec  *workload.Spec
}

// RunLoop drives the coverage-guided mutation loop: check every seed under
// a per-input feature probe, then repeatedly mutate a pool entry (spec
// parameters when the ancestor is a forge spec, gate-level edits always),
// keeping any input that reaches a feature no earlier input reached.
// Divergences accumulate across all inputs.
func (o *Oracle) RunLoop(ctx context.Context, opts LoopOptions) (*LoopResult, error) {
	seeds := opts.Seeds
	if len(seeds) == 0 {
		seeds = workload.SmokeSpecs()
	}
	lr := &LoopResult{Features: map[string]uint64{}}
	global := cover.NewSet()
	var pool []loopEntry

	probe := func(label string, c *circuit.Circuit) (newFeats []string, err error) {
		set := cover.NewSet()
		divs, err := o.Check(cover.With(ctx, set), c, label)
		if err != nil {
			return nil, err
		}
		lr.Inputs++
		lr.Divergences = append(lr.Divergences, divs...)
		newFeats = set.Diff(global)
		global.Merge(set.Counts())
		lr.Features = merge(lr.Features, set.Counts())
		return newFeats, nil
	}

	for _, s := range seeds {
		if err := ctx.Err(); err != nil {
			return lr, err
		}
		spec, err := workload.Parse(s)
		if err != nil {
			return lr, fmt.Errorf("difftest: seed %q: %w", s, err)
		}
		c, err := spec.Generate()
		if err != nil {
			return lr, fmt.Errorf("difftest: seed %q: %w", s, err)
		}
		if _, err := probe(spec.Canonical(), c); err != nil {
			return lr, err
		}
		pool = append(pool, loopEntry{label: spec.Canonical(), c: c, spec: &spec})
	}
	for i, c := range opts.ExtraSeeds {
		if err := ctx.Err(); err != nil {
			return lr, err
		}
		label := c.Name
		if label == "" {
			label = fmt.Sprintf("extra-seed-%d", i)
		}
		if _, err := probe(label, c); err != nil {
			return lr, err
		}
		pool = append(pool, loopEntry{label: label, c: c})
	}
	lr.BaselineFeatures = global.Features()

	r := workload.NewRNG(opts.Seed)
	for i := 0; i < opts.Iterations; i++ {
		if err := ctx.Err(); err != nil {
			return lr, err
		}
		if len(pool) == 0 {
			break
		}
		parent := pool[r.Intn(len(pool))]
		var cand *circuit.Circuit
		var candSpec *workload.Spec
		if parent.spec != nil && r.Intn(2) == 0 {
			s := MutateSpec(r, *parent.spec)
			c, err := s.Generate()
			if err != nil {
				continue // mutated spec out of generator's reach; try again
			}
			cand, candSpec = c, &s
		} else {
			cand = MutateCircuit(r, parent.c)
		}
		if len(cand.Gates) == 0 {
			continue
		}
		label := mutLabel(parent.label, i)
		if candSpec != nil {
			label = candSpec.Canonical()
		}
		newFeats, err := probe(label, cand)
		if err != nil {
			return lr, err
		}
		if len(newFeats) > 0 {
			pool = append(pool, loopEntry{label: label, c: cand, spec: candSpec})
			lr.Kept = append(lr.Kept, label)
			lr.NewFeatures = append(lr.NewFeatures, newFeats...)
		}
	}
	sort.Strings(lr.NewFeatures)
	return lr, nil
}

// merge adds src's counts into dst and returns dst.
func merge(dst, src map[string]uint64) map[string]uint64 {
	for k, v := range src {
		dst[k] += v
	}
	return dst
}
