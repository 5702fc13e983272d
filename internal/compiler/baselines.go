package compiler

import (
	"context"
	"time"

	"zac/internal/arch"
	"zac/internal/baseline/atomique"
	"zac/internal/baseline/enola"
	"zac/internal/baseline/nalac"
	"zac/internal/circuit"
	"zac/internal/core"
	"zac/internal/fidelity"
	"zac/internal/sc"
	"zac/internal/zair"
)

// baselineCompiler adapts an analytic evaluation-model compiler (the
// neutral-atom baselines and the superconducting routers) to the unified
// interface. These compilers evaluate a circuit's fidelity and duration
// without emitting a ZAIR instruction stream, so the returned Result
// carries a header-only Program (name and qubit count, no instructions);
// its Stats, Breakdown, and Duration are fully populated.
type baselineCompiler struct {
	name        string
	defaultArch func() *arch.Architecture
	splitStages bool
	run         func(staged *circuit.Staged, a *arch.Architecture) (*core.Result, error)
}

// Name returns the canonical registry name.
func (b *baselineCompiler) Name() string { return b.name }

// DefaultArch returns the architecture the baseline targets when the caller
// supplies none (the paper's evaluation setup for that baseline).
func (b *baselineCompiler) DefaultArch() *arch.Architecture { return b.defaultArch() }

// Compile validates the inputs, runs the evaluation model, and assembles a
// core.Result with a "validate" and a "compile" pass timing. The analytic
// models run in one shot, so the context is only checked between the two
// passes. Validation covers the architecture too — the same contract as
// the zac pipeline's validate pass; the models index into zone tables and
// would panic on a malformed user-supplied architecture.
func (b *baselineCompiler) Compile(ctx context.Context, staged *circuit.Staged, a *arch.Architecture, opts Options) (*core.Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := staged.Validate(); err != nil {
		return nil, err
	}
	validated := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := b.run(staged, a)
	if err != nil {
		return nil, err
	}
	res.Staged = staged
	res.CompileTime = time.Since(start)
	if res.Program == nil {
		res.Program = &zair.Program{Name: staged.Name, NumQubits: staged.NumQubits}
	}
	res.Passes = []core.PassTiming{
		{Pass: "validate", Duration: validated.Sub(start)},
		{Pass: "compile", Duration: time.Since(validated)},
	}
	return res, nil
}

// The canonical registry: the full ZAC configuration plus its three
// ablation presets, the three neutral-atom baselines, and the two
// superconducting platforms. Aliases cover the paper's Fig. 11 legend
// spellings, so `-compiler SA+dynPlace+reuse` resolves too.
func init() {
	for _, z := range []struct{ name, setting string }{
		{"zac", core.SettingSADynPlaceReuse},
		{"zac-vanilla", core.SettingVanilla},
		{"zac-dynplace", core.SettingDynPlace},
		{"zac-dynplace-reuse", core.SettingDynPlaceReuse},
		// The paper's §X advanced-reuse path, promoted from an experiment-only
		// Options override to a first-class compiler so it gets the same
		// conformance and fuzz scrutiny as everything else.
		{"zac-advreuse", core.SettingAdvReuse},
	} {
		Register(&zacCompiler{name: z.name, setting: z.setting})
		RegisterAlias(z.setting, z.name)
	}

	Register(&baselineCompiler{
		name:        "enola",
		defaultArch: arch.Monolithic,
		splitStages: true,
		run: func(staged *circuit.Staged, a *arch.Architecture) (*core.Result, error) {
			r, err := enola.Compile(staged, a)
			if err != nil {
				return nil, err
			}
			return &core.Result{
				Stats: r.Stats, Breakdown: r.Breakdown, Duration: r.Duration,
				NumRydbergStages: r.NumRydbergStages,
			}, nil
		},
	})
	Register(&baselineCompiler{
		name:        "atomique",
		defaultArch: arch.Monolithic,
		splitStages: true,
		run: func(staged *circuit.Staged, a *arch.Architecture) (*core.Result, error) {
			r, err := atomique.Compile(staged, a)
			if err != nil {
				return nil, err
			}
			return &core.Result{
				Stats: r.Stats, Breakdown: r.Breakdown, Duration: r.Duration,
				NumRydbergStages: r.NumRydbergStages,
			}, nil
		},
	})
	Register(&baselineCompiler{
		name:        "nalac",
		defaultArch: arch.Reference,
		splitStages: true,
		run: func(staged *circuit.Staged, a *arch.Architecture) (*core.Result, error) {
			r, err := nalac.Compile(staged, a)
			if err != nil {
				return nil, err
			}
			return &core.Result{
				Stats: r.Stats, Breakdown: r.Breakdown, Duration: r.Duration,
				NumRydbergStages: r.NumExposures,
			}, nil
		},
	})

	scRouter := func(coupling func() *sc.Coupling, params func() fidelity.Params) func(*circuit.Staged, *arch.Architecture) (*core.Result, error) {
		return func(staged *circuit.Staged, _ *arch.Architecture) (*core.Result, error) {
			r, err := sc.Compile(staged, coupling(), params())
			if err != nil {
				return nil, err
			}
			return &core.Result{Stats: r.Stats, Breakdown: r.Breakdown, Duration: r.Duration}, nil
		}
	}
	Register(&baselineCompiler{
		name:        "sc-heron",
		defaultArch: arch.Reference, // unused: the router carries its own coupling graph
		splitStages: false,
		run:         scRouter(sc.HeavyHex127, fidelity.SCHeron),
	})
	Register(&baselineCompiler{
		name:        "sc-grid",
		defaultArch: arch.Reference,
		splitStages: false,
		run:         scRouter(func() *sc.Coupling { return sc.Grid(11, 11) }, fidelity.SCGrid),
	})
}
