package compiler

import (
	"context"
	"fmt"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/core"
	"zac/internal/resynth"
)

// Request is one compilation as every surface expresses it: which compiler,
// for which architecture, on which circuit, under which options. It is the
// single path from a raw circuit to a compiled result — Prepare shapes the
// input, Key names the result, Compile prepares and compiles — so the CLI,
// the service, the experiment harness, the fuzzers and the observatory
// cannot disagree about either.
type Request struct {
	Compiler Compiler
	// Arch is the architecture compiled for; nil selects TargetArch(Compiler).
	Arch *arch.Architecture
	// Build constructs the raw circuit. Prepare calls it lazily, at most once
	// per staged-artifact miss, so callers can defer expensive generation
	// into the compile itself.
	Build func() (*circuit.Circuit, error)
	// Options carries the cross-compiler knobs. Options.Key is the circuit
	// identity — a benchmark name, a canonical workload spec, or a content
	// digest: it names the circuit in Key and keys the staged and placement
	// artifacts in Options.Artifacts.
	Options Options
}

// Target returns the architecture the request compiles for.
func (r Request) Target() *arch.Architecture {
	if r.Arch != nil {
		return r.Arch
	}
	return TargetArch(r.Compiler)
}

// Prepare builds the circuit and shapes it into the compiler's staged input:
// resynthesis to {CZ, U3}, ASAP Rydberg staging, and the stage split of
// splitSites, validated. The result is memoized through
// Options.Artifacts.Staged under Options.Key, so every request sharing a
// circuit and a split reads one instance.
func (r Request) Prepare() (*circuit.Staged, error) {
	return r.Options.Artifacts.Staged(r.Options.Key, splitSites(r.Compiler, r.Target()), func() (*circuit.Staged, error) {
		c, err := r.Build()
		if err != nil {
			return nil, err
		}
		return resynth.Preprocess(c)
	})
}

// Key renders the request's whole-compile cache key, the only one in the
// repository. It holds exactly what changes the compiled output: the
// circuit identity, the architecture fingerprint, and the options the
// compiler reads. A ZAC-family compiler is a preset of place options, so its
// key carries the canonical resolved options instead of its name — the
// execution-only Workers knob drops out, SARestarts 0 and 1 coincide, and
// two spellings of one configuration share an entry. The baselines read no
// options, so their key is the compiler name. Key never builds the circuit.
func (r Request) Key() string {
	fp := r.Target().Fingerprint()
	if z, ok := r.Compiler.(*zacCompiler); ok {
		return fmt.Sprintf("zac|%s|arch=%s|place=%+v", r.Options.Key, fp, z.options(r.Options).Place.Canonical())
	}
	return fmt.Sprintf("%s|%s|arch=%s", r.Compiler.Name(), r.Options.Key, fp)
}

// Compile prepares the input and compiles it for the request's target.
func (r Request) Compile(ctx context.Context) (*core.Result, error) {
	r.Arch = r.Target() // resolve once: TargetArch builds a fresh architecture
	staged, err := r.Prepare()
	if err != nil {
		return nil, err
	}
	return r.Compiler.Compile(ctx, staged, r.Arch, r.Options)
}

// splitSites is the stage-shaping rule: the Rydberg-stage gate cap a
// compiler's staged input is split to when compiling for a. The ZAC family
// splits to a's own site count — its place pass cannot expose a wider stage
// at once, so the split only rescues inputs that would otherwise fail. The
// neutral-atom baselines split to the zoned reference capacity, the paper's
// evaluation shaping, whatever their target. The SC routers consume the
// flat staging (0 = no split).
func splitSites(c Compiler, a *arch.Architecture) int {
	switch c := c.(type) {
	case *zacCompiler:
		return a.TotalSites()
	case *baselineCompiler:
		if c.splitStages {
			return arch.Reference().TotalSites()
		}
	}
	return 0
}
