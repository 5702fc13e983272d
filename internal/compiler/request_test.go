package compiler_test

import (
	"context"
	"testing"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/workload"
)

// TestRequestKey pins what the whole-compile cache key sees: every input
// that changes the compiled output changes the key, and nothing else does.
func TestRequestKey(t *testing.T) {
	get := func(name string) compiler.Compiler {
		c, err := compiler.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	noBuild := func() (*circuit.Circuit, error) {
		t.Fatal("Key built the circuit")
		return nil, nil
	}
	req := func(name string, mut func(*compiler.Request)) compiler.Request {
		r := compiler.Request{Compiler: get(name), Build: noBuild, Options: compiler.Options{Key: "bv_n14"}}
		if mut != nil {
			mut(&r)
		}
		return r
	}
	adv := core.Default()
	adv.Place.AdvancedReuse = true
	vanilla := core.OptionsFor(core.SettingVanilla)

	base := req("zac", nil).Key()
	for _, tc := range []struct {
		name string
		r    compiler.Request
		same bool
	}{
		{"compiler: baseline", req("enola", nil), false},
		{"compiler: ablation preset", req("zac-vanilla", nil), false},
		{"circuit", req("zac", func(r *compiler.Request) { r.Options.Key = "ghz_n23" }), false},
		{"arch", req("zac", func(r *compiler.Request) { r.Arch = arch.ReferenceTriple() }), false},
		{"SARestarts>1", req("zac", func(r *compiler.Request) { r.Options.SARestarts = 3 }), false},
		{"Core override", req("zac", func(r *compiler.Request) { r.Options.Core = &adv }), false},
		{"Workers", req("zac", func(r *compiler.Request) { r.Options.Workers = 4 }), true},
		{"SARestarts=1", req("zac", func(r *compiler.Request) { r.Options.SARestarts = 1 }), true},
		{"explicit default arch", req("zac", func(r *compiler.Request) { r.Arch = arch.Reference() }), true},
		{"Core equal to the preset", req("zac", func(r *compiler.Request) { d := core.Default(); r.Options.Core = &d }), true},
	} {
		if got := tc.r.Key() == base; got != tc.same {
			t.Errorf("%s: key equal to base = %v, want %v\n  base: %s\n  got:  %s", tc.name, got, tc.same, base, tc.r.Key())
		}
	}

	// A preset and the same options passed as a Core override are one
	// configuration, so they share one entry.
	if a, b := req("zac-vanilla", nil).Key(), req("zac", func(r *compiler.Request) { r.Options.Core = &vanilla }).Key(); a != b {
		t.Errorf("zac-vanilla and zac with the vanilla options differ:\n  %s\n  %s", a, b)
	}
	// The baselines read neither knob.
	if a, b := req("enola", nil).Key(), req("enola", func(r *compiler.Request) { r.Options.SARestarts = 3; r.Options.Workers = 2 }).Key(); a != b {
		t.Errorf("enola key depends on ZAC-only options:\n  %s\n  %s", a, b)
	}
}

// TestRequestCompileWideZAC compiles a circuit whose Rydberg stages are
// wider than the reference architecture's entanglement zone: Request splits
// the ZAC input to the target's site count, so the compile succeeds on every
// surface instead of failing placement.
func TestRequestCompileWideZAC(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 298-qubit circuit; skipped in -short")
	}
	zac, err := compiler.Get("zac")
	if err != nil {
		t.Fatal(err)
	}
	r := compiler.Request{
		Compiler: zac,
		Build:    func() (*circuit.Circuit, error) { return workload.Build("shuffle:n=298") },
		Options:  compiler.Options{Key: "shuffle:n=298"},
	}
	res, err := r.Compile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 || res.Breakdown.Total <= 0 {
		t.Errorf("implausible result: duration %g µs, fidelity %g", res.Duration, res.Breakdown.Total)
	}
}
