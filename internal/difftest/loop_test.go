package difftest

import (
	"context"
	"strings"
	"testing"

	"zac/internal/workload"
)

// TestOracleCleanOnSmokeSpecs is the oracle's own regression gate: the
// real registry produces zero divergences over the pinned smoke specs.
// This is the same configuration `make fuzz-smoke` runs in CI.
func TestOracleCleanOnSmokeSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every smoke spec twice with every compiler; skipped in -short")
	}
	o, err := New(Options{NoShrink: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range workload.SmokeSpecs() {
		divs, err := o.CheckSpec(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, d := range divs {
			t.Errorf("%s: %s", spec, d)
		}
	}
}

// TestCheckSpecSmokeOneCompiler runs the pinned smoke specs through the
// oracle with the zac compiler alone, so the front-end checks (QASM round
// trip, resynthesis validity) and zac's per-compiler checks stay covered
// in -short runs; the whole registry is TestOracleCleanOnSmokeSpecs.
func TestCheckSpecSmokeOneCompiler(t *testing.T) {
	o, err := New(Options{Compilers: []string{"zac"}, NoShrink: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range workload.SmokeSpecs() {
		divs, err := o.CheckSpec(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, d := range divs {
			t.Errorf("%s: %s", spec, d)
		}
	}
}

// TestCheckSpecAllCompilersOneSpec exercises the whole registry on one
// tiny spec, including the cross-compiler checks, without -short's skip.
func TestCheckSpecAllCompilersOneSpec(t *testing.T) {
	o, err := New(Options{NoShrink: true})
	if err != nil {
		t.Fatal(err)
	}
	divs, err := o.CheckSpec(context.Background(), "rb:n=6,depth=3,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range divs {
		t.Errorf("%s", d)
	}
}

// TestLoopReachesNewPlannerBranch pins the coverage-guided loop's reason
// to exist: starting from the pinned smoke specs, mutation reaches at
// least one planner feature the seeds alone never hit. The run is fully
// deterministic (splitmix64 stream from LoopOptions.Seed), so this is a
// regression test, not a flake: seed 1 mutates hiqp up to logblocks=6,
// whose 64-wide stages overflow the gate-zone δ-expansion box.
func TestLoopReachesNewPlannerBranch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~50 oracle checks; skipped in -short")
	}
	o, err := New(Options{
		Compilers: []string{"zac", "zac-vanilla", "zac-dynplace", "zac-dynplace-reuse", "zac-advreuse"},
		NoShrink:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := o.RunLoop(context.Background(), LoopOptions{Iterations: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Divergences) != 0 {
		for _, d := range lr.Divergences {
			t.Errorf("unexpected divergence: %s", d)
		}
	}
	if len(lr.NewFeatures) == 0 {
		t.Fatalf("mutation reached no feature beyond the seeds; report:\n%s", lr)
	}
	found := false
	for _, f := range lr.NewFeatures {
		if strings.HasPrefix(f, "place:") {
			found = true
		}
	}
	if !found {
		t.Errorf("no planner branch among new features %v", lr.NewFeatures)
	}
	if len(lr.Kept) == 0 {
		t.Error("no mutated input was kept as a seed")
	}
	if len(lr.BaselineFeatures) == 0 {
		t.Error("seeds reached no features — the coverage probe is dead")
	}
}

// TestLoopDeterministic: the same seed replays the same run byte for byte.
func TestLoopDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the mutation loop twice; skipped in -short")
	}
	o, err := New(Options{Compilers: []string{"zac"}, NoShrink: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := LoopOptions{Seeds: []string{"rb:n=6,depth=4,seed=7"}, Iterations: 12, Seed: 42}
	a, err := o.RunLoop(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.RunLoop(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("two runs with the same seed differ:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

// TestLoopChecksWideSeeds: a seed wider than every SC coupling still gets
// the front-end and per-compiler checks, while the SC router's capacity
// rejection on it is not a compile divergence.
func TestLoopChecksWideSeeds(t *testing.T) {
	o, err := New(Options{Compilers: []string{"zac", "sc-grid"}, NoShrink: true})
	if err != nil {
		t.Fatal(err)
	}
	const spec = "rb:n=130,depth=1,seed=1"
	if out := o.compileOnce(context.Background(), mustGet(t, "sc-grid"), genCircuit(t, spec)); out.err == nil {
		t.Fatalf("sc-grid compiled %s; the test needs a capacity rejection", spec)
	}
	lr, err := o.RunLoop(context.Background(), LoopOptions{Seeds: []string{spec}})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Inputs != 1 {
		t.Errorf("Inputs=%d, want 1", lr.Inputs)
	}
	if lr.Features["pass:place"] == 0 {
		t.Errorf("zac never placed the wide seed; features: %v", lr.Features)
	}
	for _, d := range lr.Divergences {
		t.Errorf("unexpected divergence: %s", d)
	}
}

// TestMutateSpecStaysInSchema: a thousand mutations of every smoke spec
// all reparse and regenerate.
func TestMutateSpecStaysInSchema(t *testing.T) {
	r := workload.NewRNG(3)
	for _, s := range workload.SmokeSpecs() {
		spec, err := workload.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		cur := spec
		for i := 0; i < 200; i++ {
			cur = MutateSpec(r, cur)
			if _, err := workload.Parse(cur.Canonical()); err != nil {
				t.Fatalf("%s: mutation %d produced unparseable spec %q: %v", s, i, cur.Canonical(), err)
			}
		}
	}
}

// TestMutateCircuitStaysValid: mutations keep gates arity-correct and
// qubits in range, and never alias the parent's slices.
func TestMutateCircuitStaysValid(t *testing.T) {
	r := workload.NewRNG(5)
	parent := genCircuit(t, "qaoa:n=10,p=2,seed=7")
	orig := len(parent.Gates)
	for i := 0; i < 300; i++ {
		m := MutateCircuit(r, parent)
		if len(parent.Gates) != orig {
			t.Fatalf("mutation %d modified the parent", i)
		}
		for gi, g := range m.Gates {
			if len(g.Qubits) != g.Kind.NumQubits() || len(g.Params) != g.Kind.NumParams() {
				t.Fatalf("mutation %d gate %d: malformed %v", i, gi, g)
			}
			seen := map[int]bool{}
			for _, q := range g.Qubits {
				if q < 0 || q >= m.NumQubits || seen[q] {
					t.Fatalf("mutation %d gate %d: bad qubits %v", i, gi, g.Qubits)
				}
				seen[q] = true
			}
		}
	}
}
