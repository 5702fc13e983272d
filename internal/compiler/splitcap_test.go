// The external test package breaks the import cycle: workload generators
// depend on the compiler registry, so staging tests that drive them live in
// compiler_test.
package compiler_test

import (
	"strconv"
	"testing"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/resynth"
	"zac/internal/workload"
)

// TestStageSplitCapWiderThanReference pushes a generated circuit whose
// Rydberg parallelism exceeds the zoned reference capacity through the
// registry's shaping rule: after splitting at StageSplitCap every stage must
// fit the architecture's site count with no gate lost or reordered.
func TestStageSplitCapWiderThanReference(t *testing.T) {
	capSites := arch.Reference().TotalSites()
	// A shuffle layer on 2×(cap+9) qubits packs cap+9 parallel CZs into one
	// Rydberg stage — wider than any zone can expose at once.
	n := 2 * (capSites + 9)
	c, err := workload.Build("shuffle:n=" + strconv.Itoa(n) + ",depth=2,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	staged, err := resynth.Preprocess(c)
	if err != nil {
		t.Fatal(err)
	}
	wide := 0
	for _, st := range staged.Stages {
		if st.Kind == circuit.RydbergStage && len(st.Gates) > capSites {
			wide++
		}
	}
	if wide == 0 {
		t.Fatalf("expected at least one Rydberg stage wider than %d sites", capSites)
	}

	baseline, err := compiler.Get("nalac")
	if err != nil {
		t.Fatal(err)
	}
	split := circuit.SplitRydbergStages(staged, compiler.StageSplitCap(baseline))
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, st := range split.Stages {
		if st.Kind == circuit.RydbergStage && len(st.Gates) > capSites {
			t.Fatalf("stage %d still holds %d gates (cap %d)", i, len(st.Gates), capSites)
		}
	}
	beforeOne, beforeTwo := staged.GateCounts()
	afterOne, afterTwo := split.GateCounts()
	if beforeOne != afterOne || beforeTwo != afterTwo {
		t.Fatalf("splitting changed gate counts: %d/%d → %d/%d", beforeOne, beforeTwo, afterOne, afterTwo)
	}
}

// TestStageSplitRule pins the registry's stage-shaping rule. At each
// compiler's default target the ZAC family and the neutral-atom baselines
// split to the zoned reference capacity and the SC routers keep flat
// staging. Off the default target the ZAC family follows the target's own
// site count, while the baselines keep the reference capacity.
func TestStageSplitRule(t *testing.T) {
	ref := arch.Reference().TotalSites()
	for name, want := range map[string]int{
		"zac": ref, "zac-vanilla": ref, "zac-dynplace": ref, "zac-dynplace-reuse": ref, "zac-advreuse": ref,
		"enola": ref, "atomique": ref, "nalac": ref,
		"sc-heron": 0, "sc-grid": 0,
	} {
		c, err := compiler.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := compiler.StageSplitCap(c); got != want {
			t.Errorf("%s: StageSplitCap = %d, want %d", name, got, want)
		}
	}

	small := arch.Arch1Small()
	if small.TotalSites() >= ref {
		t.Fatalf("Arch1Small has %d sites, want fewer than the reference's %d", small.TotalSites(), ref)
	}
	// shuffle:n=2(ref+9) packs ref+9 parallel CZs into one Rydberg stage.
	build := func() (*circuit.Circuit, error) {
		return workload.Build("shuffle:n=" + strconv.Itoa(2*(ref+9)) + ",depth=2,seed=3")
	}
	for name, want := range map[string]int{"zac": small.TotalSites(), "nalac": ref, "sc-grid": ref + 9} {
		c, err := compiler.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		staged, err := compiler.Request{Compiler: c, Arch: small, Build: build}.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		widest := 0
		for _, st := range staged.Stages {
			if st.Kind == circuit.RydbergStage && len(st.Gates) > widest {
				widest = len(st.Gates)
			}
		}
		if widest != want {
			t.Errorf("%s on %s: widest Rydberg stage holds %d gates, want %d", name, small.Name, widest, want)
		}
	}
}
