// The registry-side extension of the golden determinism suite: ZAC output
// routed through the compiler registry and the pass pipeline must stay
// byte-identical to the plans and programs pinned in
// testdata/determinism.golden. It lives in an external test package because
// internal/compiler imports core.
package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/engine"
	"zac/internal/place"
)

func goldenHashes(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/determinism.golden")
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func sha(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestRegistryMatchesGolden compiles the golden corpus through a
// compiler.Request for the registry's zac compiler — with pass-artifact
// memoization active, the exact serve/harness configuration — and checks
// plan and ZAIR hashes against the same golden file TestGoldenDeterminism
// pins, so the registry seam provably cannot drift from the direct core
// entry point.
func TestRegistryMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus compiles the five-circuit subset; skipped in -short")
	}
	want := goldenHashes(t)
	zc, err := compiler.Get("zac")
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Reference()
	arts := compiler.NewArtifacts(engine.NewTiered(0))
	for _, name := range []string{"bv_n14", "ghz_n23", "ising_n42", "qft_n18", "wstate_n27"} {
		bm, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := compiler.Request{
			Compiler: zc,
			Arch:     a,
			Build:    func() (*circuit.Circuit, error) { return bm.Build(), nil },
			Options:  compiler.Options{Key: name, Artifacts: arts},
		}.Compile(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		planHash := sha(t, struct {
			Initial []arch.TrapRef
			Steps   []place.Step
		}{res.Plan.Initial, res.Plan.Steps})
		if g := want["plan/"+name+"/"+core.SettingSADynPlaceReuse]; g != planHash {
			t.Errorf("%s: plan hash through registry differs from golden\n  golden:  %s\n  current: %s", name, g, planHash)
		}
		progHash := sha(t, res.Program)
		if g := want["zair/"+name+"/"+core.SettingSADynPlaceReuse]; g != progHash {
			t.Errorf("%s: ZAIR hash through registry differs from golden\n  golden:  %s\n  current: %s", name, g, progHash)
		}
	}
}
