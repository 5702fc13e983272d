package workload

import (
	"testing"

	"zac/internal/compiler"
)

func TestRandomSpecReproducible(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 20; i++ {
		sa, sb := RandomSpec(a), RandomSpec(b)
		if sa.Canonical() != sb.Canonical() {
			t.Fatalf("draw %d: %s vs %s", i, sa.Canonical(), sb.Canonical())
		}
		if _, err := Parse(sa.Canonical()); err != nil {
			t.Fatalf("draw %d: random spec %s invalid: %v", i, sa.Canonical(), err)
		}
	}
}

// TestSmokeSpecsStayInRegistry guards the CI gate's pinned specs against
// family renames.
func TestSmokeSpecsStayInRegistry(t *testing.T) {
	if len(compiler.Names()) == 0 {
		t.Fatal("empty compiler registry")
	}
	for _, s := range SmokeSpecs() {
		if _, err := Parse(s); err != nil {
			t.Errorf("smoke spec %q: %v", s, err)
		}
	}
}

func TestFuzzRange(t *testing.T) {
	for _, tc := range []struct {
		p      Param
		lo, hi int64
	}{
		{Param{Min: 1, Default: 8, FuzzMin: 2, FuzzMax: 24}, 2, 24},
		{Param{Min: 1, Default: 8}, 1, 32},
		{Param{Min: 0, Default: 0}, 0, 1},
	} {
		if lo, hi := tc.p.FuzzRange(); lo != tc.lo || hi != tc.hi {
			t.Errorf("%+v: FuzzRange() = [%d, %d], want [%d, %d]", tc.p, lo, hi, tc.lo, tc.hi)
		}
	}
}
