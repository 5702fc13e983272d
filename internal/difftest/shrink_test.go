package difftest

import (
	"testing"

	"zac/internal/circuit"
)

// TestShrinkMinimizesPlantedBug plants a detectable "bug" (a marker CZ pair)
// inside a large random circuit and checks the shrinker isolates it.
func TestShrinkMinimizesPlantedBug(t *testing.T) {
	c := genCircuit(t, "clifford:n=12,gates=200,seed=3")
	// Plant a marker gate the clifford family never emits; the predicate is
	// position- and index-insensitive, as compiler invariant checks are.
	c.Gates = append(c.Gates[:100:100], append([]circuit.Gate{circuit.NewGate(circuit.CSWAP, []int{2, 9, 5})}, c.Gates[100:]...)...)
	fails := func(cand *circuit.Circuit) bool {
		for _, g := range cand.Gates {
			if g.Kind == circuit.CSWAP {
				return true
			}
		}
		return false
	}
	got := shrink(c, fails, 500)
	if !fails(got) {
		t.Fatal("shrink lost the failure")
	}
	if len(got.Gates) != 1 {
		t.Fatalf("shrink left %d gates, want 1", len(got.Gates))
	}
	if got.NumQubits != 3 {
		t.Fatalf("shrink left %d qubits, want 3 after compaction", got.NumQubits)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("shrunk circuit invalid: %v", err)
	}
}

func TestShrinkRespectsBudget(t *testing.T) {
	c := genCircuit(t, "clifford:n=8,gates=120,seed=5")
	checks := 0
	shrink(c, func(*circuit.Circuit) bool { checks++; return true }, 25)
	if checks > 25 {
		t.Fatalf("predicate ran %d times, budget 25", checks)
	}
}
