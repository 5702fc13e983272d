package difftest

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"zac/internal/circuit"
	"zac/internal/compiler"
)

// TestFrontendNaNAngle: circuit.Validate accepts rz(NaN) and qasm.Write
// emits it, but qasm.Parse rejects it — a front-end disagreement the
// oracle must report once, as a frontend divergence shrunk to the one
// offending gate.
func TestFrontendNaNAngle(t *testing.T) {
	c := circuit.New("rz-nan", 3)
	c.Gates = append(c.Gates,
		circuit.NewGate(circuit.H, []int{0}),
		circuit.NewGate(circuit.CZ, []int{0, 1}),
		circuit.NewGate(circuit.RZ, []int{2}, math.NaN()),
		circuit.NewGate(circuit.CZ, []int{1, 2}),
	)
	if err := c.Validate(); err != nil {
		t.Fatalf("circuit.Validate rejects rz(NaN); the test needs it accepted: %v", err)
	}
	o, err := New(Options{Compilers: []string{"zac", "zac-vanilla"}})
	if err != nil {
		t.Fatal(err)
	}
	divs, err := o.Check(context.Background(), c, "rz-nan")
	if err != nil {
		t.Fatal(err)
	}
	var qasmDivs []Divergence
	for _, d := range divs {
		if d.Class == ClassFrontend && d.Compiler == "qasm" {
			qasmDivs = append(qasmDivs, d)
		}
	}
	if len(qasmDivs) != 1 {
		t.Fatalf("want one frontend divergence at stage qasm, got %v", divs)
	}
	if d := qasmDivs[0]; d.Gates != 1 || !strings.Contains(d.QASM, "rz(NaN)") {
		t.Errorf("repro not shrunk to the rz(NaN) gate: %d gates\n%s", d.Gates, d.QASM)
	}
}

// TestEveryCompilerRejectingIsDivergence: an input within the agreement
// bound that no compiler accepts is a compile divergence even without a
// witness.
func TestEveryCompilerRejectingIsDivergence(t *testing.T) {
	o := NewWith([]compiler.Compiler{failCompiler{}}, Options{NoShrink: true})
	divs, err := o.Check(context.Background(), genCircuit(t, "rb:n=6,depth=4,seed=7"), "all-reject")
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) != 1 || divs[0].Class != ClassCompile || !strings.Contains(divs[0].Detail, "every compiler rejected") {
		t.Fatalf("want one witness-free compile divergence, got %v", divs)
	}
}

func TestCheckSpecUnknownSpec(t *testing.T) {
	o := NewWith(nil, Options{})
	if _, err := o.CheckSpec(context.Background(), "frobnicate:n=4"); err == nil {
		t.Fatal("expected harness error for an unknown family")
	}
}

func TestNewUnknownCompiler(t *testing.T) {
	if _, err := New(Options{Compilers: []string{"bogus"}}); err == nil {
		t.Fatal("expected harness error for unknown compiler")
	}
}

func TestCheckCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o, err := New(Options{Compilers: []string{"zac"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.CheckSpec(ctx, "rb:n=6,depth=3,seed=1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestContainedRecoversPanics pins the oracle's panic containment: a
// panicking front-end check becomes a reportable violation, and a
// panicking shrink predicate counts as "no longer fails".
func TestContainedRecoversPanics(t *testing.T) {
	err := checkFrontend(func(*circuit.Circuit) error { panic("boom") }, circuit.New("x", 1))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want contained panic", err)
	}
	if contained(func(*circuit.Circuit) bool { panic("boom") })(circuit.New("x", 1)) {
		t.Fatal("panicking predicate reported as still failing")
	}
}
