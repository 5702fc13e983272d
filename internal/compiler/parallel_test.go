// External test package: the wide forge input comes from the workload
// generators, which import the compiler registry.
package compiler_test

import (
	"context"
	"runtime"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/workload"
)

// preparedFor stages a circuit for c the way every compile surface does.
func preparedFor(t *testing.T, c compiler.Compiler, build func() (*circuit.Circuit, error)) *circuit.Staged {
	t.Helper()
	staged, err := compiler.Request{Compiler: c, Build: build}.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	return staged
}

// benchBuild builds a named paper benchmark circuit.
func benchBuild(t *testing.T, name string) func() (*circuit.Circuit, error) {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return func() (*circuit.Circuit, error) { return b.Build(), nil }
}

// TestParallelByteIdentity is the determinism contract of the ISSUE-9
// parallelism: every registry compiler produces byte-identical output
// whether it runs sequentially (Workers=1 on one proc) or with a full
// worker budget on several procs. Workers is a speed-only knob; only
// SARestarts may change the compiled bytes.
func TestParallelByteIdentity(t *testing.T) {
	ambient := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(ambient)
	ctx := context.Background()

	buildHash := func(t *testing.T, name, circ string, build func() (*circuit.Circuit, error), procs int, opts compiler.Options) string {
		t.Helper()
		c, err := compiler.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(ambient)
		r, err := c.Compile(ctx, preparedFor(t, c, build), compiler.TargetArch(c), opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, circ, err)
		}
		return forgeResultHash(t, r)
	}
	compileHash := func(t *testing.T, name, circ string, procs int, opts compiler.Options) string {
		t.Helper()
		return buildHash(t, name, circ, benchBuild(t, circ), procs, opts)
	}

	for _, name := range compiler.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			seq := compileHash(t, name, "qft_n18", 1, compiler.Options{Workers: 1})
			par := compileHash(t, name, "qft_n18", 4, compiler.Options{Workers: 4})
			if seq != par {
				t.Errorf("Workers=4 on 4 procs changed the output of %s", name)
			}
		})
	}

	// A wide forge input: every placement solve of this shuffle has at
	// least 64 rows, and at Workers=4 its schedule builds the conflict
	// graph in parallel.
	t.Run("zac/shuffle-wide", func(t *testing.T) {
		const spec = "shuffle:n=128,depth=4"
		build := func() (*circuit.Circuit, error) { return workload.Build(spec) }
		seq := buildHash(t, "zac", spec, build, 1, compiler.Options{Workers: 1})
		par := buildHash(t, "zac", spec, build, 4, compiler.Options{Workers: 4})
		if seq != par {
			t.Errorf("Workers=4 on 4 procs changed the output of zac on %s", spec)
		}
	})

	// The restart axis: SARestarts changes the plan deterministically —
	// the same value must hash identically at any worker budget, and the
	// default must match the explicit single chain.
	t.Run("zac/sa-restarts", func(t *testing.T) {
		for _, circ := range []string{"qft_n18", "ising_n42"} {
			base := compileHash(t, "zac", circ, 1, compiler.Options{Workers: 1})
			if got := compileHash(t, "zac", circ, 1, compiler.Options{SARestarts: 1, Workers: 1}); got != base {
				t.Errorf("%s: SARestarts=1 differs from the default single chain", circ)
			}
			r3seq := compileHash(t, "zac", circ, 1, compiler.Options{SARestarts: 3, Workers: 1})
			r3par := compileHash(t, "zac", circ, 4, compiler.Options{SARestarts: 3, Workers: 4})
			if r3seq != r3par {
				t.Errorf("%s: SARestarts=3 output depends on the worker budget", circ)
			}
		}
	})
}

// TestParallelArchIdentity pins that a forced non-reference architecture is
// equally worker-independent — the triple-trap target drives different
// matching shapes through the placement solves and the racing SA chains.
func TestParallelArchIdentity(t *testing.T) {
	ctx := context.Background()
	c, err := compiler.Get("zac")
	if err != nil {
		t.Fatal(err)
	}
	a := arch.ReferenceTriple()
	staged := preparedFor(t, c, benchBuild(t, "wstate_n27"))
	var hashes []string
	for _, workers := range []int{1, 4} {
		r, err := c.Compile(ctx, staged, a, compiler.Options{Workers: workers, SARestarts: 2})
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, forgeResultHash(t, r))
	}
	if hashes[0] != hashes[1] {
		t.Error("triple-trap compile differs between Workers=1 and Workers=4")
	}
}
