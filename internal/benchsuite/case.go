// Package benchsuite is the performance observatory of the reproduction
// (RZBENCH/openhpca-style): a declarative run matrix of low-level micro
// kernels (the PR-3 placement hot path) and application-level compilations
// (forge workload families × registry compilers × architectures), executed
// through the engine worker pool with warm-up and repetition control. Every
// record is stamped with a machine fingerprint and a commit, appended to a
// persistent JSON-lines store, and consumed by trend queries, markdown/HTML
// report generators, and a benchstat-style Mann-Whitney regression gate —
// so "measurably faster" is always a measured, statistically gated claim,
// and BENCH_N.json is one export of this system instead of the system
// itself.
package benchsuite

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/matching"
	"zac/internal/place"
	"zac/internal/resynth"
	"zac/internal/schedule"
	"zac/internal/workload"
)

// Kind classifies a matrix case: a low-level micro kernel or an
// application-level compilation.
type Kind string

// The case kinds of the matrix. KindPass records are never declared as
// cases: the runner derives them from a compile cell's pass probe, one
// "<case>/pass/<name>" record per pipeline pass.
const (
	KindMicro   Kind = "micro"
	KindCompile Kind = "compile"
	KindPass    Kind = "pass"
)

// Case is one cell of the run matrix: a named operation the runner times
// for a configurable number of repetitions. Setup cost (circuit generation,
// preprocessing) is paid once outside the timed region.
type Case struct {
	// Name is the stable identifier of the cell, e.g. "micro/jv_dense" or
	// "compile/zac/ref/rb:n=24,depth=16,seed=11". Store trends and gate
	// pairings key on it.
	Name string
	// Kind is the case's class (micro or compile).
	Kind Kind
	// ArchFP is the arch.Fingerprint of the architecture the case targets
	// ("" for kernels without one).
	ArchFP string
	// InnerIters is the number of operations folded into one timed
	// repetition; sub-millisecond kernels use > 1 so a repetition rises
	// above timer granularity. Recorded ns/op samples are per operation.
	InnerIters int
	// Procs, when positive, pins runtime.GOMAXPROCS to this value for the
	// duration of the cell (restored afterwards) — the scaling axis of the
	// multi-core cells. Because GOMAXPROCS is process-global, a matrix
	// containing any Procs > 0 cell must run with Workers == 1; Run refuses
	// otherwise. 0 leaves the runtime untouched.
	Procs int
	// setup builds the case's op closure; called once per run, outside
	// the timed region.
	setup func() (func(ctx context.Context) error, error)
	// passes, when non-nil, reports the per-pass timings of the most recent
	// op invocation. The runner samples it after every timed repetition and
	// emits one satellite "<case>/pass/<name>" record per pass, so the gate
	// can name the pass behind a compile-level regression.
	passes func() []core.PassTiming
}

// Micro returns the low-level kernel cases: the PR-3 placement hot path
// (JV dense/sparse assignment, SA initial placement, full BuildPlan),
// mirroring the go-test micro-benchmarks gate for gate so the observatory
// and `go test -bench` measure the same operations.
func Micro() []Case {
	refFP := arch.Reference().Fingerprint()
	cases := []Case{
		{
			Name: "micro/jv_dense", Kind: KindMicro, InnerIters: 50,
			setup: func() (func(context.Context) error, error) {
				r := rand.New(rand.NewSource(3))
				n := 80
				flat := make([]float64, n*n)
				for i := range flat {
					flat[i] = r.Float64() * 100
				}
				var s matching.Solver
				if _, _, err := s.SolveDense(n, n, flat); err != nil { // warm the scratch
					return nil, err
				}
				return func(context.Context) error {
					_, _, err := s.SolveDense(n, n, flat)
					return err
				}, nil
			},
		},
		{
			Name: "micro/jv_sparse", Kind: KindMicro, InnerIters: 50,
			setup: func() (func(context.Context) error, error) {
				r := rand.New(rand.NewSource(3))
				n, m, deg := 40, 400, 25
				rowStart := []int{0}
				var cols []int
				var costs []float64
				for i := 0; i < n; i++ {
					base := r.Intn(m - deg)
					for d := 0; d < deg; d++ {
						cols = append(cols, base+d)
						costs = append(costs, r.Float64()*100)
					}
					rowStart = append(rowStart, len(cols))
				}
				var s matching.Solver
				if _, _, err := s.SolveSparse(n, m, rowStart, cols, costs); err != nil {
					return nil, err
				}
				return func(context.Context) error {
					_, _, err := s.SolveSparse(n, m, rowStart, cols, costs)
					return err
				}, nil
			},
		},
		{
			Name: "micro/sa_initial", Kind: KindMicro, ArchFP: refFP, InnerIters: 1,
			setup: func() (func(context.Context) error, error) {
				a := arch.Reference()
				staged, err := stagedBenchmark("qft_n18")
				if err != nil {
					return nil, err
				}
				return func(context.Context) error {
					_, err := place.SAInitial(a, staged, 1000, rand.New(rand.NewSource(1)))
					return err
				}, nil
			},
		},
	}
	for _, name := range []string{"qft_n18", "ising_n42"} {
		name := name
		cases = append(cases, Case{
			Name: "micro/buildplan/" + name, Kind: KindMicro, ArchFP: refFP, InnerIters: 1,
			setup: func() (func(context.Context) error, error) {
				a := arch.Reference()
				staged, err := stagedBenchmark(name)
				if err != nil {
					return nil, err
				}
				return func(ctx context.Context) error {
					_, err := place.BuildPlan(ctx, a, staged, place.Default())
					return err
				}, nil
			},
		})
	}
	// The multi-core scaling cells: BuildPlan with eight SA restarts plus
	// the full schedule pass, pinned at GOMAXPROCS 1 and 8 with a matching
	// worker budget. Comparing a cell against itself across commits catches
	// scaling regressions; the gate refuses to compare gmp1 against gmp8.
	for _, name := range []string{"qft_n18", "ising_n42"} {
		for _, procs := range []int{1, 8} {
			name, procs := name, procs
			cases = append(cases, Case{
				Name: fmt.Sprintf("micro/buildplan_sched/%s/gmp%d", name, procs),
				Kind: KindMicro, ArchFP: refFP, InnerIters: 1, Procs: procs,
				setup: func() (func(context.Context) error, error) {
					a := arch.Reference()
					staged, err := stagedBenchmark(name)
					if err != nil {
						return nil, err
					}
					opts := place.Default()
					opts.SARestarts = 8
					opts.Workers = procs
					return func(ctx context.Context) error {
						plan, err := place.BuildPlan(ctx, a, staged, opts)
						if err != nil {
							return err
						}
						_, err = schedule.BuildWithOptions(ctx, a, staged, plan, schedule.Options{Workers: procs})
						return err
					}, nil
				},
			})
		}
	}
	return cases
}

// stagedBenchmark preprocesses one built-in paper benchmark into the staged
// form the placement kernels consume.
func stagedBenchmark(name string) (*circuit.Staged, error) {
	bm, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return resynth.Preprocess(bm.Build())
}

// Architectures names the target architectures the compile matrix can
// sweep. "default" resolves per compiler (its DefaultArch, or the paper's
// zoned reference); the named entries force a specific target and apply to
// the ZAC family only — baselines and SC routers are monolithic-by-design
// and always compile for their own target.
var Architectures = map[string]func() *arch.Architecture{
	"ref":    arch.Reference,
	"triple": arch.ReferenceTriple,
	"mono":   arch.Monolithic,
}

// ArchNames lists the selectable architecture names, sorted, with "default"
// first.
func ArchNames() []string {
	names := []string{"default"}
	var rest []string
	for n := range Architectures {
		rest = append(rest, n)
	}
	sort.Strings(rest)
	return append(names, rest...)
}

// Compile expands the application-level matrix: every forge workload spec ×
// every named registry compiler × every named architecture. Specs are
// canonicalized so the same workload always produces the same case name.
// Non-ZAC compilers pin their own target architecture, so for them only the
// "default" arch cell is emitted (a forced-arch cell would silently measure
// the same thing twice).
func Compile(specs, compilers, archs []string) ([]Case, error) {
	if len(archs) == 0 {
		archs = []string{"default"}
	}
	var cases []Case
	for _, spec := range specs {
		parsed, err := workload.Parse(spec)
		if err != nil {
			return nil, err
		}
		canon := parsed.Canonical()
		for _, name := range compilers {
			comp, err := compiler.Get(name)
			if err != nil {
				return nil, err
			}
			_, zacFamily := compiler.Setting(comp.Name())
			for _, archName := range archs {
				target, forced, err := resolveArch(comp, archName)
				if err != nil {
					return nil, err
				}
				if forced && !zacFamily {
					continue // monolithic compilers ignore forced targets
				}
				comp, parsed, canon, archName, target := comp, parsed, canon, archName, target
				// lastPasses carries the most recent compilation's per-pass
				// timings from the op closure to the pass probe; each cell
				// owns its own variable and the runner calls op and probe
				// from one goroutine, so no synchronization is needed.
				var lastPasses []core.PassTiming
				cases = append(cases, Case{
					Name:       fmt.Sprintf("compile/%s/%s/%s", comp.Name(), archName, canon),
					Kind:       KindCompile,
					ArchFP:     target.Fingerprint(),
					InnerIters: 1,
					passes:     func() []core.PassTiming { return lastPasses },
					setup: func() (func(context.Context) error, error) {
						staged, err := compiler.Request{Compiler: comp, Arch: target, Build: parsed.Generate}.Prepare()
						if err != nil {
							return nil, fmt.Errorf("%s: %w", canon, err)
						}
						return func(ctx context.Context) error {
							r, err := comp.Compile(ctx, staged, target, compiler.Options{})
							if r != nil {
								lastPasses = r.Passes
							}
							return err
						}, nil
					},
				})
			}
		}
	}
	return cases, nil
}

// resolveArch maps an architecture name to a concrete target for one
// compiler. "default" resolves to compiler.TargetArch; named entries force
// that architecture (forced=true).
func resolveArch(c compiler.Compiler, name string) (*arch.Architecture, bool, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" || name == "default" {
		return compiler.TargetArch(c), false, nil
	}
	build, ok := Architectures[name]
	if !ok {
		return nil, false, fmt.Errorf("benchsuite: unknown architecture %q (have %s)", name, strings.Join(ArchNames(), ", "))
	}
	return build(), true, nil
}

// DefaultSpecs is the forge sweep of the full matrix: one pinned spec per
// family at paper-suite-comparable sizes (the same pins the experiment
// harness and fuzzer use).
func DefaultSpecs() []string {
	return []string{
		"clifford:n=24,gates=220,t=20,seed=11",
		"rb:n=24,depth=16,seed=11",
		"shuffle:n=32,depth=12,seed=11",
		"qaoa:n=32,p=2,seed=11",
		"ising:n=64,layers=2",
	}
}

// SmokeSpecs is the tiny forge subset of the smoke matrix — small enough
// that a full smoke run (including repetitions) stays in CI-seconds.
func SmokeSpecs() []string {
	return []string{"rb:n=8,depth=4,seed=1", "ising:n=12,layers=1"}
}

// Matrix builds the selected case set. kinds selects "micro", "compile", or
// both (nil/empty = both); compile expansion uses the given specs,
// compilers and architectures (empty compilers defaults to "zac", empty
// specs to DefaultSpecs).
func Matrix(kinds []string, specs, compilers, archs []string) ([]Case, error) {
	want := map[string]bool{}
	for _, k := range kinds {
		want[strings.ToLower(strings.TrimSpace(k))] = true
	}
	all := len(want) == 0 || want["all"]
	var cases []Case
	if all || want[string(KindMicro)] {
		cases = append(cases, Micro()...)
	}
	if all || want[string(KindCompile)] {
		if len(specs) == 0 {
			specs = DefaultSpecs()
		}
		if len(compilers) == 0 {
			compilers = []string{"zac"}
		}
		cc, err := Compile(specs, compilers, archs)
		if err != nil {
			return nil, err
		}
		cases = append(cases, cc...)
	}
	return cases, nil
}

// SmokeMatrix is the 1-to-few-second matrix CI runs: the two JV kernels
// plus ZAC over the smoke specs on the default architecture.
func SmokeMatrix() ([]Case, error) {
	micro := Micro()
	cases := []Case{micro[0], micro[1]} // jv_dense, jv_sparse
	cc, err := Compile(SmokeSpecs(), []string{"zac"}, nil)
	if err != nil {
		return nil, err
	}
	return append(cases, cc...), nil
}
