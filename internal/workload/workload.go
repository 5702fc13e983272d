// Package workload is the compiler's workload forge: deterministic, seeded
// circuit-family generators behind a process-wide registry that mirrors
// internal/compiler. Each family is addressed by a canonical spec string
// (e.g. "rb:n=32,depth=20,seed=7") that doubles as a cache key: the same
// spec reproduces a byte-identical circuit — and byte-identical OpenQASM via
// internal/qasm — on every run, so generated workloads cache, replay, and
// minimize exactly like the static benchmark suite. The differential fuzzer
// (internal/difftest, driven by cmd/zac-fuzz) seeds from SmokeSpecs and
// RandomSpec and mutates specs within each parameter's FuzzRange.
package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"zac/internal/circuit"
)

// Param describes one integer parameter of a generator family: its
// validation bounds and the range the random fuzzer draws from. Max == 0
// means unbounded above.
type Param struct {
	// Name is the spec key (e.g. "n", "depth", "seed").
	Name string
	// Default is the value used when the spec omits the key.
	Default int64
	// Min and Max bound accepted values (Max 0 = unbounded above).
	Min, Max int64
	// FuzzMin and FuzzMax bound the values the fuzzer draws randomly; see
	// FuzzRange for the fallback when they are unset.
	FuzzMin, FuzzMax int64
	// Desc is the one-line description printed by -list-workloads.
	Desc string
}

// FuzzRange returns the inclusive bounds random draws and mutations use:
// [FuzzMin, FuzzMax] when the schema declares a range, otherwise
// [Min, Default×4], widened to at least two values.
func (p Param) FuzzRange() (lo, hi int64) {
	lo, hi = p.FuzzMin, p.FuzzMax
	if hi <= lo {
		lo, hi = p.Min, p.Default*4
		if hi <= lo {
			hi = lo + 1
		}
	}
	return lo, hi
}

// Values maps parameter names to values, always fully populated (defaults
// filled in) by the time a Generator sees it.
type Values map[string]int64

// Normalizer is implemented by generators whose parameters carry
// cross-field constraints (e.g. qaoa's even vertex count). Normalize edits
// values in place and is applied before canonicalization, so a spec's
// canonical string — the cache key — always states the parameters of the
// circuit actually generated, and equivalent spellings alias one entry.
type Normalizer interface {
	Normalize(v Values)
}

// Generator is one circuit family. Implementations must be deterministic:
// the same Values always produce an identical circuit, across processes and
// platforms (the package's RNG is self-contained for exactly this reason).
type Generator interface {
	// Family returns the canonical family name used in specs.
	Family() string
	// Describe returns a one-line family description.
	Describe() string
	// Params returns the parameter schema in canonical (spec) order.
	Params() []Param
	// Generate builds the circuit for fully-populated, validated values.
	Generate(v Values) (*circuit.Circuit, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Generator{}
)

// Register adds a generator to the process-wide registry under its canonical
// family name, panicking on duplicates (registration is an init-time
// affair), mirroring the compiler registry's contract.
func Register(g Generator) {
	regMu.Lock()
	defer regMu.Unlock()
	name := canonical(g.Family())
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workload: duplicate registration of %q", name))
	}
	registry[name] = g
}

// canonical normalizes a family name for lookup: lower-case, trimmed.
func canonical(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Get resolves a generator by family name (case-insensitive).
func Get(family string) (Generator, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	g, ok := registry[canonical(family)]
	if !ok {
		return nil, fmt.Errorf("workload: unknown family %q (have %s)", family, strings.Join(familiesLocked(), ", "))
	}
	return g, nil
}

// Families returns the sorted canonical names of every registered family.
func Families() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return familiesLocked()
}

func familiesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build parses a spec string (the optional "spec:" surface prefix is
// accepted) and generates its circuit. The circuit's Name is the canonical
// spec, so downstream cache keys and emitted program names identify the
// exact workload.
func Build(spec string) (*circuit.Circuit, error) {
	s, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return s.Generate()
}

// List renders the registry as -list-workloads output: one line per family
// with its description, followed by one line per parameter with default and
// bounds — the same UX as -list-compilers, with schemas.
func List() string {
	var b strings.Builder
	for _, fam := range Families() {
		g, _ := Get(fam)
		fmt.Fprintf(&b, "%-10s %s\n", fam, g.Describe())
		for _, p := range g.Params() {
			bounds := fmt.Sprintf("min %d", p.Min)
			if p.Max > 0 {
				bounds = fmt.Sprintf("%d..%d", p.Min, p.Max)
			}
			fmt.Fprintf(&b, "  %-8s default %-6d (%s) %s\n", p.Name, p.Default, bounds, p.Desc)
		}
		fmt.Fprintf(&b, "  spec: %s\n", Default(fam))
	}
	return b.String()
}

// Default returns the canonical spec of a family at its default parameters
// (e.g. "rb:n=16,depth=12,seed=1").
func Default(family string) string {
	g, err := Get(family)
	if err != nil {
		return family
	}
	s := Spec{Family: canonical(family), Values: Values{}}
	for _, p := range g.Params() {
		s.Values[p.Name] = p.Default
	}
	return s.Canonical()
}
