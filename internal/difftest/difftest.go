// Package difftest is the differential compile oracle and the repo's one
// fuzz harness: it checks one circuit through the front end every compiler
// shares (QASM round trip, resynthesis), runs it through every selected
// registry compiler, and cross-checks structured invariants, turning the
// registry itself into a bug oracle — with ten compilers sharing one pass
// pipeline, *disagreement* between them (not any absolute number) is the
// signal, the same cross-configuration-comparison discipline RZBENCH
// applies to HPC architectures. The oracle classifies every disagreement
// into a typed Divergence, greedily shrinks the offending circuit to a
// minimal QASM reproduction, and optionally persists it to a corpus
// directory whose entries become regression tests (testdata/repros) and
// fuzz seeds.
//
// On top of the oracle, RunLoop adds a coverage-guided mutation loop:
// workload.Spec parameters and QASM-level gate mutations (splice, drop,
// reparameterize, retarget) are driven by the per-pass and planner-branch
// feature counters exported through internal/cover, and any input that
// reaches a feature no earlier input reached is kept as a seed. The
// `zac-fuzz` command and the `make fuzz-smoke` CI gate are the operational
// surfaces.
package difftest

import (
	"fmt"
	"strings"
)

// Class names one divergence category of the oracle's taxonomy.
type Class string

// The divergence taxonomy. Every disagreement the oracle can detect falls
// into exactly one class; the summary printed by `zac-fuzz` counts per
// class.
const (
	// ClassFrontend: the compiler-independent front end mishandled the
	// input, checked once per input — the QASM writer and parser disagree
	// (stage "qasm"), or resynthesis emits an invalid staged program
	// (stage "resynth"); either one, at ≤ 10 qubits, also fails when the
	// derived circuit prepares a different state.
	ClassFrontend Class = "frontend"
	// ClassCompile: a compiler rejected an input of at most 64 qubits,
	// a width every platform holds — whether or not another compiler
	// accepted it.
	ClassCompile Class = "compile"
	// ClassVerify: an emitted ZAIR program failed replay verification
	// (pickup consistency, AOD exclusivity, tone ordering, …).
	ClassVerify Class = "verify"
	// ClassAccounting: replay-derived resource accounting disagrees with
	// the result's reported counters — qubit conservation broken, or the
	// instruction stream's individual qubit movements differ from the
	// plan's TotalMoves.
	ClassAccounting Class = "accounting"
	// ClassDeterminism: two fresh compilations of the same input were not
	// byte-identical.
	ClassDeterminism Class = "determinism"
	// ClassFidelityOrder: an ablation preset beat the configuration it is
	// an ablation of beyond tolerance — removing an optimization must not
	// improve fidelity.
	ClassFidelityOrder Class = "fidelity-order"
	// ClassSanity: a single compiler's result is internally nonsensical
	// (fidelity outside [0,1], non-finite duration, negative counters).
	ClassSanity Class = "sanity"
)

// Classes lists the taxonomy in summary order.
func Classes() []Class {
	return []Class{ClassFrontend, ClassCompile, ClassVerify, ClassAccounting,
		ClassDeterminism, ClassFidelityOrder, ClassSanity}
}

// Divergence is one classified disagreement, carrying its minimized
// reproduction.
type Divergence struct {
	// Class is the taxonomy bucket.
	Class Class
	// Compiler names the offending compiler ("a>b" for cross-compiler
	// fidelity-ordering pairs, the front-end stage for ClassFrontend).
	Compiler string
	// Input identifies the originating input: a canonical workload spec or
	// a mutation label.
	Input string
	// Detail is the human-readable violation.
	Detail string
	// QASM is the OpenQASM source of the smallest known reproducing
	// circuit (the original input when shrinking is disabled).
	QASM string
	// Gates is the repro's gate count.
	Gates int
	// CorpusPath is where the repro was persisted ("" without a corpus
	// directory).
	CorpusPath string
}

// String renders the divergence as a one-line report plus the repro.
func (d Divergence) String() string {
	out := fmt.Sprintf("[%s] %s: input %s: %s (%d-gate repro)",
		d.Class, d.Compiler, d.Input, d.Detail, d.Gates)
	if d.CorpusPath != "" {
		out += "\n  corpus: " + d.CorpusPath
	}
	if d.QASM != "" {
		out += "\n" + indent(d.QASM, "  ")
	}
	return out
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

// Summary aggregates a run's divergences per class for the run report.
type Summary struct {
	PerClass map[Class]int
	Total    int
	Corpus   []string // paths of persisted repros, in discovery order
}

// Summarize buckets divergences by class.
func Summarize(divs []Divergence) Summary {
	s := Summary{PerClass: map[Class]int{}}
	for _, d := range divs {
		s.PerClass[d.Class]++
		s.Total++
		if d.CorpusPath != "" {
			s.Corpus = append(s.Corpus, d.CorpusPath)
		}
	}
	return s
}

// String renders the per-class counts in taxonomy order.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d divergences", s.Total)
	if s.Total == 0 {
		return b.String()
	}
	b.WriteString(" (")
	first := true
	for _, c := range Classes() {
		if n := s.PerClass[c]; n > 0 {
			if !first {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s: %d", c, n)
			first = false
		}
	}
	b.WriteString(")")
	return b.String()
}
