package difftest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/qasm"
	"zac/internal/resynth"
	"zac/internal/sim"
	"zac/internal/workload"
	"zac/internal/zair"
)

// Defaults of the oracle's tunables.
const (
	// DefaultFidelityTol is the relative slack of the ablation-ordering
	// check, measured in log-fidelity (cost) domain: an ablation may
	// undercut its superset configuration's cost by up to this fraction
	// before the disagreement counts as a divergence. The heuristics (SA,
	// dynamic matching, advanced reuse) are not provably monotone on
	// adversarial inputs; calibration over 300 random forge specs observed
	// a worst legitimate undercut of 4.3%, so the default carries ~3.5×
	// headroom.
	DefaultFidelityTol = 0.15
	// fidelityAbsSlack is the absolute cost slack added on top of the
	// relative tolerance so shallow circuits (cost near zero, where any
	// relative bound degenerates) don't produce noise. 0.05 in cost is a
	// ~5% fidelity factor.
	fidelityAbsSlack = 0.05
	// DefaultMaxShrinkChecks bounds the predicate evaluations — each one
	// or two full compiles — spent minimizing one divergence.
	DefaultMaxShrinkChecks = 120
	// agreementMaxQubits bounds the widths the compile-agreement check
	// covers. Above ~64 qubits the platforms' capacity limits legitimately
	// diverge (the SC couplings hold 121–127 qubits), which would turn
	// ClassCompile into noise. Every other check runs at any width.
	agreementMaxQubits = 64
	// simMaxQubits bounds the widths the front-end checks simulate for
	// statevector equivalence.
	simMaxQubits = 10
)

// Options configures an Oracle. The zero value checks the whole registry
// with default tolerances and no corpus persistence.
type Options struct {
	// Compilers names the registry compilers to cross-check; empty selects
	// the whole registry.
	Compilers []string
	// FidelityTol is the relative slack of the ablation-ordering check
	// (≤ 0 selects DefaultFidelityTol).
	FidelityTol float64
	// NoShrink reports divergences on the original input without
	// minimizing.
	NoShrink bool
	// MaxShrinkChecks bounds predicate evaluations per shrink (≤ 0 selects
	// DefaultMaxShrinkChecks).
	MaxShrinkChecks int
	// CorpusDir, when non-empty, persists each minimized repro as a
	// commented QASM file in this directory.
	CorpusDir string
}

func (o Options) fidelityTol() float64 {
	if o.FidelityTol <= 0 {
		return DefaultFidelityTol
	}
	return o.FidelityTol
}

func (o Options) maxShrinkChecks() int {
	if o.MaxShrinkChecks <= 0 {
		return DefaultMaxShrinkChecks
	}
	return o.MaxShrinkChecks
}

// Oracle cross-checks compilations of one circuit across a fixed compiler
// set. Construct with New (registry names) or NewWith (explicit compilers,
// used by tests to inject misbehaving stubs).
type Oracle struct {
	comps []compiler.Compiler
	opts  Options
}

// New resolves opts.Compilers against the registry (whole registry when
// empty) and returns the oracle. Unknown names error with the valid list.
func New(opts Options) (*Oracle, error) {
	names := opts.Compilers
	if len(names) == 0 {
		names = compiler.Names()
	}
	comps := make([]compiler.Compiler, 0, len(names))
	for _, n := range names {
		c, err := compiler.Get(n)
		if err != nil {
			return nil, err
		}
		comps = append(comps, c)
	}
	return NewWith(comps, opts), nil
}

// NewWith builds an oracle over an explicit compiler set, bypassing the
// registry — the seam tests use to inject intentionally broken compilers.
func NewWith(comps []compiler.Compiler, opts Options) *Oracle {
	return &Oracle{comps: comps, opts: opts}
}

// Compilers returns the names of the oracle's compiler set, in check order.
func (o *Oracle) Compilers() []string {
	out := make([]string, len(o.comps))
	for i, c := range o.comps {
		out[i] = c.Name()
	}
	return out
}

// CheckSpec generates the spec's circuit and cross-checks it. Spec parse
// and generation problems are harness errors, not divergences.
func (o *Oracle) CheckSpec(ctx context.Context, spec string) ([]Divergence, error) {
	parsed, err := workload.Parse(spec)
	if err != nil {
		return nil, err
	}
	c, err := parsed.Generate()
	if err != nil {
		return nil, err
	}
	return o.Check(ctx, c, parsed.Canonical())
}

// outcome is one compilation attempt's observable result.
type outcome struct {
	res  *compileResult
	err  error
	hash string
}

// compileResult carries the fields the cross-checks read.
type compileResult struct {
	program     *zair.Program
	total       float64
	breakdown   map[string]float64
	duration    float64
	totalMoves  int
	reusedGates int
	stages      int
	resolve     zair.PosResolver
}

// compileOnce compiles the circuit through compiler.Request, the path every
// surface takes, containing panics — the compilers are being fed
// adversarial inputs.
func (o *Oracle) compileOnce(ctx context.Context, comp compiler.Compiler, c *circuit.Circuit) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{err: fmt.Errorf("compile panicked: %v", r)}
		}
	}()
	req := compiler.Request{Compiler: comp, Build: func() (*circuit.Circuit, error) { return c, nil }}
	res, err := req.Compile(ctx)
	if err != nil {
		return outcome{err: err}
	}
	cr := &compileResult{
		program: res.Program,
		total:   res.Breakdown.Total,
		breakdown: map[string]float64{
			"1Q": res.Breakdown.OneQ, "2Q": res.Breakdown.TwoQ,
			"excite": res.Breakdown.Excite, "transfer": res.Breakdown.Transfer,
			"decohere": res.Breakdown.Decohere, "total": res.Breakdown.Total,
		},
		duration:    res.Duration,
		totalMoves:  res.TotalMoves,
		reusedGates: res.ReusedGates,
		stages:      res.NumRydbergStages,
		resolve:     req.Target().ResolveTrap,
	}
	data, err := json.Marshal(struct {
		Program any
		Stats   any
		Brk     any
	}{res.Program, res.Stats, res.Breakdown})
	if err != nil {
		return outcome{err: fmt.Errorf("result not serializable: %w", err)}
	}
	sum := sha256.Sum256(data)
	return outcome{res: cr, hash: hex.EncodeToString(sum[:])}
}

// Check runs the front-end checks on one circuit, then cross-checks it
// through the oracle's compiler set, and returns every classified,
// minimized divergence. The returned error is non-nil only for
// cancellation — invariant violations come back as Divergences.
func (o *Oracle) Check(ctx context.Context, c *circuit.Circuit, label string) ([]Divergence, error) {
	var divs []Divergence
	for _, fc := range frontendChecks {
		if err := checkFrontend(fc.check, c); err != nil {
			divs = append(divs, o.finish(ctx, Divergence{
				Class: ClassFrontend, Compiler: fc.stage, Input: label, Detail: err.Error(),
			}, c, func(cand *circuit.Circuit) bool {
				return checkFrontend(fc.check, cand) != nil
			}))
		}
	}
	outs := make(map[string]outcome, len(o.comps))
	for _, comp := range o.comps {
		if err := ctx.Err(); err != nil {
			return divs, err
		}
		comp := comp
		o1 := o.compileOnce(ctx, comp, c)
		o2 := o.compileOnce(ctx, comp, c)
		outs[comp.Name()] = o1
		if detail := determinismDetail(o1, o2); detail != "" && ctx.Err() == nil {
			divs = append(divs, o.finish(ctx, Divergence{
				Class: ClassDeterminism, Compiler: comp.Name(), Input: label, Detail: detail,
			}, c, func(cand *circuit.Circuit) bool {
				a, b := o.compileOnce(ctx, comp, cand), o.compileOnce(ctx, comp, cand)
				return determinismDetail(a, b) != ""
			}))
		}
		if o1.err != nil {
			continue
		}
		if detail := sanityDetail(o1.res); detail != "" {
			divs = append(divs, o.finish(ctx, Divergence{
				Class: ClassSanity, Compiler: comp.Name(), Input: label, Detail: detail,
			}, c, func(cand *circuit.Circuit) bool {
				out := o.compileOnce(ctx, comp, cand)
				return out.err == nil && sanityDetail(out.res) != ""
			}))
		}
		if detail := verifyDetail(o1.res); detail != "" {
			divs = append(divs, o.finish(ctx, Divergence{
				Class: ClassVerify, Compiler: comp.Name(), Input: label, Detail: detail,
			}, c, func(cand *circuit.Circuit) bool {
				out := o.compileOnce(ctx, comp, cand)
				return out.err == nil && verifyDetail(out.res) != ""
			}))
		}
		if detail := accountingDetail(o1.res); detail != "" {
			divs = append(divs, o.finish(ctx, Divergence{
				Class: ClassAccounting, Compiler: comp.Name(), Input: label, Detail: detail,
			}, c, func(cand *circuit.Circuit) bool {
				out := o.compileOnce(ctx, comp, cand)
				return out.err == nil && accountingDetail(out.res) != ""
			}))
		}
	}
	if err := ctx.Err(); err != nil {
		return divs, err
	}

	// Cross-compiler: compile-outcome agreement, up to the width every
	// platform holds. A rejection there is a divergence; a witness compiler
	// that accepted the same input, when there is one, must keep accepting
	// the shrunk repro.
	if c.NumQubits <= agreementMaxQubits {
		var witness compiler.Compiler
		for _, comp := range o.comps {
			if outs[comp.Name()].err == nil {
				witness = comp
				break
			}
		}
		for _, comp := range o.comps {
			failed := outs[comp.Name()].err
			if failed == nil {
				continue
			}
			detail := fmt.Sprintf("rejected an input of %d qubits that every compiler rejected: %v", c.NumQubits, failed)
			if witness != nil {
				detail = fmt.Sprintf("rejected input that %s accepted: %v", witness.Name(), failed)
			}
			divs = append(divs, o.finish(ctx, Divergence{
				Class: ClassCompile, Compiler: comp.Name(), Input: label, Detail: detail,
			}, c, func(cand *circuit.Circuit) bool {
				return o.compileOnce(ctx, comp, cand).err != nil &&
					(witness == nil || o.compileOnce(ctx, witness, cand).err == nil)
			}))
		}
	}

	// Cross-compiler: ablation fidelity ordering. Walk the chain of
	// configurations where each entry strictly extends the previous one;
	// the weaker configuration must not win beyond tolerance.
	tol := o.opts.fidelityTol()
	chain := presentChain(o.comps, outs)
	for i := 0; i+1 < len(chain); i++ {
		less, more := chain[i], chain[i+1]
		lf, mf := outs[less.Name()].res.total, outs[more.Name()].res.total
		if fidelityOrderViolated(lf, mf, tol) {
			lc, mc := less, more
			divs = append(divs, o.finish(ctx, Divergence{
				Class:    ClassFidelityOrder,
				Compiler: lc.Name() + ">" + mc.Name(),
				Input:    label,
				Detail: fmt.Sprintf("ablation %s fidelity %.6g beats %s fidelity %.6g beyond tolerance %g",
					lc.Name(), lf, mc.Name(), mf, tol),
			}, c, func(cand *circuit.Circuit) bool {
				a, b := o.compileOnce(ctx, lc, cand), o.compileOnce(ctx, mc, cand)
				return a.err == nil && b.err == nil &&
					fidelityOrderViolated(a.res.total, b.res.total, tol)
			}))
		}
	}
	return divs, ctx.Err()
}

// ablationChain orders the zac-family presets from least to most
// optimized; adjacent present entries are compared by the ordering check.
var ablationChain = []string{"zac-vanilla", "zac-dynplace", "zac-dynplace-reuse", "zac", "zac-advreuse"}

// presentChain filters the ablation chain to the oracle's compilers that
// compiled successfully, preserving chain order.
func presentChain(comps []compiler.Compiler, outs map[string]outcome) []compiler.Compiler {
	byName := map[string]compiler.Compiler{}
	for _, c := range comps {
		byName[c.Name()] = c
	}
	var chain []compiler.Compiler
	for _, n := range ablationChain {
		if c, ok := byName[n]; ok {
			if out, done := outs[n]; done && out.err == nil && out.res != nil {
				chain = append(chain, c)
			}
		}
	}
	return chain
}

// fidelityOrderViolated reports whether the less-optimized configuration's
// fidelity beats the more-optimized one's beyond tolerance. The comparison
// runs in log domain — fidelity = exp(−cost), costs are additive over a
// circuit, so heuristic gaps are a stable fraction of total cost where raw
// fidelity ratios amplify exponentially with depth. Non-finite or
// out-of-range fidelities are ClassSanity's job, not this check's.
func fidelityOrderViolated(less, more, tol float64) bool {
	if !(less > 0) || !(more > 0) || less > 1+1e-12 || more > 1+1e-12 {
		return false
	}
	costLess, costMore := -math.Log(less), -math.Log(more)
	return costMore-costLess > tol*costMore+fidelityAbsSlack
}

// determinismDetail compares two fresh compilations of the same input.
func determinismDetail(a, b outcome) string {
	switch {
	case (a.err == nil) != (b.err == nil):
		return fmt.Sprintf("repeat compile flipped outcome: %v vs %v", a.err, b.err)
	case a.err == nil && a.hash != b.hash:
		return fmt.Sprintf("repeat compile not byte-identical: %s vs %s", a.hash[:12], b.hash[:12])
	}
	return ""
}

// sanityDetail checks one result's internal consistency.
func sanityDetail(r *compileResult) string {
	for name, v := range r.breakdown {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1+1e-12 {
			return fmt.Sprintf("fidelity term %s = %g outside [0,1]", name, v)
		}
	}
	if r.duration < 0 || math.IsNaN(r.duration) || math.IsInf(r.duration, 0) {
		return fmt.Sprintf("negative or non-finite duration %g", r.duration)
	}
	if r.stages < 0 || r.totalMoves < 0 || r.reusedGates < 0 {
		return fmt.Sprintf("negative counters: stages=%d moves=%d reused=%d",
			r.stages, r.totalMoves, r.reusedGates)
	}
	return ""
}

// verifyDetail replays an emitted ZAIR program through the hardware
// verifier. Header-only programs (the analytic baselines) pass trivially.
func verifyDetail(r *compileResult) string {
	if r.program == nil || len(r.program.Instructions) == 0 {
		return ""
	}
	v := &zair.Verifier{Resolve: r.resolve}
	if err := v.Verify(r.program); err != nil {
		return err.Error()
	}
	return ""
}

// accountingDetail replays the program and cross-checks the result's
// resource counters: every qubit ends in exactly one distinct trap, and
// the instruction stream's individual qubit movements match the reported
// TotalMoves.
func accountingDetail(r *compileResult) string {
	if r.program == nil || len(r.program.Instructions) == 0 {
		return ""
	}
	final := zair.FinalPositions(r.program)
	if len(final) != r.program.NumQubits {
		return fmt.Sprintf("qubit conservation: %d of %d qubits have final positions",
			len(final), r.program.NumQubits)
	}
	traps := map[[3]int]int{}
	for q, l := range final {
		key := [3]int{l.A, l.R, l.C}
		if prev, taken := traps[key]; taken {
			return fmt.Sprintf("qubit conservation: qubits %d and %d end in the same trap %v", prev, q, key)
		}
		traps[key] = q
	}
	if moves := replayMoves(r.program); moves != r.totalMoves {
		return fmt.Sprintf("move accounting: program replays %d qubit movements, result reports %d",
			moves, r.totalMoves)
	}
	return ""
}

// replayMoves counts the individual qubit movements of the instruction
// stream: each rearrangement job moves each of its qubits once.
func replayMoves(p *zair.Program) int {
	n := 0
	for _, inst := range p.Instructions {
		if job, ok := inst.(zair.RearrangeJob); ok {
			n += len(job.Qubits())
		}
	}
	return n
}

// finish minimizes a divergence's circuit with shrink, fills in the repro
// fields, and persists to the corpus directory when one is configured.
func (o *Oracle) finish(ctx context.Context, d Divergence, c *circuit.Circuit, stillFails func(*circuit.Circuit) bool) Divergence {
	red := c
	if !o.opts.NoShrink {
		red = shrink(c, func(cand *circuit.Circuit) bool {
			return ctx.Err() == nil && contained(stillFails)(cand)
		}, o.opts.maxShrinkChecks())
	}
	d.QASM = qasm.Write(red)
	d.Gates = len(red.Gates)
	if o.opts.CorpusDir != "" && ctx.Err() == nil {
		if p, err := writeRepro(o.opts.CorpusDir, d); err == nil {
			d.CorpusPath = p
		}
	}
	return d
}

// contained wraps a shrink predicate so panics on malformed candidates
// count as "still fails" being false rather than killing the run.
func contained(pred func(*circuit.Circuit) bool) func(*circuit.Circuit) bool {
	return func(c *circuit.Circuit) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		return pred(c)
	}
}

// frontendChecks are the compiler-independent checks of the front end every
// compiler shares, run once per input. Each names the stage it covers,
// which a frontend divergence reports in place of a compiler.
var frontendChecks = []struct {
	stage string
	check func(*circuit.Circuit) error
}{
	{"qasm", checkQASM},
	{"resynth", checkResynth},
}

// checkFrontend runs one front-end check, containing panics: a panic in
// the shared front end is itself a violation, and stays shrinkable.
func checkFrontend(check func(*circuit.Circuit) error, c *circuit.Circuit) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("check panicked: %v", r)
		}
	}()
	return check(c)
}

// checkQASM verifies that the QASM writer and parser agree on the circuit:
// the emission parses, keeps the width and every unitary gate, and (at
// simulable widths) prepares the same state up to global phase.
func checkQASM(c *circuit.Circuit) error {
	back, err := qasm.Parse(qasm.Write(c))
	if err != nil {
		return fmt.Errorf("emitted QASM does not parse: %w", err)
	}
	if back.NumQubits != c.NumQubits {
		return fmt.Errorf("round trip changed width: %d → %d", c.NumQubits, back.NumQubits)
	}
	unitary := 0
	for _, g := range c.Gates {
		if g.Kind != circuit.Measure && g.Kind != circuit.Barrier {
			unitary++
		}
	}
	if len(back.Gates) < unitary {
		return fmt.Errorf("round trip dropped gates: %d → %d", unitary, len(back.Gates))
	}
	return sameState(c, back, "round trip")
}

// checkResynth verifies the preprocessing pass: the staged program
// validates (gate-set legality: only U3/CZ(CCZ) in well-formed disjoint
// stages) and, at simulable widths, prepares the input's state.
func checkResynth(c *circuit.Circuit) error {
	staged, err := resynth.Preprocess(c)
	if err != nil {
		return fmt.Errorf("preprocess: %w", err)
	}
	if err := staged.Validate(); err != nil {
		return fmt.Errorf("staged program invalid: %w", err)
	}
	return sameState(c, staged.Flatten(), "resynthesis")
}

// sameState checks, at widths up to simMaxQubits, that derived prepares
// the same state as orig from |0…0⟩ up to global phase. A NaN fidelity
// fails the check.
func sameState(orig, derived *circuit.Circuit, what string) error {
	if orig.NumQubits > simMaxQubits {
		return nil
	}
	sa, err := sim.Run(orig)
	if err != nil {
		return fmt.Errorf("simulating original: %w", err)
	}
	sb, err := sim.Run(derived)
	if err != nil {
		return fmt.Errorf("simulating %s: %w", what, err)
	}
	if f := sim.FidelityUpToPhase(sa, sb); !(math.Abs(f-1) <= 1e-7) {
		return fmt.Errorf("%s changed semantics: fidelity %g", what, f)
	}
	return nil
}
