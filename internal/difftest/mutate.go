package difftest

import (
	"fmt"
	"math"

	"zac/internal/circuit"
	"zac/internal/workload"
)

// spliceKinds is the gate vocabulary the splice mutation draws from: the
// hardware-native kinds plus a spread of input-level kinds so resynthesis
// and staging both get exercised.
var spliceKinds = []circuit.Kind{
	circuit.U3, circuit.CZ, circuit.H, circuit.X, circuit.T,
	circuit.RZ, circuit.RX, circuit.CX, circuit.SWAP, circuit.RZZ,
	circuit.CCZ, circuit.CP,
}

// MutateSpec derives a new workload spec from an existing one: usually a
// nudge of one parameter within its fuzz range, occasionally a full
// resample of the same family. The result stays within each parameter's
// schema bounds, so Generate cannot reject it.
func MutateSpec(r *workload.RNG, s workload.Spec) workload.Spec {
	g, err := workload.Get(s.Family)
	if err != nil {
		return s
	}
	params := g.Params()
	if len(params) == 0 {
		return s
	}
	out := workload.Spec{Family: s.Family, Values: workload.Values{}}
	for k, v := range s.Values {
		out.Values[k] = v
	}
	if r.Intn(4) == 0 {
		// Full resample within fuzz ranges.
		for _, p := range params {
			lo, hi := p.FuzzRange()
			out.Values[p.Name] = lo + r.Int63n(hi-lo+1)
		}
		return out
	}
	p := params[r.Intn(len(params))]
	lo, hi := p.FuzzRange()
	step := (hi - lo) / 8
	if step < 1 {
		step = 1
	}
	delta := 1 + r.Int63n(step)
	if r.Intn(2) == 0 {
		delta = -delta
	}
	v := out.Values[p.Name] + delta
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	out.Values[p.Name] = v
	return out
}

// MutateCircuit derives a new circuit by applying 1–3 random gate-level
// edits: drop a chunk, duplicate a gate, splice a fresh random gate,
// reparameterize, or retarget. The input is never modified; the result is
// always structurally valid (arity-checked gates, in-range qubits) though
// possibly semantically adversarial — which is the point.
func MutateCircuit(r *workload.RNG, c *circuit.Circuit) *circuit.Circuit {
	out := &circuit.Circuit{
		Name:      c.Name + "~mut",
		NumQubits: c.NumQubits,
		Gates:     append([]circuit.Gate(nil), c.Gates...),
	}
	edits := 1 + r.Intn(3)
	for i := 0; i < edits; i++ {
		switch r.Intn(5) {
		case 0: // drop a contiguous chunk
			if len(out.Gates) == 0 {
				continue
			}
			at := r.Intn(len(out.Gates))
			n := 1 + r.Intn(4)
			if at+n > len(out.Gates) {
				n = len(out.Gates) - at
			}
			out.Gates = append(out.Gates[:at], out.Gates[at+n:]...)
		case 1: // duplicate a gate in place
			if len(out.Gates) == 0 {
				continue
			}
			at := r.Intn(len(out.Gates))
			g := copyGate(out.Gates[at])
			out.Gates = append(out.Gates[:at+1], append([]circuit.Gate{g}, out.Gates[at+1:]...)...)
		case 2: // splice a fresh random gate
			g, ok := randomGate(r, out.NumQubits)
			if !ok {
				continue
			}
			at := 0
			if len(out.Gates) > 0 {
				at = r.Intn(len(out.Gates) + 1)
			}
			out.Gates = append(out.Gates[:at], append([]circuit.Gate{g}, out.Gates[at:]...)...)
		case 3: // reparameterize
			idxs := paramGateIndices(out.Gates)
			if len(idxs) == 0 {
				continue
			}
			at := idxs[r.Intn(len(idxs))]
			g := copyGate(out.Gates[at])
			g.Params[r.Intn(len(g.Params))] = randAngle(r)
			out.Gates[at] = g
		case 4: // retarget
			if len(out.Gates) == 0 {
				continue
			}
			at := r.Intn(len(out.Gates))
			g := copyGate(out.Gates[at])
			if qs, ok := distinctQubits(r, out.NumQubits, len(g.Qubits)); ok {
				g.Qubits = qs
				out.Gates[at] = g
			}
		}
	}
	return out
}

// paramGateIndices lists the indices of gates carrying float parameters.
func paramGateIndices(gates []circuit.Gate) []int {
	var idxs []int
	for i, g := range gates {
		if len(g.Params) > 0 {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// copyGate deep-copies a gate so mutations never alias the parent
// circuit's slices.
func copyGate(g circuit.Gate) circuit.Gate {
	return circuit.Gate{
		Kind:   g.Kind,
		Qubits: append([]int(nil), g.Qubits...),
		Params: append([]float64(nil), g.Params...),
	}
}

// randomGate draws a random arity-correct gate over n qubits.
func randomGate(r *workload.RNG, n int) (circuit.Gate, bool) {
	k := spliceKinds[r.Intn(len(spliceKinds))]
	qs, ok := distinctQubits(r, n, k.NumQubits())
	if !ok {
		return circuit.Gate{}, false
	}
	params := make([]float64, k.NumParams())
	for i := range params {
		params[i] = randAngle(r)
	}
	return circuit.NewGate(k, qs, params...), true
}

// distinctQubits draws k distinct qubit indices below n.
func distinctQubits(r *workload.RNG, n, k int) ([]int, bool) {
	if k > n {
		return nil, false
	}
	seen := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k {
		q := r.Intn(n)
		if seen[q] {
			continue
		}
		seen[q] = true
		out = append(out, q)
	}
	return out, true
}

// randAngle draws an angle in [0, 2π).
func randAngle(r *workload.RNG) float64 {
	return 2 * math.Pi * float64(r.Int63n(1<<20)) / float64(1<<20)
}

// mutLabel names a mutated input after its ancestor for divergence reports.
func mutLabel(parent string, iter int) string {
	return fmt.Sprintf("%s~mut%d", parent, iter)
}
