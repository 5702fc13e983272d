package difftest

import "zac/internal/circuit"

// shrink greedily minimizes a failing circuit: ever-smaller gate chunks are
// removed while the predicate keeps failing, then unused qubits are
// compacted away. fails must treat its argument as read-only; candidates
// that fail circuit.Validate are never offered. The predicate is invoked at
// most maxChecks times, so shrinking cost is bounded even when every check
// is a full compile.
func shrink(c *circuit.Circuit, fails func(*circuit.Circuit) bool, maxChecks int) *circuit.Circuit {
	cur := c.Clone()
	checks := 0
	try := func(cand *circuit.Circuit) bool {
		if checks >= maxChecks || cand.Validate() != nil {
			return false
		}
		checks++
		return fails(cand)
	}
	size := len(cur.Gates)
	if size > 1 {
		size /= 2
	}
	for size >= 1 && checks < maxChecks {
		removedAny := false
		for start := 0; start < len(cur.Gates) && checks < maxChecks; {
			cand := withoutGates(cur, start, min(start+size, len(cur.Gates)))
			if try(cand) {
				cur = cand
				removedAny = true // same start: the next chunk shifted into place
			} else {
				start += size
			}
		}
		if size == 1 {
			if !removedAny {
				break
			}
			continue // another single-gate pass until a fixed point
		}
		size /= 2
	}
	if cand := compactQubits(cur); cand.NumQubits < cur.NumQubits && try(cand) {
		cur = cand
	}
	return cur
}

// withoutGates clones c minus the gate range [start, end).
func withoutGates(c *circuit.Circuit, start, end int) *circuit.Circuit {
	out := circuit.New(c.Name, c.NumQubits)
	out.Gates = make([]circuit.Gate, 0, len(c.Gates)-(end-start))
	out.Gates = append(out.Gates, c.Gates[:start]...)
	out.Gates = append(out.Gates, c.Gates[end:]...)
	return out
}

// compactQubits renumbers the qubits that actually appear in gates to a
// dense [0, k) range, dropping unused wires (width stays ≥ 1).
func compactQubits(c *circuit.Circuit) *circuit.Circuit {
	used := map[int]bool{}
	for _, g := range c.Gates {
		for _, q := range g.Qubits {
			used[q] = true
		}
	}
	remap := map[int]int{}
	next := 0
	for q := 0; q < c.NumQubits; q++ {
		if used[q] {
			remap[q] = next
			next++
		}
	}
	if next == 0 {
		next = 1
	}
	out := circuit.New(c.Name, next)
	for _, g := range c.Gates {
		qs := make([]int, len(g.Qubits))
		for i, q := range g.Qubits {
			qs[i] = remap[q]
		}
		out.Gates = append(out.Gates, circuit.Gate{Kind: g.Kind, Qubits: qs, Params: append([]float64(nil), g.Params...)})
	}
	return out
}
