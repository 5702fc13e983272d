package workload

// RandomSpec draws a random spec: a uniform family and uniform parameter
// values over each parameter's fuzz range. The same RNG stream always draws
// the same spec sequence, so a fuzz run is reproducible from its base seed.
func RandomSpec(r *RNG) Spec {
	fams := Families()
	g, _ := Get(fams[r.Intn(len(fams))])
	v := Values{}
	for _, p := range g.Params() {
		lo, hi := p.FuzzRange()
		v[p.Name] = lo + r.Int63n(hi-lo+1)
	}
	return Spec{Family: g.Family(), Values: v}
}

// SmokeSpecs are the pinned seeds the CI fuzz-smoke gate checks through
// every registry compiler (`make fuzz-smoke`). Widths stay at or below the
// fuzzer's 10-qubit simulation bound so the statevector equivalence checks
// all run.
func SmokeSpecs() []string {
	return []string{
		"clifford:n=10,gates=80,t=20,seed=7",
		"rb:n=8,depth=6,seed=7",
		"shuffle:n=10,depth=4,seed=7",
		"qaoa:n=10,p=2,seed=7",
		"ising:n=10,layers=2",
		"hiqp:logblocks=2,rounds=1",
	}
}
