package main

// splitmix64 is the finalizer the benchmark derives every input choice
// from, so a seed gives the same inputs on any toolchain.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

// newRNG returns the stream for a seed and a path of stream indices (a
// caller, a request number): a pure function of its arguments.
func newRNG(seed uint64, path ...uint64) *rng {
	s := splitmix64(seed)
	for _, p := range path {
		s = splitmix64(s ^ splitmix64(p+1))
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix64(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// deck deals 0..n-1 in a fresh seeded order each cycle, so every input is
// sent equally often and any prefix of the run mixes them evenly.
type deck struct {
	seed  uint64
	n     int
	cycle int
	perm  []int
}

// pick returns the input of request k, a pure function of the seed and k.
// A deck serves one caller: it is not safe for concurrent use.
func (d *deck) pick(k int) int {
	if c := k / d.n; d.perm == nil || c != d.cycle {
		d.cycle = c
		d.perm = make([]int, d.n)
		r := newRNG(d.seed, uint64(c))
		for i := range d.perm {
			j := r.intn(i + 1)
			d.perm[i], d.perm[j] = d.perm[j], i
		}
	}
	return d.perm[k%d.n]
}
