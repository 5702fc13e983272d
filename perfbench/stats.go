package main

import (
	"bytes"
	"math"
	"sort"
)

// pct is a nearest-rank percentile with the sample count behind it.
type pct struct {
	Value float64
	// N is the number of samples.
	N int
	// Beyond counts the samples strictly above the percentile's rank: a
	// percentile is only trustworthy with at least ten of them.
	Beyond int
}

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest sample with at least a q share of the samples at or below it.
func percentile(xs []float64, q float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps q·n from rounding up past an exact rank
	// (0.99·1000 must be rank 990, not 991).
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	rank = max(1, min(rank, n))
	return pct{Value: s[rank-1], N: n, Beyond: n - rank}
}

// mean returns the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean returns the geometric mean of positive xs (0 for no samples).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// interval is a half-open time interval [lo, hi) in microseconds.
type interval struct{ lo, hi int64 }

func (iv interval) len() int64 { return max(0, iv.hi-iv.lo) }

// covered returns how much of parent the union of children covers. Children
// may overlap each other (concurrent kernels) and stick out of the parent;
// neither is counted twice or outside.
func covered(parent interval, children []interval) int64 {
	cl := make([]interval, 0, len(children))
	for _, c := range children {
		c.lo, c.hi = max(c.lo, parent.lo), min(c.hi, parent.hi)
		if c.hi > c.lo {
			cl = append(cl, c)
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i].lo < cl[j].lo })
	var total int64
	var cur interval
	for i, c := range cl {
		switch {
		case i == 0:
			cur = c
		case c.lo <= cur.hi:
			cur.hi = max(cur.hi, c.hi)
		default:
			total += cur.len()
			cur = c
		}
	}
	if len(cl) > 0 {
		total += cur.len()
	}
	return total
}

// selfTime is a span's duration minus the part its child spans cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.len() - covered(parent, children)
}

// tiers are the cache tiers a serve request resolves through, in report
// order.
var tiers = []string{"mem", "join", "disk", "compute"}

// tierRatios returns each tier's share of the requests (each element of
// seen is the tier one request resolved through). The shares sum to 1 when
// every request reached the cache.
func tierRatios(seen []string) map[string]float64 {
	out := make(map[string]float64, len(tiers))
	for _, t := range tiers {
		out[t] = 0
	}
	if len(seen) == 0 {
		return out
	}
	for _, t := range seen {
		if _, ok := out[t]; ok {
			out[t]++
		}
	}
	for t := range out {
		out[t] /= float64(len(seen))
	}
	return out
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceKey precedes the only field of a compile response that differs
// between otherwise identical responses of a traced server.
var traceKey = []byte(`"trace_id": "`)

// traceIDLen is the fixed width of a telemetry trace ID.
const traceIDLen = 16

// sameResponse reports whether body equals the reference response byte for
// byte, ignoring the value of a trace_id field (every traced request gets a
// fresh one).
func sameResponse(ref, body []byte) bool {
	if len(ref) != len(body) {
		return false
	}
	// trace_id precedes the ZAIR, near the start of the body.
	i := bytes.Index(body[:min(len(body), 4096)], traceKey)
	if i < 0 {
		return bytes.Equal(ref, body)
	}
	skip := i + len(traceKey) + traceIDLen
	return skip <= len(body) && bytes.Equal(ref[:i+len(traceKey)], body[:i+len(traceKey)]) &&
		bytes.Equal(ref[skip:], body[skip:])
}
