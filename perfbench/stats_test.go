package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"zac/internal/bench"
	"zac/internal/compiler"
)

func TestPercentileReportsRankAndSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, tc := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10}, // exactly ten beyond: 1000 samples are enough for a p99
		{1, 1000, 0},
	} {
		got := percentile(xs, tc.q)
		if got.Value != tc.want || got.N != 1000 || got.Beyond != tc.wantBeyond {
			t.Errorf("percentile(1..1000, %g) = %+v, want value %g, n 1000, %d beyond", tc.q, got, tc.want, tc.wantBeyond)
		}
	}
	if got := percentile(xs[:999], 0.99); got.Beyond != 9 {
		t.Errorf("999 samples leave %d beyond the p99, want 9", got.Beyond)
	}
	if got := percentile([]float64{7}, 0.99); got != (pct{Value: 7, N: 1}) {
		t.Errorf("one sample: %+v", got)
	}
	if got := percentile(nil, 0.5); got != (pct{}) {
		t.Errorf("no samples: %+v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %g, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean() = %g, want 0", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {50, 70}}, 70},
		{"overlapping children count once", []interval{{10, 30}, {20, 40}}, 70},
		{"nested children count once", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to the parent", []interval{{-5, 5}, {90, 120}}, 85},
		{"outside the parent", []interval{{100, 150}, {-10, 0}}, 100},
		{"fully covered", []interval{{0, 60}, {60, 100}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTierRatios(t *testing.T) {
	got := tierRatios([]string{"mem", "disk", "disk", "compute", "join"})
	want := map[string]float64{"mem": 0.2, "join": 0.2, "disk": 0.4, "compute": 0.2}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("tier %s: %g, want %g", k, got[k], w)
		}
	}
	// A request that failed before reaching the cache has no tier; it
	// still counts in the denominator.
	if got := tierRatios([]string{"mem", ""}); got["mem"] != 0.5 {
		t.Errorf("mem share with a tierless request = %g, want 0.5", got["mem"])
	}
	for k, v := range tierRatios(nil) {
		if v != 0 {
			t.Errorf("no requests: tier %s = %g", k, v)
		}
	}
}

func TestSameResponseIgnoresOnlyTheTraceID(t *testing.T) {
	ref := []byte(`{"name": "x", "trace_id": "0123456789abcdef", "zair": [1, 2]}`)
	other := []byte(`{"name": "x", "trace_id": "fedcba9876543210", "zair": [1, 2]}`)
	changed := []byte(`{"name": "x", "trace_id": "fedcba9876543210", "zair": [1, 3]}`)
	if !sameResponse(ref, ref) || !sameResponse(ref, other) {
		t.Error("responses differing only in trace_id must match")
	}
	if sameResponse(ref, changed) || sameResponse(ref, ref[:len(ref)-1]) {
		t.Error("a changed or truncated response must not match")
	}
	if !sameResponse([]byte(`{"a": 1}`), []byte(`{"a": 1}`)) || sameResponse([]byte(`{"a": 1}`), []byte(`{"a": 2}`)) {
		t.Error("untraced responses compare byte for byte")
	}
}

func TestTallyCountsEveryKindOfFailure(t *testing.T) {
	outs := []*output{
		{key: "good", checked: true, fid: 0.5, dur: 10},
		{key: "bad", checked: true, err: errors.New("replay failed"), fid: 0.5, dur: 10},
		{key: "unchecked"},
	}
	win := window{ops: []opResult{
		{out: 0},
		{out: 0, err: errors.New("status 500")},
		{out: 1},
		{out: 2},
		{out: -1, err: errors.New("refused")},
		{out: 0},
	}}
	var tl tally
	tl.add(win, outs)
	if tl.attempted != 6 || tl.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 6 and 4", tl.attempted, tl.failed)
	}
	if len(tl.fids) != 2 || tl.fids[0] != 0.5 || len(tl.durs) != 2 {
		t.Errorf("figures of the successful requests: %v %v", tl.fids, tl.durs)
	}
	if latencies := win.latencies(); len(latencies) != 4 {
		t.Errorf("%d latencies, want the 4 ops without their own error", len(latencies))
	}
	rep := newReport(tl, endToEnd)
	if rep.Correct || rep.Attempted != 6 || rep.Failed != 4 {
		t.Errorf("report %+v must be incorrect with 4 of 6 failed", rep)
	}
}

// TestForcedCheckFailures tampers with each thing the checks compare and
// expects a failed op, a failed output and an incorrect result.
func TestForcedCheckFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the serve-hot specs")
	}
	ctx := context.Background()
	w, err := newServeHot(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	defer w.close()

	// An op whose response differs from the reference fails inline.
	k := 0
	i := w.deck.pick(k)
	w.refs[i] = append([]byte(nil), w.refs[i]...)
	w.refs[i][len(w.refs[i])/2] ^= 1
	bad := w.op(ctx, 0, k)
	if bad.err == nil {
		t.Fatal("a response differing from the reference passed")
	}
	good := w.op(ctx, 0, k+1)
	if good.err != nil {
		t.Fatalf("untampered op failed: %v", good.err)
	}

	// A response whose ZAIR or summary differs from the library compile
	// fails the output check.
	o := w.outs[good.out]
	res, err := compileCircuit(ctx, w.comp, generatorOf(o.key), "bench.generate")
	if err != nil {
		t.Fatal(err)
	}
	zairBytes, err := judgeLibrary(ctx, w.comp, res, o)
	if err != nil {
		t.Fatal(err)
	}
	ref := w.refs[good.out]
	if err := checkResponse(o.key, ref, res, zairBytes); err != nil {
		t.Fatalf("untampered response failed its check: %v", err)
	}
	tampered := bytes.Replace(ref, []byte(`"moves": `), []byte(`"moves": 1`), 1)
	if err := checkResponse(o.key, tampered, res, zairBytes); err == nil {
		t.Error("a response with a wrong move count passed")
	}
	if err := checkResponse(o.key, ref, res, bytes.Replace(zairBytes, []byte(`"num_qubits": `), []byte(`"num_qubits": 9`), 1)); err == nil {
		t.Error("a response whose ZAIR differs from the library's passed")
	}

	// Failed ops and outputs make the result incorrect.
	o.checked, o.err = true, errors.New("forced")
	var tl tally
	tl.add(window{ops: []opResult{bad, good}}, w.outs)
	rep := newReport(tl, endToEnd)
	if rep.Correct || rep.Failed != 2 {
		t.Errorf("report with a forced failure: correct %v, %d failed; want false, 2", rep.Correct, rep.Failed)
	}
}

func TestProgramHashCheckUsesTheGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a Fig. 8 circuit")
	}
	ctx := context.Background()
	comp, err := compiler.Get("zac")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.ByName("bv_n14")
	if err != nil {
		t.Fatal(err)
	}
	first, err := compileCircuit(ctx, comp, buildOf(b), "bench.build")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := compileCircuit(ctx, comp, buildOf(b), "bench.build")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := programHash(first.Program)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkProgramHash(b.Name, first, lib, map[string]string{b.Name: sum}); err != nil {
		t.Errorf("matching golden: %v", err)
	}
	if err := checkProgramHash(b.Name, first, lib, map[string]string{b.Name: strings.Repeat("0", 64)}); err == nil {
		t.Error("a golden mismatch passed")
	}
	other, err := bench.ByName("ghz_n23")
	if err != nil {
		t.Fatal(err)
	}
	differ, err := compileCircuit(ctx, comp, buildOf(other), "bench.build")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkProgramHash(b.Name, first, differ, nil); err == nil {
		t.Error("a program differing from the library compile passed")
	}
}

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	a, b, c := deck{seed: 7, n: 17}, deck{seed: 7, n: 17}, deck{seed: 8, n: 17}
	differs := false
	for k := 0; k < 17*4; k++ {
		if a.pick(k) != b.pick(k) {
			t.Fatalf("same seed, request %d: %d vs %d", k, a.pick(k), b.pick(k))
		}
		differs = differs || a.pick(k) != c.pick(k)
	}
	if !differs {
		t.Error("seeds 7 and 8 deal the same order")
	}
	for cycle := 0; cycle < 4; cycle++ {
		seen := map[int]bool{}
		for k := cycle * 17; k < (cycle+1)*17; k++ {
			seen[a.pick(k)] = true
		}
		if len(seen) != 17 {
			t.Errorf("cycle %d deals %d distinct inputs, want 17", cycle, len(seen))
		}
	}
	if got, want := a.pick(5), (&deck{seed: 7, n: 17}).pick(5); got != want {
		t.Errorf("request 5 out of order: %d, want %d", got, want)
	}

	w1, err := newServeChurn(3, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := newServeChurn(3, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := 0
	const n = 20000
	for k := 0; k < n; k++ {
		i1, s1 := w1.pick(k%2, k/2)
		i2, s2 := w2.pick(k%2, k/2)
		if i1 != i2 || s1 != s2 {
			t.Fatalf("request %d: (%d %q) vs (%d %q)", k, i1, s1, i2, s2)
		}
		if i1 < 0 {
			cold++
		}
	}
	if share := float64(cold) / n; math.Abs(share-0.2) > 0.02 {
		t.Errorf("cold share %.3f, want 0.2", share)
	}
}

// TestBenchmarkJSONMatchesTheMetricTables holds BENCHMARK.json and the
// metric tables the program prints together.
func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	compare := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %s %s %s", kind, i, got[i], m.name, m.unit, m.better)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	var setup float64
	for _, e := range spec.EndToEnd {
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", e.Name)
		} else if e.Name == "setup_s" {
			setup = *e.Bound
		}
	}
	for _, e := range spec.EndToEnd {
		if e.Bound != nil && *e.Bound > setup {
			t.Errorf("%s: bound %g exceeds setup_s's %g, which must be the largest", e.Name, *e.Bound, setup)
		}
	}
}
