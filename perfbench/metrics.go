package main

import (
	"strconv"
	"strings"

	"zac/internal/telemetry"
)

// metricSpec names one reported metric. The lists below must match
// BENCHMARK.json at the repository root (a test holds them together).
type metricSpec struct {
	name, unit, better string
	// moves names the end-to-end metric and workload a per-layer metric
	// should move.
	moves string
}

// endToEnd are the metrics of the untraced run: what a user of the
// compiler or of zac-serve waits for and pays.
var endToEnd = []metricSpec{
	{name: "latency_ms.p50", unit: "ms", better: "lower"},
	{name: "latency_ms.p99", unit: "ms", better: "lower"},
	{name: "throughput_ops_s", unit: "ops/s", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "alloc_kb_per_op", unit: "KB/op", better: "lower"},
	{name: "fidelity_geomean", unit: "ratio", better: "higher"},
	{name: "duration_us_geomean", unit: "us", better: "lower"},
}

// perLayer are the metrics of the traced run, each with the end-to-end
// metric it should move. A layer a workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"serve.self_ms.p50", "ms", "lower", "latency_ms.p50 on serve-churn"},
	{"serve.response_kb.mean", "KB", "lower", "alloc_kb_per_op on serve-churn"},
	{"serve.admission_queued_ratio", "ratio", "lower", "latency_ms.p99 on serve-churn"},
	{"serve.admission_wait_ms.p99", "ms", "lower", "latency_ms.p99 on serve-churn"},
	{"engine.tier_mem_ratio", "ratio", "higher", "throughput_ops_s on serve-churn"},
	{"engine.tier_disk_ratio", "ratio", "higher", "throughput_ops_s on serve-churn"},
	{"engine.tier_join_ratio", "ratio", "higher", "throughput_ops_s on serve-churn"},
	{"engine.tier_compute_ratio", "ratio", "lower", "throughput_ops_s on serve-churn"},
	{"engine.disk_retries.count", "count", "lower", "failed ops on serve-churn"},
	{"engine.lookup_ms.p50", "ms", "lower", "latency_ms.p50 on serve-churn"},
	{"engine.disk_ms.p50", "ms", "lower", "latency_ms.p50 on serve-churn"},
	{"core.snapshot_decode_ms.p50", "ms", "lower", "latency_ms.p50 on serve-churn"},
	{"compiler.artifacts_hit_ratio", "ratio", "higher", "latency_ms.p50 on serve-churn"},
	{"workload.generate_ms.p50", "ms", "lower", "latency_ms.p99 on serve-churn"},
	{"resynth.preprocess_ms.p50", "ms", "lower", "latency_ms.p50 on compile-paper"},
	{"arch.topology_ms.mean", "ms", "lower", "latency_ms.p50 on compile-paper and serve-churn"},
	{"core.pass.validate_ms.p50", "ms", "lower", "latency_ms.p50 on compile-paper"},
	{"core.pass.place_ms.p50", "ms", "lower", "latency_ms.p50 on compile-paper"},
	{"core.pass.schedule_ms.p50", "ms", "lower", "latency_ms.p50 on compile-paper"},
	{"core.pass.emit_ms.p50", "ms", "lower", "latency_ms.p50 on compile-paper"},
	{"core.pass.fidelity_ms.p50", "ms", "lower", "latency_ms.p50 on compile-paper"},
	{"core.pass.place_share", "ratio", "lower", "latency_ms.p50 on compile-paper"},
	{"matching.jv_parallel_ms.sum", "ms", "lower", "latency_ms.p50 on compile-paper"},
	{"matching.jv_parallel.count", "count", "higher", "latency_ms.p50 on compile-paper"},
	{"schedule.conflict_graph_ms.sum", "ms", "lower", "latency_ms.p50 on compile-paper"},
	{"schedule.conflict_graph.count", "count", "higher", "latency_ms.p50 on compile-paper"},
	{"place.moves.total", "count", "lower", "fidelity_geomean and duration_us_geomean"},
	{"place.reused_gates.total", "count", "higher", "fidelity_geomean and duration_us_geomean"},
	{"schedule.rearrange_jobs.total", "count", "lower", "fidelity_geomean and duration_us_geomean"},
	{"zair.encode_ms.p50", "ms", "lower", "latency_ms.p50 on serve-churn"},
	{"zair.encode_kb.mean", "KB", "lower", "latency_ms.p50 on serve-churn"},
	{"runtime.gc_cycles_per_op", "1/op", "lower", "latency_ms.p99 on serve-churn"},
	{"runtime.gc_pause_ms.total", "ms", "lower", "latency_ms.p99 on serve-churn"},
	{"telemetry.overhead_ratio", "ratio", "lower", "every end-to-end metric"},
	{"telemetry.span_coverage_ratio", "ratio", "higher", "every end-to-end metric"},
}

// layerInput is what the traced run hands the per-layer computation.
type layerInput struct {
	// traced holds the traces started inside the traced window; library
	// the check's library compiles, one per distinct output.
	traced, library []telemetry.TraceData
	// untraced and tracedWin are the run's two windows.
	untraced, tracedWin window
	outs                []*output
}

// layerMetrics derives every per-layer metric, with the sample count
// behind each one that is a statistic of samples.
func layerMetrics(in layerInput) (map[string]float64, map[string]int) {
	v := make(map[string]float64, len(perLayer))
	n := map[string]int{}
	for _, m := range perLayer {
		v[m.name] = 0
	}
	set := func(name string, p pct) { v[name], n[name] = p.Value, p.N }
	ms := func(us int64) float64 { return float64(us) / 1000 }

	byID := make(map[string]telemetry.TraceData, len(in.traced))
	for _, td := range in.traced {
		byID[td.ID] = td
	}
	var self, lookup, disk, admission []float64
	var queued int
	var seen []string
	var cov, covDen int64
	for _, td := range in.traced {
		root, kids := rootAndChildren(td)
		switch td.Name {
		case "serve.compile":
			seen = append(seen, attr(td.Spans, "tier"))
			fallthrough
		case "bench.compile":
			cov += covered(root, kids)
			covDen += root.len()
		case "bench.request":
			// The handler call minus the cache lookup: request decode,
			// resolution, ZAIR encoding and the response write.
			st, ok := byID[attr(td.Spans, "serve_trace")]
			if !ok {
				break
			}
			off := st.Start.Sub(td.Start).Microseconds()
			var lookups []interval
			for _, sp := range st.Spans {
				if sp.Name == "cache.lookup" {
					lookups = append(lookups, interval{off + sp.StartUS, off + sp.StartUS + sp.DurUS})
				}
			}
			self = append(self, ms(selfTime(root, lookups)))
		}
		for _, sp := range td.Spans {
			switch sp.Name {
			case "cache.lookup":
				lookup = append(lookup, ms(sp.DurUS))
			case "cache.disk":
				disk = append(disk, ms(sp.DurUS))
			case "admission":
				admission = append(admission, ms(sp.DurUS))
				if spanAttr(sp, "queued") == "true" {
					queued++
				}
			}
		}
	}
	set("serve.self_ms.p50", percentile(self, 0.5))
	set("engine.lookup_ms.p50", percentile(lookup, 0.5))
	set("engine.disk_ms.p50", percentile(disk, 0.5))
	set("serve.admission_wait_ms.p99", percentile(admission, 0.99))
	v["serve.admission_queued_ratio"] = ratio(float64(queued), float64(len(admission)))
	for t, r := range tierRatios(seen) {
		v["engine.tier_"+t+"_ratio"] = r
	}
	v["telemetry.span_coverage_ratio"] = ratio(float64(cov), float64(covDen))

	// The compiler's layers, from every compile the traced run made.
	var gen, pre, topo []float64
	passes := map[string][]float64{}
	for _, td := range append(append([]telemetry.TraceData(nil), in.traced...), in.library...) {
		for _, sp := range td.Spans {
			switch {
			case sp.Name == "bench.generate":
				gen = append(gen, ms(sp.DurUS))
			case sp.Name == "bench.preprocess":
				pre = append(pre, ms(sp.DurUS))
			case sp.Name == "bench.topology":
				topo = append(topo, ms(sp.DurUS))
			case strings.HasPrefix(sp.Name, "pass."):
				p := strings.TrimPrefix(sp.Name, "pass.")
				passes[p] = append(passes[p], ms(sp.DurUS))
			}
		}
	}
	set("workload.generate_ms.p50", percentile(gen, 0.5))
	set("resynth.preprocess_ms.p50", percentile(pre, 0.5))
	v["arch.topology_ms.mean"], n["arch.topology_ms.mean"] = mean(topo), len(topo)
	var allPasses float64
	for p, xs := range passes {
		allPasses += sum(xs)
		if _, ok := v["core.pass."+p+"_ms.p50"]; ok {
			set("core.pass."+p+"_ms.p50", percentile(xs, 0.5))
		}
	}
	v["core.pass.place_share"] = ratio(sum(passes["place"]), allPasses)

	// Kernels, encoding and snapshots, from the library compile of each
	// fixed input: one compile per input, so the counts repeat exactly.
	fixed := map[string]bool{}
	for _, o := range in.outs {
		if o.fixed && o.checked && o.err == nil {
			fixed[o.key] = true
			v["place.moves.total"] += float64(o.moves)
			v["place.reused_gates.total"] += float64(o.reused)
			v["schedule.rearrange_jobs.total"] += float64(o.jobs)
		}
	}
	var encMS, encKB, decMS []float64
	for _, td := range in.library {
		if !fixed[attr(td.Spans, "input")] {
			continue
		}
		for _, sp := range td.Spans {
			switch sp.Name {
			case "jv.parallel":
				v["matching.jv_parallel_ms.sum"] += ms(sp.DurUS)
				v["matching.jv_parallel.count"]++
			case "schedule.conflict_graph":
				v["schedule.conflict_graph_ms.sum"] += ms(sp.DurUS)
				v["schedule.conflict_graph.count"]++
			case "bench.encode":
				encMS = append(encMS, ms(sp.DurUS))
				size, _ := strconv.Atoi(spanAttr(sp, "bytes")) // written by SetInt
				encKB = append(encKB, float64(size)/1024)
			case "bench.snapshot_decode":
				decMS = append(decMS, ms(sp.DurUS))
			}
		}
	}
	set("zair.encode_ms.p50", percentile(encMS, 0.5))
	v["zair.encode_kb.mean"], n["zair.encode_kb.mean"] = mean(encKB), len(encKB)
	set("core.snapshot_decode_ms.p50", percentile(decMS, 0.5))

	// Public stats and runtime counters over the windows.
	tw, uw := in.tracedWin, in.untraced
	v["engine.disk_retries.count"] = float64(tw.ctr1.diskRetries - tw.ctr0.diskRetries)
	v["compiler.artifacts_hit_ratio"] = ratio(float64(tw.ctr1.artHits-tw.ctr0.artHits),
		float64(tw.ctr1.artLookups-tw.ctr0.artLookups))
	var kb []float64
	for _, o := range tw.ops {
		if o.bytes > 0 {
			kb = append(kb, float64(o.bytes)/1024)
		}
	}
	v["serve.response_kb.mean"], n["serve.response_kb.mean"] = mean(kb), len(kb)
	v["runtime.gc_cycles_per_op"] = ratio(float64(uw.mem1.NumGC-uw.mem0.NumGC), float64(len(uw.ops)))
	v["runtime.gc_pause_ms.total"] = float64(uw.mem1.PauseTotalNs-uw.mem0.PauseTotalNs) / 1e6
	tp, up := percentile(tw.latencies(), 0.5), percentile(uw.latencies(), 0.5)
	v["telemetry.overhead_ratio"] = ratio(tp.Value, up.Value) - 1
	n["telemetry.overhead_ratio"] = min(tp.N, up.N)
	return v, n
}

// rootAndChildren returns a trace's root interval and its direct
// children's intervals, in microseconds from the trace start.
func rootAndChildren(td telemetry.TraceData) (interval, []interval) {
	root := interval{0, td.DurUS}
	var kids []interval
	for _, sp := range td.Spans {
		if sp.Parent == 1 {
			kids = append(kids, interval{sp.StartUS, sp.StartUS + sp.DurUS})
		}
	}
	return root, kids
}

// attr returns an attribute of a trace's root span.
func attr(spans []telemetry.SpanData, key string) string {
	for _, sp := range spans {
		if sp.Parent == 0 {
			return spanAttr(sp, key)
		}
	}
	return ""
}

func spanAttr(sp telemetry.SpanData, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
