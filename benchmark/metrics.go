package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric: BENCHMARK.json carries the same list
// (a test holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd is what a user of the system sees, reported by every workload
// on an untraced run. A "pass" is one complete unit of the workload's
// work (see each workload's doc comment); every value is a median over
// the passes that fit in -seconds, except peak_rss_mb.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists every per-layer metric, reported by every workload on a
// traced run; a layer a workload does not exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ms", "lower", "world.new_ms")
	add("ns", "lower", "world.batch_ns_per_pkt")
	add("ratio", "higher", "world.reply_ratio")
	add("ratio", "lower", "world.unrouted_share")
	add("ms", "lower", "seeds.collect_ms", "seeds.combine_ms")
	add("count", "higher", "seeds.addrs")
	add("ns", "lower", "ipaddr.set_build_ns_per_addr", "ipaddr.sort_ns_per_addr")
	add("ms", "lower", "experiment.env_build_ms", "experiment.treatments_ms",
		"experiment.spec_ms.rq1a", "experiment.spec_ms.table4", "experiment.spec_ms.rq1b",
		"experiment.spec_ms.rq2", "experiment.spec_ms.rq4", "experiment.render_ms")
	add("count", "lower", "grid.cells_planned", "grid.cells_unique")
	add("ms", "lower", "grid.engine_overhead_ms")
	add("ms", "lower", "tga.init_ms", "tga.next_batch_ms", "tga.feedback_ms", "tga.driver_self_ms")
	add("count", "higher", "tga.generated")
	add("ratio", "higher", "tga.hit_ratio")
	add("count", "lower", "tga.model_builds")
	for _, g := range reproGens {
		add("ms", "lower", "tga.gen_ms."+g)
	}
	add("ms", "lower", "alias.split_ms")
	add("count", "lower", "alias.probes_sent", "alias.prefixes_tested")
	add("ratio", "higher", "alias.cache_hit_ratio")
	add("ms", "lower", "metrics.measure_ms")
	add("ms", "lower", "scanner.scan_ms")
	add("ns", "lower", "scanner.self_ns_per_probe")
	add("count", "lower", "scanner.probes")
	add("ratio", "lower", "scanner.retry_ratio")
	add("count", "lower", "scanner.cookie_failures")
	add("ratio", "higher", "scanner.oracle_agreement")
	add("count", "lower", "scanner.allocs_per_kprobe")
	add("ns", "lower", "probe.build_ns_per_pkt", "probe.parse_ns_per_pkt")
	add("ns", "lower", "wire.chain_tax_ns_per_probe")
	add("count", "lower", "wire.faults_dropped", "wire.faults_duplicated", "wire.tap_probes")
	add("ns", "lower", "cluster.shard_tax_ns_per_probe")
	add("count", "lower", "cluster.shards", "cluster.reassigned")
	add("ms", "lower", "hitlist.build_ms")
	add("ms", "lower", "hitlistdb.marshal_ms", "hitlistdb.publish_ms", "hitlistdb.open_ms", "hitlistdb.refresh_ms")
	add("bytes", "lower", "hitlistdb.snapshot_bytes")
	add("ns", "lower", "hitlistdb.lookup_ns", "serve.handler_ns")
	add("us", "lower", "serve.http_stack_us", "serve.lookup_p50_us", "serve.lookup_p99_us", "serve.lookup_p999_us")
	add("1/s", "higher", "serve.lookups_per_s", "serve.bulk_addrs_per_s")
	add("ms", "lower", "serve.bulk_ms_per_batch")
	add("count", "lower", "serve.lookups_over_limit")
	add("us", "lower", "serve.open_p50_us", "serve.open_p99_us", "serve.open_gen_late_p99_us")
	add("ms", "lower", "serve.swap_visible_p50_ms")
	add("ms", "lower", "longitudinal.epoch_p50_ms", "longitudinal.epoch_self_ms")
	add("count", "lower", "longitudinal.probed")
	add("%", "higher", "longitudinal.probes_saved_pct")
	add("count", "lower", "gc.cycles")
	add("ms", "lower", "gc.pause_total_ms")
	add("s", "lower", "proc.cpu_s")
	add("s", "lower", "trace.wall_s")
	add("count", "lower", "trace.spans")
	add("%", "higher", "trace.attributed_pct")
	return out
}

// Metric is one measured value as it appears in the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fillMetrics turns measured values into the full declared set: a
// declared metric the run did not measure reads 0, and a measured name
// that was never declared is a bug in the benchmark.
func fillMetrics(defs []metricDef, values map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		out[d.Name] = Metric{Value: values[d.Name], Unit: d.Unit}
	}
	var stray []string
	for name := range values {
		if _, ok := out[name]; !ok {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics measured but not declared: %v", stray)
	}
	return out, nil
}
