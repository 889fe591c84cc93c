package main

// metricDef is one catalogue entry. METRICS.md describes each entry
// in prose and BENCHMARK.json declares the same names and units; the
// self-tests keep the three in step.
type metricDef struct {
	name string
	unit string
}

// endToEndCatalogue lists the metrics every untraced run reports, on
// every workload. What "op" means per workload is in METRICS.md.
var endToEndCatalogue = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"cpu_us_per_op", "us"},
}

// perLayerCatalogue lists the metrics every traced run reports. A
// metric that does not apply to a workload reads 0 there.
var perLayerCatalogue = []metricDef{
	{"lapclient.read.self_us_p50", "us"},
	{"lapclient.write.self_us_p50", "us"},

	{"wire.read_syscalls_per_op", "count/op"},
	{"wire.write_syscalls_per_op", "count/op"},
	{"wire.bytes_written_per_op", "B/op"},

	{"runtime.allocs_per_op", "count/op"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_us", "us"},
	{"runtime.allocs_per_step", "count/step"},

	{"lapcache.hit_ratio", "ratio"},
	{"lapcache.buf_recycle_frac", "ratio"},
	{"lapcache.server.abnormal_closes", "count"},
	{"lapcache.preload_ms", "ms"},

	{"core.prefetch.issued_per_read", "count/op"},
	{"core.prefetch.timely_frac", "ratio"},
	{"core.prefetch.late_frac", "ratio"},
	{"core.prefetch.wasted_frac", "ratio"},
	{"core.prefetch.dropped", "count"},
	{"core.prefetch.max_outstanding", "count"},

	{"store.reads_per_op", "count/op"},
	{"store.read.busy_ms", "ms"},
	{"store.read.max_concurrency", "count"},
	{"store.read.demand_frac", "ratio"},
	{"store.writes_per_op", "count/op"},
	{"store.write.busy_ms", "ms"},

	{"cluster.fetch.p50_us", "us"},
	{"cluster.fetch.busy_ms", "ms"},
	{"cluster.fetch.hit_frac", "ratio"},
	{"cluster.forward_write.p50_us", "us"},
	{"cluster.replicate.p50_us", "us"},
	{"cluster.replicate.busy_ms", "ms"},
	{"cluster.fallbacks", "count"},
	{"cluster.slow_ops", "count"},
	{"cluster.boot_ms", "ms"},

	{"experiment.cell_ms.pafs_charisma", "ms"},
	{"experiment.cell_ms.xfs_charisma", "ms"},
	{"experiment.cell_ms.pafs_sprite", "ms"},
	{"experiment.cell_ms.xfs_sprite", "ms"},
	{"sim.events_per_step", "count/step"},
	{"workload.gen_ms", "ms"},

	{"trace.overhead_frac", "ratio"},
	{"trace.attribution_error_frac", "ratio"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: metric not in catalogue: " + name)
}

// zeroPerLayer starts a traced run's metric set with every catalogue
// entry at 0, so a metric a workload does not exercise reads 0.
func zeroPerLayer() metricSet {
	m := metricSet{}
	for _, d := range perLayerCatalogue {
		m.set(d.name, 0, d.unit)
	}
	return m
}

// layer sets a per-layer metric by name, taking its unit from the
// catalogue.
func (o *outcome) layer(name string, v float64) {
	o.perLayer.set(name, v, unitOf(perLayerCatalogue, name))
}

// e2e sets an end-to-end metric by name.
func (o *outcome) e2e(name string, v float64) {
	o.endToEnd.set(name, v, unitOf(endToEndCatalogue, name))
}
