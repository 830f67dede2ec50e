package main

// perLayer lists every per-layer metric a traced run reports, with its
// unit. Every traced run reports all of them; a layer the workload does
// not load reads 0. BENCHMARK.json lists the same names (metrics_test.go
// checks it).
var perLayer = []struct{ name, unit string }{
	{"wire.self_us", "us"},
	{"wire.bytes_per_slot", "B"},
	{"serve.self_us", "us"},
	{"serve.persist_us", "us"},
	{"serve.round_p99_us", "us"},
	{"wal.append_ns", "ns"},
	{"wal.bytes_per_record", "B"},
	{"core.self_ns_per_slot", "ns"},
	{"policy.write_indices_ns", "ns"},
	{"policy.update_ns", "ns"},
	{"channel.sample_ns", "ns"},
	{"protocol.decide_ns", "ns"},
	{"protocol.broadcast_ns", "ns"},
	{"protocol.election_ns", "ns"},
	{"protocol.local_mwis_ns", "ns"},
	{"protocol.finalize_ns", "ns"},
	{"protocol.decides_per_slot", "count"},
	{"protocol.epoch_skip_frac", "frac"},
	{"protocol.leader_skip_frac", "frac"},
	{"protocol.sensitivity_skip_frac", "frac"},
	{"protocol.resolves_per_decide", "count"},
	{"protocol.allocs_per_decide", "count"},
	{"mwis.ns_per_resolve", "ns"},
	{"mwis.solve_ns", "ns"},
	{"sim.fig6_s", "s"},
	{"sim.fig7_s", "s"},
	{"sim.fig8_s", "s"},
	{"sim.ablations_s", "s"},
	{"sim.shift_s", "s"},
	{"sim.fig7rep_s", "s"},
	{"engine.cache_hits", "count"},
	{"engine.cache_misses", "count"},
	{"distnet.mini_rounds_per_decision", "count"},
	{"distnet.frames_per_decision", "count"},
	{"distnet.copies_dropped_per_decision", "count"},
	{"distnet.convergence_failure_frac", "frac"},
	{"distnet.non_independent_frac", "frac"},
	{"distnet.undetermined_frac", "frac"},
	{"distnet.played_weight_mean", "weight"},
	{"unattributed_frac", "frac"},
	{"trace_overhead_frac", "frac"},
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"work_s", "s"},
	{"round_p50_us", "us"},
	{"round_p90_us", "us"},
	{"setup_s", "s"},
}

// layerMetrics starts a traced run's outcome with every per-layer metric
// at 0.
func layerMetrics() *outcome {
	o := &outcome{}
	for _, m := range perLayer {
		o.set(m.name, m.unit, 0)
	}
	return o
}

// setLayer overwrites one per-layer metric, keeping its declared unit.
func (o *outcome) setLayer(name string, v float64) {
	m, ok := o.Metrics[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	m.Value = v
	o.Metrics[name] = m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
