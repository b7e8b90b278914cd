package main

// metricDef is one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json at the repository root lists the
// same names, units and directions (TestRegistryMatchesBenchmarkJSON pins
// it), and every run prints every metric of the table its mode selects.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent median
}

// endToEnd are the metrics a user of the simulator or of dshserve waits
// for, printed by an untraced run (--trace 0). Every workload emits every
// one of them; "op" is the workload's unit of user-visible work (one
// dshsim.Run for burst and fabric, one cache-missing job from POST to the
// last result byte for serve).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.2},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
}

// perLayer are printed by a traced run (--trace 1), named by the module
// whose work they measure. A workload that never enters a layer reports 0
// for it (burst submits no jobs; serve runs no packet simulation the
// benchmark can observe).
var perLayer = []metricDef{
	// Spans around the benchmark's calls into each layer.
	{"topology.build_s", "s", "lower", 0},
	{"workload.gen_s", "s", "lower", 0},
	{"dshsim.run_s", "s", "lower", 0},
	{"metrics.reduce_s", "s", "lower", 0},
	{"serve.submit_ms", "ms", "lower", 0},
	{"serve.wait_ms", "ms", "lower", 0},
	{"serve.fetch_ms", "ms", "lower", 0},
	{"serve.hit_p50_ms", "ms", "lower", 0},
	{"serve.hit_p90_ms", "ms", "lower", 0},
	{"serve.execute_ms", "ms", "lower", 0},
	{"serve.cache_put_ms", "ms", "lower", 0},
	{"serve.cache_get_ms", "ms", "lower", 0},
	{"tracing.overhead_frac", "ratio", "lower", 0},

	// Flat CPU-profile shares by the package of the leaf frame (advisory).
	{"sim.cpu_share", "ratio", "lower", 0},
	{"eport.cpu_share", "ratio", "lower", 0},
	{"core.cpu_share", "ratio", "lower", 0},
	{"switchdev.cpu_share", "ratio", "lower", 0},
	{"host.cpu_share", "ratio", "lower", 0},
	{"transport.cpu_share", "ratio", "lower", 0},
	{"routing.cpu_share", "ratio", "lower", 0},
	{"packet.cpu_share", "ratio", "lower", 0},
	{"metrics.cpu_share", "ratio", "lower", 0},
	{"workload.cpu_share", "ratio", "lower", 0},
	{"flowsim.cpu_share", "ratio", "lower", 0},
	{"serve.cpu_share", "ratio", "lower", 0},
	{"wire.cpu_share", "ratio", "lower", 0},
	{"runtime.cpu_share", "ratio", "lower", 0},

	// Deterministic work counters, identical on every repetition of a seed.
	{"sim.events", "count", "lower", 0},
	{"sim.heap_max", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"eport.tx_mb", "MB", "lower", 0},
	{"eport.pause_frames", "count", "lower", 0},
	{"eport.host_paused_ms", "ms", "lower", 0},
	{"eport.fanin_paused_us.sih", "us", "lower", 0},
	{"eport.fanin_paused_us.dsh", "us", "lower", 0},
	{"core.drops.sih", "count", "lower", 0},
	{"core.drops.dsh", "count", "lower", 0},
	{"switchdev.ecn_marks", "count", "lower", 0},
	{"host.sent_packets", "count", "lower", 0},
	{"host.unfinished", "count", "lower", 0},
	{"metrics.fct_p50_us.sih", "us", "lower", 0},
	{"metrics.fct_p50_us.dsh", "us", "lower", 0},
	{"metrics.fct_p99_us.sih", "us", "lower", 0},
	{"metrics.fct_p99_us.dsh", "us", "lower", 0},
	{"runtime.alloc_mb", "MB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"serve.misses", "count", "higher", 0},
	{"serve.hits.mem", "count", "higher", 0},
	{"serve.hits.disk", "count", "higher", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.result_kb", "KB", "lower", 0},
}
