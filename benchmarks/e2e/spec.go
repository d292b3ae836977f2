package main

// metricSpec declares one reported metric. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// main_test.go fails when the two drift apart.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the parent's median a metric may worsen by; end-to-end only
}

// endToEnd lists the metrics every untraced run prints, for every
// workload. Each is defined and non-zero on all four workloads, which is
// why the quality metrics are the complements (recall, precision, bound
// met) of the paper's false-negative/false-positive/violation rates:
// those are zero on the three workloads that do not shed.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"sat_events_per_s", "ev/s", "higher", 0.25},
	{"sat_cpu_us_per_event", "us", "lower", 0.20},
	{"paced_detect_p50_ms", "ms", "lower", 0.25},
	{"paced_detect_p95_ms", "ms", "lower", 0.25},
	{"recall_pct", "%", "higher", 0.10},
	{"precision_pct", "%", "higher", 0.05},
	{"lb_met_pct", "%", "higher", 0.05},
	{"retained_heap_mb", "MB", "lower", 0.10},
}

// perLayer lists the metrics every traced run prints. A metric whose
// layer a workload does not use (the WAL on wire_light, the shedder on
// everything but overload_shed) reads 0 there.
var perLayer = []metricSpec{
	// End-to-end figures that cannot carry a bound: the p99 does not
	// repeat from run to run, the others exist on one workload only (see
	// README, "Metrics without a bound").
	{"paced_detect_p99_ms", "ms", "lower", 0},
	{"paced_ack_p50_ms", "ms", "lower", 0},
	{"paced_ack_p99_ms", "ms", "lower", 0},
	{"recover_events_per_s", "ev/s", "higher", 0},
	{"fn_pct", "%", "lower", 0},
	{"fp_pct", "%", "lower", 0},
	{"lb_violation_pct", "%", "lower", 0},

	{"transport.codec.encode_ns_per_event", "ns", "lower", 0},
	{"transport.codec.decode_ns_per_event", "ns", "lower", 0},
	{"transport.codec.bytes_per_event", "B", "lower", 0},
	{"transport.null_sink_events_per_s", "ev/s", "higher", 0},
	{"transport.client.submit_ns_per_event", "ns", "lower", 0},
	{"transport.client.credit_wait_share", "%", "lower", 0},
	{"transport.server.self_ns_per_event", "ns", "lower", 0},
	{"transport.frames_per_kevent", "count", "lower", 0},
	{"transport.protocol_errors", "count", "lower", 0},
	{"transport.redials", "count", "lower", 0},
	{"transport.retransmits", "count", "lower", 0},
	{"transport.dedup_batches", "count", "lower", 0},
	{"transport.tenant.throttled_batches", "count", "lower", 0},

	{"wal.append_ns_per_record", "ns", "lower", 0},
	{"wal.commit_us_p50", "us", "lower", 0},
	{"wal.commit_us_p99", "us", "lower", 0},
	{"wal.records_per_sync", "count", "higher", 0},
	{"wal.bytes_per_event", "B", "lower", 0},
	{"wal.commit_share_of_ack", "%", "lower", 0},
	{"wal.recover_ns_per_record", "ns", "lower", 0},

	{"engine.inproc_events_per_s", "ev/s", "higher", 0},
	{"engine.fanout_overhead_ns_per_event", "ns", "lower", 0},
	{"engine.delivered_per_submitted", "count", "lower", 0},
	{"engine.submit_us_p50", "us", "lower", 0},
	{"engine.submit_us_p99", "us", "lower", 0},

	{"runtime.serial_inproc_events_per_s", "ev/s", "higher", 0},
	{"runtime.sharded_inproc_events_per_s", "ev/s", "higher", 0},
	{"runtime.queue_len_p50", "count", "lower", 0},
	{"runtime.queue_len_max", "count", "lower", 0},
	{"runtime.shard_skew", "count", "lower", 0},
	{"runtime.steals", "count", "lower", 0},
	{"runtime.pool_misses", "count", "lower", 0},
	{"runtime.event_latency_p99_ms", "ms", "lower", 0},
	{"runtime.lb_violation_pct", "%", "lower", 0},

	{"operator.process_ns_per_event", "ns", "lower", 0},
	{"operator.memberships_per_event", "count", "lower", 0},
	{"operator.windows_closed", "count", "higher", 0},
	{"operator.complex_events", "count", "higher", 0},
	{"window.route_ns_per_event", "ns", "lower", 0},
	{"pattern.match_ns_per_window", "ns", "lower", 0},
	{"parallel.merge_ns_per_close", "ns", "lower", 0},

	{"core.shedder.drop_ns_per_decision", "ns", "lower", 0},
	{"core.model.train_s", "s", "lower", 0},
	{"core.capacity_events_per_s", "ev/s", "higher", 0},
	{"core.shed_pct", "%", "lower", 0},
	{"core.shed_vs_needed_ratio", "count", "lower", 0},
	{"core.shedder_active_share", "%", "lower", 0},

	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.late_max_ms", "ms", "lower", 0},
	{"loadgen.paced_valid", "count", "higher", 0},
	{"process.allocs_per_event", "count", "lower", 0},
	{"process.gc_pause_total_ms", "ms", "lower", 0},
	{"process.paced_cpu_share", "%", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.self_us.loadgen", "us", "lower", 0},
	{"trace.self_us.transport", "us", "lower", 0},
	{"trace.self_us.wal", "us", "lower", 0},
	{"trace.self_us.sink", "us", "lower", 0},
	{"trace.self_us.emit", "us", "lower", 0},
}

// specsFor returns the metric list a run with the given -trace prints.
func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// workloadSpec names one workload and the reason it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"wire_light", "8-event frames into a serial Q3 pipeline: frame scan, decode, credit and socket syscalls bound the throughput; WAL, engine, shards and shedder do nothing"},
	{"wire_durable", "256-event sequenced frames journaled with real fsync before the ack: WAL append, commit and fsync dominate; the log is replayed afterwards, its read side"},
	{"engine_tenants", "two tenant connections into the engine, six tenant-scoped queries, Q2 on two shards: fan-out, partitioner, matcher and epoch merge dominate, the wire does little"},
	{"overload_shed", "input paced at 1.5x a sleep-pinned capacity: detector, drop amount and utility thresholds decide quality and latency; hot-path speed-ups must not move the paced metrics"},
}
