package main

// metricSpec names one reported metric. BENCHMARK.json repeats these names
// with their direction and regression bound; bench_test.go keeps the two
// lists identical.
type metricSpec struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload from the untraced run. fail_share is printed beside them but
// kept out of this list: it is 0 on a healthy run, and a relative bound on
// 0 means nothing — failures reach the acceptance harness as the
// attempted/failed pair instead.
var endToEnd = []metricSpec{
	{"delivered_per_s", "msgs/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"mem_mb", "MB"},
}

// reportExtras are printed beside the end-to-end metrics of every run: CPU
// per message (declared with the per-layer metrics, see there), and two
// that are in no declared list, the host factor the run was normalised by
// and the process's peak RSS.
var reportExtras = []metricSpec{
	{"cpu_ms_per_kmsg", "ms"},
	{"host.factor", "ratio"},
	{"rss.max_mb", "MB"},
}

// perLayer are the metrics of single layers (layer = package name),
// reported by a traced run. A metric that does not apply to the workload
// at hand reads 0 there.
var perLayer = []metricSpec{
	// Process CPU (user+sys) per 1000 delivered, measured by every run,
	// traced or not. It is no layer's own number and would sit with the
	// end-to-end metrics, had they not each to hold a bound of at most 25%
	// on every workload: on tcp-idle, where the process sleeps between any
	// two hops, the reading moves between three levels with what the box's
	// neighbours do (280, 480 and 680 ms with both, none and one of the two
	// cores taken), for minutes at a time, which no run length averages out.
	{"cpu_ms_per_kmsg", "ms"},

	{"workload.gen_ns_per_op", "ns"},

	{"sim.single.schedule_step_ns", "ns"},
	{"sim.sharded.schedule_step_ns", "ns"},
	{"sim.steps_per_msg", "count"},
	{"sim.kernel_share", "ratio"},

	{"engine.ns_per_step", "ns"},
	{"engine.self_ns_per_msg", "ns"},
	{"engine.cost_msgs_per_msg", "count"},
	{"engine.searches_per_msg", "count"},
	{"engine.stale_reroutes_per_msg", "count"},
	{"engine.retransmits_per_msg", "count"},
	{"engine.wireless_drops_per_msg", "count"},
	{"engine.move_ns", "ns"},

	{"alloc.objects_per_msg", "count"},
	{"alloc.bytes_per_msg", "B"},
	{"gc.pause_ms_total", "ms"},

	{"faults.wrap_ns_per_msg", "ns"},
	{"faults.drops_per_msg", "count"},

	{"obs.record_ns", "ns"},
	{"obs.wrap_ns_per_msg", "ns"},
	{"trace.overhead_share", "ratio"},

	{"execq.hop_ns", "ns"},
	{"execq.contended_hop_ns", "ns"},

	{"rt.hop_us_p50", "us"},
	{"rt.goroutines", "count"},

	{"wire.encode_data_ns", "ns"},
	{"wire.decode_data_ns", "ns"},
	{"wire.encode_allocs", "count"},
	{"wire.decode_allocs", "count"},
	{"wire.data_frame_bytes", "B"},
	{"wire.stream_frames_per_s", "1/s"},

	{"dgram.echo_us_p50", "us"},
	{"tcp.echo_us_p50", "us"},
	{"dgram.stream_mb_per_s", "MB/s"},
	{"dgram.frag_mb_per_s", "MB/s"},
	{"dgram.dial_ms", "ms"},
	{"dgram.packets_per_msg", "count"},
	{"dgram.retransmit_share", "ratio"},

	{"netrt.hop_us_p50.tcp", "us"},
	{"netrt.hop_us_p50.udp", "us"},
	{"netrt.hop_sum_ratio", "ratio"},
	{"netrt.frames_per_msg", "count"},
	{"netrt.data_frames_per_msg", "count"},
	{"netrt.wire_bytes_per_msg", "B"},
	{"netrt.heartbeat_frames_per_s", "1/s"},
	{"netrt.outbox_max", "count"},
	{"netrt.pending_records_max", "count"},
	{"netrt.ready_ms", "ms"},
	{"netrt.stop_ms", "ms"},
	{"netrt.goroutines", "count"},

	{"dtn.store_put_ns", "ns"},
	{"dtn.store_formh_ns", "ns"},
	{"dtn.summary_encode_ns", "ns"},
	{"dtn.summary_decode_ns", "ns"},
	{"dtn.summary_bytes", "B"},
	{"dtn.ns_per_step", "ns"},
	{"dtn.transfers_per_accept", "count"},
	{"dtn.duplicates_per_transfer", "count"},
	{"dtn.expired_share", "ratio"},
}
