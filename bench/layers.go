package main

import "time"

// layerMetrics turns a traced run's raw measurements and the isolated
// probes into the per-layer metrics, one value for every name in perLayer
// (the run itself has measured cpu_ms_per_kmsg). Metrics a workload does not
// exercise stay 0.
func layerMetrics(w workloadDef, res *result, m measured, probes map[string]metricValue) {
	for _, s := range perLayer {
		if _, measured := res.Metrics[s.Name]; !measured {
			res.Metrics[s.Name] = metricValue{Unit: s.Unit}
		}
	}
	for name, v := range probes {
		if _, ok := res.Metrics[name]; ok {
			res.Metrics[name] = v
		}
	}
	put := func(name string, v float64) {
		mv := res.Metrics[name]
		mv.Value = v
		res.Metrics[name] = mv
	}
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	if m.plainDPS > 0 && m.tracedDPS > 0 {
		put("trace.overhead_share", 1-m.tracedDPS/m.plainDPS)
	}

	if !w.live() {
		// Counts repeat exactly, so any repetition serves; host times are
		// medians over the untraced repetitions.
		c := m.sim[0].counts
		msgs := float64(c.Delivered + c.Failed)
		var wallNS, objects, bytes []float64
		var pause time.Duration
		for _, r := range m.sim {
			wallNS = append(wallNS, float64(r.wall.Nanoseconds()))
			objects = append(objects, float64(r.mem.objects))
			bytes = append(bytes, float64(r.mem.bytes))
			pause += r.mem.pause
		}
		wall, steps := median(wallNS), float64(c.Steps)
		// Sim workloads run on the default kernel, the single heap.
		kernelNS := steps * probes["sim.single.schedule_step_ns"].Value
		put("sim.steps_per_msg", per(steps, msgs))
		put("sim.kernel_share", per(kernelNS, wall))
		put("engine.ns_per_step", per(wall, steps))
		put("engine.self_ns_per_msg", per(wall-kernelNS, msgs))
		put("engine.cost_msgs_per_msg", per(float64(c.Messages), msgs))
		put("engine.searches_per_msg", per(float64(c.Stats.Searches), msgs))
		put("engine.stale_reroutes_per_msg", per(float64(c.Stats.StaleReroutes), msgs))
		put("engine.retransmits_per_msg", per(float64(c.Stats.Retransmits), msgs))
		put("engine.wireless_drops_per_msg", per(float64(c.Stats.WirelessDrops), msgs))
		put("faults.drops_per_msg", per(float64(c.Drops), msgs))
		put("alloc.objects_per_msg", per(median(objects), msgs))
		put("alloc.bytes_per_msg", per(median(bytes), msgs))
		put("gc.pause_ms_total", millis(pause))
		if c.Dtn.Accepted > 0 {
			put("dtn.ns_per_step", per(wall, steps)-probes["probe.route_ns_per_step"].Value)
			put("dtn.transfers_per_accept", per(float64(c.Dtn.Transfers), float64(c.Dtn.Accepted)))
			put("dtn.duplicates_per_transfer", per(float64(c.Dtn.Duplicates), float64(c.Dtn.Transfers)))
			// Every acceptance and every transfer creates one replica.
			put("dtn.expired_share", per(float64(c.Dtn.Expired), float64(c.Dtn.Accepted+c.Dtn.Transfers)))
		}
		return
	}

	// Engine counters cover a cluster's whole life, so they are taken per
	// message delivered in that life; allocation and GC cover the timed
	// phase of the untraced segments.
	var delivered, messages, searches, stale, retrans, drops float64
	var measured, objects, bytes float64
	var pause time.Duration
	for _, s := range m.seg {
		delivered += float64(s.delivered)
		messages += float64(s.messages)
		searches += float64(s.stats.Searches)
		stale += float64(s.stats.StaleReroutes)
		retrans += float64(s.stats.Retransmits)
		drops += float64(s.stats.WirelessDrops)
		measured += float64(s.measured())
		objects += float64(s.mem.objects)
		bytes += float64(s.mem.bytes)
		pause += s.mem.pause
	}
	put("engine.cost_msgs_per_msg", per(messages, delivered))
	put("engine.searches_per_msg", per(searches, delivered))
	put("engine.stale_reroutes_per_msg", per(stale, delivered))
	put("engine.retransmits_per_msg", per(retrans, delivered))
	put("engine.wireless_drops_per_msg", per(drops, delivered))
	put("alloc.objects_per_msg", per(objects, measured))
	put("alloc.bytes_per_msg", per(bytes, measured))
	put("gc.pause_ms_total", millis(pause))

	// What follows is read off the traced segments: the frame tap and the
	// health sampler only exist there.
	var tap tapCounts
	var tMeasured, tDelivered, window float64
	var ready, stop, goroutines []float64
	var outboxMax, pendMax, packets, retransmits int64
	for _, s := range m.segTraced {
		tap = tapCounts{tap.frames + s.tap.frames, tap.data + s.tap.data, tap.hop0 + s.tap.hop0,
			tap.heartbeats + s.tap.heartbeats, tap.bytes + s.tap.bytes}
		tMeasured += float64(s.measured())
		tDelivered += float64(s.delivered)
		window += seconds(s.phase)
		ready = append(ready, millis(s.ready))
		stop = append(stop, millis(s.stop))
		goroutines = append(goroutines, float64(s.goroutines))
		outboxMax, pendMax = max(outboxMax, s.outboxMax), max(pendMax, s.pendMax)
		packets += s.dgramPackets
		retransmits += s.dgramRetransmits
	}
	if w.substrate == "rt" {
		put("rt.goroutines", median(goroutines))
		return
	}
	put("netrt.frames_per_msg", per(float64(tap.frames), tMeasured))
	put("netrt.data_frames_per_msg", per(float64(tap.data), tMeasured))
	put("netrt.wire_bytes_per_msg", per(float64(tap.bytes), tMeasured))
	put("netrt.heartbeat_frames_per_s", per(float64(tap.heartbeats), window))
	put("netrt.outbox_max", float64(outboxMax))
	put("netrt.pending_records_max", float64(pendMax))
	put("netrt.ready_ms", median(ready))
	put("netrt.stop_ms", median(stop))
	put("netrt.goroutines", median(goroutines))
	put("dgram.packets_per_msg", per(float64(packets), tDelivered))
	put("dgram.retransmit_share", per(float64(retransmits), float64(packets)))
	if w.chains == 1 {
		// Unloaded, a message's latency should be the sum of its hops: the
		// ratio says how far the isolated hop probe is from explaining the
		// end-to-end number (1 = fully).
		transmits := per(float64(tap.hop0), tMeasured)
		hopMS := probes["netrt.hop_us_p50."+w.substrate].Value / 1e3
		put("netrt.hop_sum_ratio", per(m.p50ms, transmits*hopMS))
	}
}
