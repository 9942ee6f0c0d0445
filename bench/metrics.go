package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"opd/internal/telemetry"
)

// layerMetrics are the per-layer metrics a -trace run prints, each named
// after the module it measures. A metric that does not apply to a
// workload (durable.* without a WAL, sweep.* on a server) reads 0.
var layerMetrics = []metricDef{
	{"serve.chunk_ns.p50", "ns", true},
	{"serve.chunk_ns.p99", "ns", true},
	{"serve.ack_gap_ns.p50", "ns", true},
	{"serve.read_ns_per_chunk", "ns", true},
	{"serve.publish_ns_per_chunk", "ns", true},
	{"serve.stage_coverage", "ratio", false},
	{"serve.open_ms.p50", "ms", true},
	{"serve.close_ms.p50", "ms", true},
	{"serve.mem_bytes", "bytes", true},
	{"serve.shed_ops", "count", true},
	{"trace.decode_ns_per_elem", "ns", true},
	{"trace.send_ns_per_elem", "ns", true},
	{"core.detect_ns_per_elem", "ns", true},
	{"core.direct_ns_per_elem", "ns", true},
	{"core.sim_per_kelem", "count", true},
	{"durable.append_ns.p50", "ns", true},
	{"durable.append_ns.p99", "ns", true},
	{"durable.fsync_ns.p50", "ns", true},
	{"durable.fsync_ns.p99", "ns", true},
	{"durable.snapshot_ns.p99", "ns", true},
	{"durable.snapshots", "count", true},
	{"durable.wal_bytes_per_elem", "bytes", true},
	{"durable.replay_ms", "ms", true},
	{"bench.send_lag_ms.p99", "ms", true},
	{"bench.client_cpu_s", "s", true},
	{"bench.traced.ingest_p50_ms", "ms", true},
	{"bench.traced.max_elems_per_s", "1/s", false},
}

// sweepLayerMetrics are the per-layer metrics only sweep-offline has. A
// traced sweep run reports them beside layerMetrics; the result line,
// whose metrics BENCHMARK.json lists for the workloads it names, leaves
// them out.
var sweepLayerMetrics = []metricDef{
	{"trace.intern_ms", "ms", true},
	{"sweep.pass_s", "s", true},
	{"sweep.run_ms.p50", "ms", true},
	{"sweep.run_ms.max", "ms", true},
	{"sweep.worker_busy_ratio", "ratio", false},
	{"sweep.pool_hit_ratio", "ratio", false},
}

// minStageCoverage is the share of the server's chunk time its stages
// must account for in a traced run.
const minStageCoverage = 0.90

// The benchmark runs on a virtual machine whose host also runs other
// tenants. For stretches of seconds to minutes the hypervisor takes the
// machine's CPUs away for milliseconds at a time (steal time in
// /proc/stat): a chunk that waits for it is late by that much, and in
// such stretches the p90 ingest latency read 2–30ms instead of 0.25ms.
// Every steal-heavy run was an outlier, and about one run in five was
// steal-heavy. So each measured phase is cut into this many equal
// windows (perSegment in each of its segments), the host's steal is read
// at every window boundary, and the statistics pool the samples of the
// windows with no steal (chosen). A slower program is slower in those
// windows too.
const windows = 64

// minClean is the fewest windows of a phase the statistics read.
const minClean = 8

// chosen marks the windows of phase p the end-to-end statistics read:
// every window in which the hypervisor took no time from the benchmark's
// CPUs, or, if fewer than minClean were, the minClean with the least
// steal. It also returns how many it marked.
func (r *run) chosen(p phase) (ok [windows]bool, n int) {
	idx := make([]int, windows)
	for i := range idx {
		idx[i] = i
	}
	steal := r.stealWin[p]
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	for _, w := range idx {
		if steal[w] > 0 && n >= minClean {
			break
		}
		ok[w] = true
		n++
	}
	return ok, n
}

func pctOf(q float64) func([]float64) float64 {
	return func(xs []float64) float64 { return pct(xs, q) }
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// byDue buckets f(c) for the phase's chunks by due time.
func (r *run) byDue(p phase, f func(c chunkRec) float64) (out [windows][]float64) {
	for _, c := range r.recs {
		if c.phase != p {
			continue
		}
		if w := r.window(p, c.due); w >= 0 {
			out[w] = append(out[w], f(c))
		}
	}
	return out
}

func ingest(c chunkRec) float64 { return ms(c.acked.Sub(c.due)) }

// lag is how late the generator itself was: from when it was free to
// send a chunk to when it did. Waiting for the previous request is the
// server's queueing, and is in the chunk's latency, timed from its due
// time.
func lag(c chunkRec) float64 { return ms(c.send.Sub(c.ready)) }

// interval is the open loop's per-sender gap in a fixed-rate phase (the
// warm-up runs at the nominal rate).
func (r *run) interval(p phase) time.Duration {
	rate := r.w.nominal
	if p == phHi {
		rate = r.w.hi
	}
	return time.Duration(float64(time.Second) * float64(r.w.senders) / rate)
}

// e2e computes the end-to-end metrics, the sample count behind each,
// their per-window values, and the run's validity problems.
func (r *run) e2e() (m map[string]float64, n map[string]int, win map[string][]float64, invalid []string) {
	if r.sweep != nil {
		m, n = r.sweep.e2e()
		return m, n, nil, nil
	}
	m, n, win = map[string]float64{}, map[string]int{}, map[string][]float64{}
	// set reports a metric from phase p: vals holds each window's
	// samples, and stat reduces the chosen windows' samples, pooled, to
	// the metric. The report keeps every window's own value.
	set := func(name string, p phase, vals [windows][]float64, stat func([]float64) float64) {
		chosen, _ := r.chosen(p)
		var per, pooled []float64
		for w, v := range vals {
			if len(v) == 0 {
				continue
			}
			per = append(per, stat(v))
			if chosen[w] {
				pooled = append(pooled, v...)
			}
		}
		m[name], n[name], win[name] = stat(pooled), len(pooled), per
	}

	setup := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setup[i] = d.Seconds()
	}
	m["setup_s"], n["setup_s"] = median(setup), len(setup)

	nom, hi := r.byDue(phNominal, ingest), r.byDue(phHi, ingest)
	set("ingest_p50_ms", phNominal, nom, pctOf(0.50))
	set("ingest_p90_ms", phNominal, nom, pctOf(0.90))
	set("ingest_p90_ms.hi", phHi, hi, pctOf(0.90))
	var ev [windows][]float64
	for _, e := range r.eventLat {
		if w := r.window(phNominal, e.due); w >= 0 {
			ev[w] = append(ev[w], e.ms)
		}
	}
	set("event_p50_ms", phNominal, ev, pctOf(0.50))

	// Saturation throughput: elements acked in the chosen windows, by ack
	// time, over their length.
	var satElems float64
	var satN int
	chosen, k := r.chosen(phSat)
	sat := make([]float64, windows)
	for _, c := range r.recs {
		if c.phase != phSat {
			continue
		}
		if w := r.window(phSat, c.acked); w >= 0 {
			sat[w] += float64(c.elems)
			if chosen[w] {
				satElems += float64(c.elems)
				satN++
			}
		}
	}
	winSec := r.windowLen(phSat).Seconds()
	for w := range sat {
		sat[w] /= winSec
	}
	m["max_elems_per_s"], n["max_elems_per_s"], win["max_elems_per_s"] = satElems/(float64(k)*winSec), satN, sat

	// Server CPU per element acked in the chosen nominal windows.
	elems := r.byDue(phNominal, func(c chunkRec) float64 { return float64(c.elems) })
	chosen, k = r.chosen(phNominal)
	var per []float64
	var cpuNS, cpuElems float64
	for w := range elems {
		if e := sum(elems[w]); e > 0 && r.cpuWin[w] > 0 {
			per = append(per, float64(r.cpuWin[w].Nanoseconds())/e)
			if chosen[w] {
				cpuNS += float64(r.cpuWin[w].Nanoseconds())
				cpuElems += e
			}
		}
	}
	m["cpu_ns_per_elem"], n["cpu_ns_per_elem"], win["cpu_ns_per_elem"] = cpuNS/cpuElems, k, per
	m["peak_rss_mb"] = float64(r.peakRSS) / 1e6
	for p := phNominal; p < numPhases; p++ {
		steal := make([]float64, windows)
		for w, d := range r.stealWin[p] {
			steal[w] = ms(d)
		}
		win["steal_ms."+phaseNames[p]] = steal
	}

	// Validity of the open loop: over the whole phase the generator kept
	// to the schedule, and nearly every scheduled chunk was acked.
	for _, p := range []phase{phNominal, phHi} {
		l, acked := r.sendLagP99(p)
		if iv := r.interval(p); l > ms(iv) {
			invalid = append(invalid, fmt.Sprintf("%s: send lag p99 %.3fms exceeds the %.3fms interval", phaseNames[p], l, ms(iv)))
		}
		if sched := r.scheduled[p].Load(); float64(acked) < 0.99*float64(sched) {
			invalid = append(invalid, fmt.Sprintf("%s: %d of %d scheduled chunks acked", phaseNames[p], acked, sched))
		}
	}
	return m, n, win, invalid
}

// sendLagP99 is the generator's send-lag p99 over every chunk of a
// fixed-rate phase, and how many chunks that phase acked.
func (r *run) sendLagP99(p phase) (float64, int) {
	var lags []float64
	for _, c := range r.recs {
		if c.phase == p {
			lags = append(lags, lag(c))
		}
	}
	return pct(lags, 0.99), len(lags)
}

// layers computes the per-layer metrics of a traced run. Server-side
// numbers come from the flight traces of nominal-phase chunks (paired
// with the client's record of the same chunk) and from counter deltas
// between the debug scrapes around each segment.
func (r *run) layers(e2e map[string]float64) (m map[string]float64, notes, invalid []string) {
	m = map[string]float64{}
	for _, d := range layerMetrics {
		m[d.name] = 0
	}
	m["bench.traced.ingest_p50_ms"] = e2e["ingest_p50_ms"]
	m["bench.traced.max_elems_per_s"] = e2e["max_elems_per_s"]
	m["core.direct_ns_per_elem"] = r.directNS
	if r.consumed > 0 {
		m["core.sim_per_kelem"] = 1000 * float64(r.sim) / float64(r.consumed)
	}
	if r.sweep != nil {
		r.sweep.layers(m)
		return m, nil, nil
	}
	var client time.Duration
	for _, s := range r.segs {
		client += s.clientCPU[1] - s.clientCPU[0]
	}
	m["bench.client_cpu_s"] = client.Seconds()
	nom, _ := r.sendLagP99(phNominal)
	hi, _ := r.sendLagP99(phHi)
	m["bench.send_lag_ms.p99"] = math.Max(nom, hi)

	ready := make([]float64, len(r.ready))
	for i, d := range r.ready {
		ready[i] = ms(d)
	}
	m["durable.replay_ms"] = median(ready)

	m["serve.open_ms.p50"] = pct(r.tr.durations(spOpen), 0.5) / 1e6
	m["serve.close_ms.p50"] = pct(append(r.tr.durations(spDelete), r.tr.durations(spEnd)...), 0.5) / 1e6
	if sends := r.tr.durations(spSend); len(sends) > 0 {
		m["trace.send_ns_per_elem"] = sum(sends) / float64(len(sends)*r.w.chunk)
	}

	pairs := r.flight[phNominal]
	if len(pairs) > 0 {
		var total, gap, read, pub, append_, fsync []float64
		var elems, decode, detect float64
		for _, fp := range pairs {
			ct := fp.ct
			total = append(total, float64(ct.TotalNS))
			gap = append(gap, float64(fp.rec.acked.Sub(fp.rec.sent).Nanoseconds()-ct.TotalNS))
			read = append(read, float64(ct.StageNS[telemetry.StageRead]))
			pub = append(pub, float64(ct.StageNS[telemetry.StagePublish]))
			append_ = append(append_, float64(ct.StageNS[telemetry.StageWALAppend]))
			fsync = append(fsync, float64(ct.StageNS[telemetry.StageWALFsync]))
			elems += float64(ct.Elements)
			decode += float64(ct.StageNS[telemetry.StageDecode])
			detect += float64(ct.StageNS[telemetry.StageDetect])
		}
		m["serve.chunk_ns.p50"], m["serve.chunk_ns.p99"] = pct(total, 0.5), pct(total, 0.99)
		m["serve.ack_gap_ns.p50"] = pct(gap, 0.5)
		m["serve.read_ns_per_chunk"] = mean(read)
		m["serve.publish_ns_per_chunk"] = mean(pub)
		m["trace.decode_ns_per_elem"] = decode / elems
		m["core.detect_ns_per_elem"] = detect / elems
		if r.w.durable {
			m["durable.append_ns.p50"], m["durable.append_ns.p99"] = pct(append_, 0.5), pct(append_, 0.99)
			m["durable.fsync_ns.p50"], m["durable.fsync_ns.p99"] = pct(fsync, 0.5), pct(fsync, 0.99)
		}
	} else {
		notes = append(notes, "no flight traces paired for the nominal phase")
	}
	if r.w.durable {
		var snaps []float64
		for _, p := range []phase{phNominal, phHi} {
			for _, fp := range r.flight[p] {
				if s := fp.ct.StageNS[telemetry.StageSnapshot]; s > 0 {
					snaps = append(snaps, float64(s))
				}
			}
		}
		m["durable.snapshot_ns.p99"] = pct(snaps, 0.99)
		m["durable.snapshots"] = r.measuredDelta(telemetry.MetricDurableSnapshots)
		if el := r.measuredDelta(telemetry.MetricServeIngestElements); el > 0 {
			m["durable.wal_bytes_per_elem"] = r.measuredDelta(telemetry.MetricDurableWALBytes) / el
		}
	}

	// Stage coverage over the nominal phase, from the histogram sums.
	sumNS := func(name string) func(*scrape) float64 {
		return func(sc *scrape) float64 { return float64(sc.Latencies[name].SumNS) }
	}
	if chunk := r.phaseDelta(phNominal, sumNS(telemetry.MetricServeChunkLatency)); chunk > 0 {
		var stages float64
		for _, st := range telemetry.Stages() {
			stages += r.phaseDelta(phNominal, sumNS(telemetry.MetricServeStageLatency+"/"+st.String()))
		}
		m["serve.stage_coverage"] = stages / chunk
		if stages/chunk < minStageCoverage {
			invalid = append(invalid, fmt.Sprintf("server stages cover %.1f%% of chunk time (want >= %.0f%%)", 100*stages/chunk, 100*minStageCoverage))
		}
	}
	var peakMem float64
	for _, s := range r.segs {
		for _, sc := range s.scrapes {
			if sc != nil {
				peakMem = math.Max(peakMem, sc.Gauges[telemetry.MetricResilienceMemBytes])
			}
		}
	}
	m["serve.mem_bytes"] = peakMem
	m["serve.shed_ops"] = r.measuredDelta(telemetry.MetricResilienceShedOpens) + r.measuredDelta(telemetry.MetricResilienceShedChunks)
	return m, notes, invalid
}
