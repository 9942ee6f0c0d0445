package telemetry

import (
	"math"
	"time"
)

// This file defines the typed probes the instrumented subsystems hold.
// A probe is created once against a Registry, caches every instrument
// pointer, and exposes a handful of methods tailored to its subsystem's
// hot path. All probe constructors return nil for a nil registry, and
// all probe methods are nil-receiver safe, so "telemetry disabled" is a
// nil probe field and one branch per call site.

// Metric family names. Kept as constants so tests, docs, and dashboards
// reference one spelling.
const (
	MetricDetectorElements    = "opd_detector_elements_total"
	MetricDetectorSimilarity  = "opd_detector_similarity_ppm"
	MetricDetectorStateFlips  = "opd_detector_state_flips_total"
	MetricDetectorStateDwell  = "opd_detector_state_dwell_elements"
	MetricDetectorPhaseStarts = "opd_detector_phases_started_total"
	MetricDetectorPhaseLength = "opd_detector_phase_length_elements"
	MetricDetectorAnchorDist  = "opd_detector_anchor_adjustment_elements"

	MetricJITCompiles   = "opd_jit_compiles_total"
	MetricJITGuardHits  = "opd_jit_guard_hits_total"
	MetricJITBehaviours = "opd_jit_behaviours"

	MetricVMSteps    = "opd_vm_steps_total"
	MetricVMBranches = "opd_vm_branches_total"
	MetricVMCalls    = "opd_vm_calls_total"
	MetricVMLoops    = "opd_vm_loops_total"

	MetricSweepSimComps    = "opd_sweep_sim_computations_total"
	MetricSweepElements    = "opd_sweep_elements_total"
	MetricSweepRunNS       = "opd_sweep_run_ns"
	MetricSweepInterned    = "opd_sweep_interned_elements_total"
	MetricSweepSymbols     = "opd_sweep_interned_symbols"
	MetricSweepPoolHits    = "opd_sweep_pool_hits_total"
	MetricSweepPoolMisses  = "opd_sweep_pool_misses_total"
	MetricSweepRunErrors   = "opd_sweep_run_errors_total"
	MetricSweepRunPanics   = "opd_sweep_run_panics_total"
	MetricSweepRunsAborted = "opd_sweep_runs_aborted_total"

	MetricTraceReads         = "opd_trace_reads_total"
	MetricTraceReadErrors    = "opd_trace_read_errors_total"
	MetricTraceSalvages      = "opd_trace_salvaged_reads_total"
	MetricTraceSalvagedElems = "opd_trace_salvaged_elements_total"

	MetricServeSessionsOpened   = "opd_serve_sessions_opened_total"
	MetricServeSessionsActive   = "opd_serve_sessions_active"
	MetricServeSessionsClosed   = "opd_serve_sessions_closed_total"
	MetricServeSessionsEvicted  = "opd_serve_sessions_evicted_total"
	MetricServeSessionsFailed   = "opd_serve_sessions_failed_total"
	MetricServeSessionsRejected = "opd_serve_sessions_rejected_total"
	MetricServeChunks           = "opd_serve_chunks_total"
	MetricServeChunkErrors      = "opd_serve_chunk_errors_total"
	MetricServeIngestElements   = "opd_serve_ingest_elements_total"
	MetricServeEventsEmitted    = "opd_serve_events_emitted_total"
	MetricServeStageLatency     = "opd_serve_stage_latency_ns"
	MetricServeChunkLatency     = "opd_serve_chunk_latency_ns"
	MetricServeSSELag           = "opd_serve_sse_lag_ns"

	MetricServeEventsDropped = "opd_serve_events_dropped_total"

	MetricResilienceMemBytes       = "opd_resilience_mem_bytes"
	MetricResilienceMemLimit       = "opd_resilience_mem_limit_bytes"
	MetricResilienceShedOpens      = "opd_resilience_shed_opens_total"
	MetricResilienceShedChunks     = "opd_resilience_shed_chunks_total"
	MetricResiliencePressureEvicts = "opd_resilience_pressure_evictions_total"
	MetricResilienceHeartbeatDrops = "opd_resilience_heartbeat_disconnects_total"
	MetricResilienceSlowSubDrops   = "opd_resilience_slow_subscribers_dropped_total"
	MetricResilienceWatchdogTrips  = "opd_resilience_watchdog_trips_total"
	MetricResilienceWALFailures    = "opd_resilience_wal_failures_total"
	MetricResilienceBreakerTrips   = "opd_resilience_breaker_trips_total"
	MetricResilienceProbes         = "opd_resilience_durability_probes_total"
	MetricResilienceResumes        = "opd_resilience_durability_resumes_total"
	MetricResilienceDegraded       = "opd_resilience_degraded_sessions"

	MetricDurableWALBytes          = "opd_durable_wal_bytes_total"
	MetricDurableSnapshots         = "opd_durable_snapshots_total"
	MetricDurableSnapshotErrors    = "opd_durable_snapshot_errors_total"
	MetricDurableSessionsRecovered = "opd_durable_sessions_recovered_total"
	MetricDurableSessionsDropped   = "opd_durable_sessions_dropped_total"
	MetricDurableTornTruncations   = "opd_durable_torn_truncations_total"
	MetricDurableAppendLatency     = "opd_durable_append_ns"
	MetricDurableFsyncLatency      = "opd_durable_fsync_ns"
	MetricDurableSnapshotLatency   = "opd_durable_snapshot_ns"
)

// A DetectorProbe instruments one core.Detector with the measures of
// its phase behaviour: the similarity distribution (whose count is the
// detector's cost in similarity computations), P/T dwell, state flips,
// phase length and anchor adjustments, plus the phase lifecycle event
// trace.
type DetectorProbe struct {
	src  string
	ring *Ring

	elements    *Counter
	similarity  *LatencyHistogram
	stateFlips  *Counter
	dwellP      *LatencyHistogram
	dwellT      *LatencyHistogram
	phaseStarts *Counter
	phaseLength *LatencyHistogram
	anchorDist  *LatencyHistogram
}

// NewDetectorProbe builds the detector probe labeled {detector=id}.
// Returns nil (a disabled probe) for a nil registry.
func NewDetectorProbe(reg *Registry, id string) *DetectorProbe {
	if reg == nil {
		return nil
	}
	reg.Help(MetricDetectorSimilarity, "Similarity values in parts per million (round(sim*1e6), negative values as 0); the count is the similarity computations performed, the detector's dominant cost.")
	reg.Help(MetricDetectorStateDwell, "Elements spent in a P/T state before flipping.")
	l := L("detector", id)
	return &DetectorProbe{
		src:         id,
		ring:        reg.Ring(),
		elements:    reg.Counter(MetricDetectorElements, l),
		similarity:  reg.Latency(MetricDetectorSimilarity, l),
		stateFlips:  reg.Counter(MetricDetectorStateFlips, l),
		dwellP:      reg.Latency(MetricDetectorStateDwell, l, L("state", "P")),
		dwellT:      reg.Latency(MetricDetectorStateDwell, l, L("state", "T")),
		phaseStarts: reg.Counter(MetricDetectorPhaseStarts, l),
		phaseLength: reg.Latency(MetricDetectorPhaseLength, l),
		anchorDist:  reg.Latency(MetricDetectorAnchorDist, l),
	}
}

// Group records one consumed group of n elements.
func (p *DetectorProbe) Group(n int64) {
	if p == nil {
		return
	}
	p.elements.Add(n)
}

// Similarity records one computed similarity value, in parts per
// million. Values below zero (a negative correlation) and NaN record as
// zero.
func (p *DetectorProbe) Similarity(sim float64) {
	if p == nil {
		return
	}
	var ppm int64
	if sim > 0 {
		ppm = int64(math.Round(sim * 1e6))
	}
	p.similarity.Observe(ppm)
}

// StateFlip records an analyzer state change at stream position at:
// entered is the new state, dwell the length of the state just left.
func (p *DetectorProbe) StateFlip(enteredPhase bool, at, dwell int64) {
	if p == nil {
		return
	}
	p.stateFlips.Inc()
	v1 := int64(0)
	if enteredPhase {
		v1 = 1
		p.dwellT.Observe(dwell) // leaving T
	} else {
		p.dwellP.Observe(dwell) // leaving P
	}
	p.ring.Record(EvStateFlip, p.src, at, v1, dwell)
}

// EndOfStream records the dwell of the state still active when the
// stream finished.
func (p *DetectorProbe) EndOfStream(inPhase bool, dwell int64) {
	if p == nil {
		return
	}
	if inPhase {
		p.dwellP.Observe(dwell)
	} else {
		p.dwellT.Observe(dwell)
	}
}

// PhaseStart records a phase beginning at groupStart with
// anchor-corrected start adjStart.
func (p *DetectorProbe) PhaseStart(groupStart, adjStart int64) {
	if p == nil {
		return
	}
	p.phaseStarts.Inc()
	p.ring.Record(EvPhaseStart, p.src, groupStart, adjStart, 0)
	if adjStart < groupStart {
		p.anchorDist.Observe(groupStart - adjStart)
	}
}

// PhaseEnd records a phase ending at end with anchor-corrected start
// adjStart.
func (p *DetectorProbe) PhaseEnd(end, adjStart int64) {
	if p == nil {
		return
	}
	p.phaseLength.Observe(end - adjStart)
	p.ring.Record(EvPhaseEnd, p.src, end, adjStart, end-adjStart)
}

// A JITProbe instruments the adaptive optimization manager: fresh
// compilations, guard hits at phase starts, and the number of known
// behaviours.
type JITProbe struct {
	src  string
	ring *Ring

	compiles   *Counter
	guardHits  *Counter
	behaviours *Gauge
}

// NewJITProbe builds the JIT probe. Returns nil for a nil registry.
func NewJITProbe(reg *Registry) *JITProbe {
	if reg == nil {
		return nil
	}
	reg.Help(MetricJITCompiles, "Fresh compilations (unrecognized phase behaviours).")
	reg.Help(MetricJITGuardHits, "Phase-start signature guard hits (recognized recurring phases).")
	return &JITProbe{
		src:        "jit",
		ring:       reg.Ring(),
		compiles:   reg.Counter(MetricJITCompiles),
		guardHits:  reg.Counter(MetricJITGuardHits),
		behaviours: reg.Gauge(MetricJITBehaviours),
	}
}

// Compile records a fresh compilation decision at stream position at.
func (p *JITProbe) Compile(at int64) {
	if p == nil {
		return
	}
	p.compiles.Inc()
	p.ring.Record(EvJITCompile, p.src, at, -1, 0)
}

// Reuse records a recognized recurring phase (a guard hit) reusing the
// plan of behaviour id.
func (p *JITProbe) Reuse(at int64, behaviour int) {
	if p == nil {
		return
	}
	p.guardHits.Inc()
	p.ring.Record(EvJITReuse, p.src, at, int64(behaviour), 0)
}

// Behaviours records the number of known behaviours after a phase ends.
func (p *JITProbe) Behaviours(n int) {
	if p == nil {
		return
	}
	p.behaviours.Set(float64(n))
}

// A VMProbe instruments one interpreter, labeled by execution mode
// (interpreted vs. optimized program). The interpreter accumulates
// locally and flushes deltas in batches, so the per-instruction path
// stays free of atomics.
type VMProbe struct {
	steps    *Counter
	branches *Counter
	calls    *Counter
	loops    *Counter
}

// NewVMProbe builds a VM probe labeled {mode=mode}; mode is normally
// "interpreted" or "optimized". Returns nil for a nil registry.
func NewVMProbe(reg *Registry, mode string) *VMProbe {
	if reg == nil {
		return nil
	}
	reg.Help(MetricVMSteps, "Instructions executed, by program mode (interpreted vs. optimized).")
	l := L("mode", mode)
	return &VMProbe{
		steps:    reg.Counter(MetricVMSteps, l),
		branches: reg.Counter(MetricVMBranches, l),
		calls:    reg.Counter(MetricVMCalls, l),
		loops:    reg.Counter(MetricVMLoops, l),
	}
}

// Flush adds a batch of deltas accumulated by the interpreter.
func (p *VMProbe) Flush(steps, branches, calls, loops int64) {
	if p == nil {
		return
	}
	p.steps.Add(steps)
	p.branches.Add(branches)
	p.calls.Add(calls)
	p.loops.Add(loops)
}

// A SweepProbe instruments the experiment harness's detector sweeps:
// per-run wall clock (whose count is the run count) and aggregate
// similarity-computation volume.
type SweepProbe struct {
	simComps   *Counter
	elements   *Counter
	runNS      *LatencyHistogram
	interned   *Counter
	symbols    *Gauge
	poolHits   *Counter
	poolMisses *Counter
	runErrors  *Counter
	runPanics  *Counter
	aborted    *Counter
}

// NewSweepProbe builds the sweep probe. Returns nil for a nil registry.
func NewSweepProbe(reg *Registry) *SweepProbe {
	if reg == nil {
		return nil
	}
	reg.Help(MetricSweepRunNS, "Wall-clock nanoseconds of one detector configuration over one trace; the count is the completed runs.")
	reg.Help(MetricSweepInterned, "Elements interned into shared dense-ID streams (one hash pass per trace, amortized across every configuration).")
	reg.Help(MetricSweepPoolHits, "Sweep-pool buffer acquisitions served from a recycled slice.")
	reg.Help(MetricSweepRunErrors, "Sweep runs that failed (invalid config, or a panic recovered from detector code).")
	reg.Help(MetricSweepRunPanics, "Sweep runs that panicked in detector/model code (isolated to their Run).")
	reg.Help(MetricSweepRunsAborted, "Sweep runs abandoned because the sweep's context was cancelled.")
	return &SweepProbe{
		simComps:   reg.Counter(MetricSweepSimComps),
		elements:   reg.Counter(MetricSweepElements),
		runNS:      reg.Latency(MetricSweepRunNS),
		interned:   reg.Counter(MetricSweepInterned),
		symbols:    reg.Gauge(MetricSweepSymbols),
		poolHits:   reg.Counter(MetricSweepPoolHits),
		poolMisses: reg.Counter(MetricSweepPoolMisses),
		runErrors:  reg.Counter(MetricSweepRunErrors),
		runPanics:  reg.Counter(MetricSweepRunPanics),
		aborted:    reg.Counter(MetricSweepRunsAborted),
	}
}

// Run records one completed detector run.
func (p *SweepProbe) Run(elapsed time.Duration, simComps, elements int64) {
	if p == nil {
		return
	}
	p.simComps.Add(simComps)
	p.elements.Add(elements)
	p.runNS.Observe(elapsed.Nanoseconds())
}

// Interned records one shared interning pass: elements reduced to symbols
// distinct IDs.
func (p *SweepProbe) Interned(elements, symbols int64) {
	if p == nil {
		return
	}
	p.interned.Add(elements)
	p.symbols.Set(float64(symbols))
}

// RunError records one failed run; panicked marks failures that were
// recovered panics rather than ordinary errors.
func (p *SweepProbe) RunError(panicked bool) {
	if p == nil {
		return
	}
	p.runErrors.Inc()
	if panicked {
		p.runPanics.Inc()
	}
}

// RunAborted records one run abandoned by sweep cancellation.
func (p *SweepProbe) RunAborted() {
	if p == nil {
		return
	}
	p.aborted.Inc()
}

// PoolStats folds one sweep pool's final buffer-reuse counters into the
// cumulative totals.
func (p *SweepProbe) PoolStats(hits, misses int64) {
	if p == nil {
		return
	}
	p.poolHits.Add(hits)
	p.poolMisses.Add(misses)
}

// An IngestProbe instruments trace ingestion: reads attempted, reads that
// failed, and lenient-mode salvages (damaged streams whose valid prefix
// was kept), surfaced on /debug/phasedet alongside the sweep counters.
type IngestProbe struct {
	reads         *Counter
	readErrors    *Counter
	salvages      *Counter
	salvagedElems *Counter
}

// NewIngestProbe builds the ingestion probe. Returns nil for a nil
// registry.
func NewIngestProbe(reg *Registry) *IngestProbe {
	if reg == nil {
		return nil
	}
	reg.Help(MetricTraceReadErrors, "Trace reads that failed (truncated, corrupt, or I/O error).")
	reg.Help(MetricTraceSalvages, "Damaged traces whose valid prefix was salvaged in lenient mode.")
	return &IngestProbe{
		reads:         reg.Counter(MetricTraceReads),
		readErrors:    reg.Counter(MetricTraceReadErrors),
		salvages:      reg.Counter(MetricTraceSalvages),
		salvagedElems: reg.Counter(MetricTraceSalvagedElems),
	}
}

// Read records one attempted trace read; failed marks it unsuccessful.
func (p *IngestProbe) Read(failed bool) {
	if p == nil {
		return
	}
	p.reads.Inc()
	if failed {
		p.readErrors.Inc()
	}
}

// Salvaged records one lenient-mode salvage that kept elements elements of
// a damaged stream.
func (p *IngestProbe) Salvaged(elements int64) {
	if p == nil {
		return
	}
	p.salvages.Inc()
	p.salvagedElems.Add(elements)
}

// A ServeProbe instruments the streaming phase-detection server: session
// lifecycle (opened, active, closed, evicted, failed, rejected) and the
// ingest path (chunks, chunk decode errors, elements, phase events
// emitted to clients).
type ServeProbe struct {
	opened        *Counter
	active        *Gauge
	closed        *Counter
	evicted       *Counter
	failed        *Counter
	rejected      *Counter
	chunks        *Counter
	chunkErr      *Counter
	elements      *Counter
	events        *Counter
	eventsDropped *Counter

	// Per-stage chunk latency histograms, indexed by Stage, plus the
	// end-to-end chunk latency and the event-append-to-SSE-write lag.
	stageLat [NumStages]*LatencyHistogram
	chunkLat *LatencyHistogram
	sseLag   *LatencyHistogram
}

// NewServeProbe builds the server probe. Returns nil for a nil registry.
func NewServeProbe(reg *Registry) *ServeProbe {
	if reg == nil {
		return nil
	}
	reg.Help(MetricServeSessionsActive, "Live streaming sessions currently held by the session manager.")
	reg.Help(MetricServeSessionsEvicted, "Sessions reclaimed by the idle/TTL janitor (open phases flushed).")
	reg.Help(MetricServeSessionsFailed, "Sessions poisoned by a panic in their detector (isolated; server keeps serving).")
	reg.Help(MetricServeSessionsRejected, "Session opens refused by the session or window-memory caps.")
	reg.Help(MetricServeChunkErrors, "Element chunks rejected as truncated/corrupt (the request fails; the session survives).")
	reg.Help(MetricServeEventsDropped, "Phase events trimmed from session event logs by the retention cap (pollers past the trim point must restart).")
	reg.Help(MetricServeStageLatency, "Per-stage chunk ingest latency in nanoseconds (read, decode, wal_append, wal_fsync, detect, publish, snapshot).")
	reg.Help(MetricServeChunkLatency, "End-to-end server-side chunk ingest latency in nanoseconds.")
	reg.Help(MetricServeSSELag, "Delay from phase-event publish to its SSE write, in nanoseconds.")
	p := &ServeProbe{
		opened:        reg.Counter(MetricServeSessionsOpened),
		active:        reg.Gauge(MetricServeSessionsActive),
		closed:        reg.Counter(MetricServeSessionsClosed),
		evicted:       reg.Counter(MetricServeSessionsEvicted),
		failed:        reg.Counter(MetricServeSessionsFailed),
		rejected:      reg.Counter(MetricServeSessionsRejected),
		chunks:        reg.Counter(MetricServeChunks),
		chunkErr:      reg.Counter(MetricServeChunkErrors),
		elements:      reg.Counter(MetricServeIngestElements),
		events:        reg.Counter(MetricServeEventsEmitted),
		eventsDropped: reg.Counter(MetricServeEventsDropped),
		chunkLat:      reg.Latency(MetricServeChunkLatency),
		sseLag:        reg.Latency(MetricServeSSELag),
	}
	for st := Stage(0); st < NumStages; st++ {
		p.stageLat[st] = reg.Latency(MetricServeStageLatency, L("stage", st.String()))
	}
	return p
}

// StageLatency records one stage's duration for an ingested chunk.
func (p *ServeProbe) StageLatency(st Stage, ns int64) {
	if p == nil || ns <= 0 {
		return
	}
	p.stageLat[st].Observe(ns)
}

// ChunkLatency records one chunk's end-to-end server-side latency.
func (p *ServeProbe) ChunkLatency(ns int64) {
	if p == nil {
		return
	}
	p.chunkLat.Observe(ns)
}

// SSELag records the delay between a phase event entering the session
// log and its bytes being written to an SSE stream.
func (p *ServeProbe) SSELag(ns int64) {
	if p == nil || ns < 0 {
		return
	}
	p.sseLag.Observe(ns)
}

// SessionOpened records one accepted session.
func (p *ServeProbe) SessionOpened() {
	if p == nil {
		return
	}
	p.opened.Inc()
	p.active.Add(1)
}

// SessionClosed records one session leaving the manager; evicted marks
// janitor reclaims (idle/TTL) as opposed to client closes and shutdown.
func (p *ServeProbe) SessionClosed(evicted bool) {
	if p == nil {
		return
	}
	p.closed.Inc()
	p.active.Add(-1)
	if evicted {
		p.evicted.Inc()
	}
}

// SessionFailed records one session poisoned by a recovered panic.
func (p *ServeProbe) SessionFailed() {
	if p == nil {
		return
	}
	p.failed.Inc()
}

// SessionRejected records one session open refused by a cap.
func (p *ServeProbe) SessionRejected() {
	if p == nil {
		return
	}
	p.rejected.Inc()
}

// Chunk records one accepted chunk of the given number of elements.
func (p *ServeProbe) Chunk(elements int64) {
	if p == nil {
		return
	}
	p.chunks.Inc()
	p.elements.Add(elements)
}

// ChunkError records one rejected (truncated/corrupt) element chunk.
func (p *ServeProbe) ChunkError() {
	if p == nil {
		return
	}
	p.chunkErr.Inc()
}

// EventsEmitted records phase events appended to session event logs.
func (p *ServeProbe) EventsEmitted(n int64) {
	if p == nil {
		return
	}
	p.events.Add(n)
}

// EventsDropped records phase events trimmed from a session's event log
// by the retention cap.
func (p *ServeProbe) EventsDropped(n int64) {
	if p == nil || n <= 0 {
		return
	}
	p.eventsDropped.Add(n)
}

// A ResilienceProbe instruments the serving layer's overload defenses:
// the byte accountant's occupancy, load-shedding decisions (session opens
// refused, ingest chunks refused, pressure evictions), connection
// lifecycle enforcement (heartbeat disconnects, slow subscribers
// dropped, watchdog condemnations), and the degraded-durability circuit
// breaker (WAL failures, trips, heal probes, resumes). Every shed,
// degrade, and timeout decision the server makes lands in exactly one of
// these counters.
type ResilienceProbe struct {
	memBytes       *Gauge
	memLimit       *Gauge
	shedOpens      *Counter
	shedChunks     *Counter
	pressureEvicts *Counter
	heartbeatDrops *Counter
	slowSubDrops   *Counter
	watchdogTrips  *Counter
	walFailures    *Counter
	breakerTrips   *Counter
	probes         *Counter
	resumes        *Counter
	degraded       *Gauge
}

// NewResilienceProbe builds the resilience probe. Returns nil for a nil
// registry.
func NewResilienceProbe(reg *Registry) *ResilienceProbe {
	if reg == nil {
		return nil
	}
	reg.Help(MetricResilienceMemBytes, "Bytes currently accounted by the serve-layer byte governor (event logs, in-flight chunks, stream buffers).")
	reg.Help(MetricResilienceShedOpens, "Session opens shed by admission control — byte-governor soft watermark or the session cap (HTTP 429 + Retry-After).")
	reg.Help(MetricResilienceShedChunks, "Ingest chunks shed because the byte governor was over its hard limit (retryable 503).")
	reg.Help(MetricResiliencePressureEvicts, "Sessions evicted by the janitor under memory pressure (idle-longest first, then largest).")
	reg.Help(MetricResilienceHeartbeatDrops, "Framed-stream connections disconnected after missing the heartbeat deadline (stalled client).")
	reg.Help(MetricResilienceSlowSubDrops, "Event subscribers (SSE) dropped for stalling past the write deadline; clients resume via Last-Event-ID.")
	reg.Help(MetricResilienceWatchdogTrips, "Sessions condemned by the watchdog for holding their detect mutex past the deadline (flight-dumped and poisoned).")
	reg.Help(MetricResilienceWALFailures, "WAL append/fsync failures observed by the degraded-durability breaker.")
	reg.Help(MetricResilienceBreakerTrips, "Per-session durability circuit breakers tripped open (session continues detection ephemerally).")
	reg.Help(MetricResilienceProbes, "Durability heal probes attempted by degraded sessions (capped backoff).")
	reg.Help(MetricResilienceResumes, "Degraded sessions that re-snapshotted successfully and resumed durable operation.")
	reg.Help(MetricResilienceDegraded, "Sessions currently running with a tripped durability breaker (detection continues, ephemerally).")
	return &ResilienceProbe{
		memBytes:       reg.Gauge(MetricResilienceMemBytes),
		memLimit:       reg.Gauge(MetricResilienceMemLimit),
		shedOpens:      reg.Counter(MetricResilienceShedOpens),
		shedChunks:     reg.Counter(MetricResilienceShedChunks),
		pressureEvicts: reg.Counter(MetricResiliencePressureEvicts),
		heartbeatDrops: reg.Counter(MetricResilienceHeartbeatDrops),
		slowSubDrops:   reg.Counter(MetricResilienceSlowSubDrops),
		watchdogTrips:  reg.Counter(MetricResilienceWatchdogTrips),
		walFailures:    reg.Counter(MetricResilienceWALFailures),
		breakerTrips:   reg.Counter(MetricResilienceBreakerTrips),
		probes:         reg.Counter(MetricResilienceProbes),
		resumes:        reg.Counter(MetricResilienceResumes),
		degraded:       reg.Gauge(MetricResilienceDegraded),
	}
}

// Mem records the governor's current occupancy and configured limit.
func (p *ResilienceProbe) Mem(used, limit int64) {
	if p == nil {
		return
	}
	p.memBytes.Set(float64(used))
	p.memLimit.Set(float64(limit))
}

// ShedOpen records one session open refused by admission control (the
// soft watermark or the session cap).
func (p *ResilienceProbe) ShedOpen() {
	if p == nil {
		return
	}
	p.shedOpens.Inc()
}

// ShedChunk records one ingest chunk refused by the hard limit.
func (p *ResilienceProbe) ShedChunk() {
	if p == nil {
		return
	}
	p.shedChunks.Inc()
}

// PressureEvict records one session evicted to relieve memory pressure.
func (p *ResilienceProbe) PressureEvict() {
	if p == nil {
		return
	}
	p.pressureEvicts.Inc()
}

// HeartbeatDrop records one stalled stream connection disconnected.
func (p *ResilienceProbe) HeartbeatDrop() {
	if p == nil {
		return
	}
	p.heartbeatDrops.Inc()
}

// SlowSubscriberDrop records one event subscriber dropped for stalling.
func (p *ResilienceProbe) SlowSubscriberDrop() {
	if p == nil {
		return
	}
	p.slowSubDrops.Inc()
}

// WatchdogTrip records one session condemned for a stuck detect.
func (p *ResilienceProbe) WatchdogTrip() {
	if p == nil {
		return
	}
	p.watchdogTrips.Inc()
}

// WALFailure records one WAL append/fsync failure seen by the breaker.
func (p *ResilienceProbe) WALFailure() {
	if p == nil {
		return
	}
	p.walFailures.Inc()
}

// BreakerTrip records one durability breaker tripping open; the degraded
// gauge moves with it.
func (p *ResilienceProbe) BreakerTrip() {
	if p == nil {
		return
	}
	p.breakerTrips.Inc()
	p.degraded.Add(1)
}

// DurabilityProbeAttempt records one heal probe by a degraded session.
func (p *ResilienceProbe) DurabilityProbeAttempt() {
	if p == nil {
		return
	}
	p.probes.Inc()
}

// DurabilityResumed records one degraded session healing back to durable
// operation.
func (p *ResilienceProbe) DurabilityResumed() {
	if p == nil {
		return
	}
	p.resumes.Inc()
	p.degraded.Add(-1)
}

// DegradedGone records a degraded session leaving the manager without
// healing (close, eviction, shutdown), keeping the gauge honest.
func (p *ResilienceProbe) DegradedGone() {
	if p == nil {
		return
	}
	p.degraded.Add(-1)
}

// A DurableProbe instruments the durability layer: write-ahead-log
// traffic (bytes, and append latency, whose count is the records
// written), fsync latency (whose count is the fsyncs issued), snapshot
// churn, and crash-recovery outcomes (sessions recovered or dropped,
// torn WAL tails truncated).
type DurableProbe struct {
	walBytes     *Counter
	snapshots    *Counter
	snapErrors   *Counter
	recovered    *Counter
	dropped      *Counter
	tornTruncats *Counter

	appendLat *LatencyHistogram
	fsyncLat  *LatencyHistogram
	snapLat   *LatencyHistogram
}

// NewDurableProbe builds the durability probe. Returns nil for a nil
// registry.
func NewDurableProbe(reg *Registry) *DurableProbe {
	if reg == nil {
		return nil
	}
	reg.Help(MetricDurableWALBytes, "Bytes appended to session write-ahead logs (framing included).")
	reg.Help(MetricDurableSessionsRecovered, "Sessions rebuilt from snapshot+WAL replay at boot.")
	reg.Help(MetricDurableSessionsDropped, "Persisted sessions that could not be recovered (no valid snapshot).")
	reg.Help(MetricDurableTornTruncations, "Torn or corrupt WAL tails truncated to the last valid record on open.")
	reg.Help(MetricDurableAppendLatency, "WAL record write latency in nanoseconds (framing + write, excluding fsync); the count is the records written.")
	reg.Help(MetricDurableFsyncLatency, "fsync latency in nanoseconds (WAL segments, snapshots, directories); the count is the fsyncs issued.")
	reg.Help(MetricDurableSnapshotLatency, "Full session snapshot persist latency in nanoseconds (encode excluded, fsyncs included).")
	return &DurableProbe{
		walBytes:     reg.Counter(MetricDurableWALBytes),
		snapshots:    reg.Counter(MetricDurableSnapshots),
		snapErrors:   reg.Counter(MetricDurableSnapshotErrors),
		recovered:    reg.Counter(MetricDurableSessionsRecovered),
		dropped:      reg.Counter(MetricDurableSessionsDropped),
		tornTruncats: reg.Counter(MetricDurableTornTruncations),
		appendLat:    reg.Latency(MetricDurableAppendLatency),
		fsyncLat:     reg.Latency(MetricDurableFsyncLatency),
		snapLat:      reg.Latency(MetricDurableSnapshotLatency),
	}
}

// Append records one WAL record: its framed size and the write's
// duration (sans fsync).
func (p *DurableProbe) Append(bytes, ns int64) {
	if p == nil {
		return
	}
	p.walBytes.Add(bytes)
	p.appendLat.Observe(ns)
}

// Fsync records one fsync's duration.
func (p *DurableProbe) Fsync(ns int64) {
	if p == nil {
		return
	}
	p.fsyncLat.Observe(ns)
}

// Snapshot records one session snapshot persist and its duration; failed
// marks attempts that did not become durable (the WAL still covers the
// state), which count as errors and record no latency.
func (p *DurableProbe) Snapshot(ns int64, failed bool) {
	if p == nil {
		return
	}
	if failed {
		p.snapErrors.Inc()
		return
	}
	p.snapshots.Inc()
	p.snapLat.Observe(ns)
}

// SessionRecovered counts one session rebuilt from snapshot+WAL replay.
func (p *DurableProbe) SessionRecovered() {
	if p == nil {
		return
	}
	p.recovered.Inc()
}

// SessionDropped counts one persisted session that recovery had to
// abandon.
func (p *DurableProbe) SessionDropped() {
	if p == nil {
		return
	}
	p.dropped.Inc()
}

// TornTruncation counts one WAL tail truncated to its last valid record.
func (p *DurableProbe) TornTruncation() {
	if p == nil {
		return
	}
	p.tornTruncats.Inc()
}
