package telemetry

import "testing"

// familyInventory is every metric family the probes and the runtime
// gauges register, with its kind, sorted by name. Each entry names its
// reader. bench/ (its scrape of /debug/phasedet) and loadgen
// (FilterCounters, the server counters of its -json report) match
// families by string, so a rename would silently zero a number there; a
// family with no reader is code to delete.
var familyInventory = []string{
	"opd_detector_anchor_adjustment_elements summary",       // TestDetectorProbeRecords
	"opd_detector_elements_total counter",                   // TestDetectorProbeRecords
	"opd_detector_phase_length_elements summary",            // TestCommandLineTools (vmrun dump); README: short phases
	"opd_detector_phases_started_total counter",             // TestDetectorProbeRecords; README: is a phase open (started - ended)
	"opd_detector_similarity_ppm summary",                   // TestCommandLineTools (detect das dump); README: similarity near the threshold, cost
	"opd_detector_state_dwell_elements summary",             // TestDetectorProbeRecords
	"opd_detector_state_flips_total counter",                // TestDetectorProbeRecords; README: flip rate
	"opd_durable_append_ns summary",                         // verify skill: durable scrape; README Observability
	"opd_durable_fsync_ns summary",                          // TestFsyncPolicies
	"opd_durable_sessions_dropped_total counter",            // TestRecoverDropsSnapshotlessSession
	"opd_durable_sessions_recovered_total counter",          // TestRecoveredSessionsCountActive
	"opd_durable_snapshot_errors_total counter",             // TestSnapshotCompaction
	"opd_durable_snapshot_ns summary",                       // verify skill: durable scrape; README Observability
	"opd_durable_snapshots_total counter",                   // bench: durable.snapshots; TestSnapshotCompaction
	"opd_durable_torn_truncations_total counter",            // TestDurableCrashRecoveryEquivalence (torn tail)
	"opd_durable_wal_bytes_total counter",                   // bench: durable.wal_bytes_per_elem
	"opd_gateway_migration_failures_total counter",          // loadgen FilterCounters
	"opd_gateway_migration_latency_ns summary",              // verify skill: gateway telemetry
	"opd_gateway_migrations_total counter",                  // loadgen FilterCounters
	"opd_gateway_node_state_flips_total counter",            // loadgen FilterCounters
	"opd_gateway_nodes_up gauge",                            // loadgen FilterCounters
	"opd_gateway_request_errors_total counter",              // loadgen FilterCounters
	"opd_gateway_requests_total counter",                    // loadgen FilterCounters
	"opd_gateway_retargets_total counter",                   // loadgen FilterCounters
	"opd_gateway_sessions gauge",                            // loadgen FilterCounters
	"opd_gateway_stream_splices gauge",                      // loadgen FilterCounters
	"opd_go_gc_cycles_total gauge",                          // verify skill: opd_go_ scrape; README Observability
	"opd_go_gc_last_pause_seconds gauge",                    // verify skill: opd_go_ scrape; README Observability
	"opd_go_gc_pause_seconds_total gauge",                   // verify skill: opd_go_ scrape; README Observability
	"opd_go_gomaxprocs gauge",                               // verify skill: opd_go_ scrape
	"opd_go_goroutines gauge",                               // verify skill: opd_go_ scrape; README Observability
	"opd_go_heap_alloc_bytes gauge",                         // verify skill: opd_go_ scrape; README Observability
	"opd_go_heap_objects gauge",                             // verify skill: opd_go_ scrape; README Observability
	"opd_go_heap_sys_bytes gauge",                           // verify skill: opd_go_ scrape; README Observability
	"opd_go_next_gc_bytes gauge",                            // verify skill: opd_go_ scrape; README Observability
	"opd_jit_behaviours gauge",                              // TestCommandLineTools (vmrun dump)
	"opd_jit_compiles_total counter",                        // TestCommandLineTools (vmrun dump)
	"opd_jit_guard_hits_total counter",                      // TestCommandLineTools (vmrun dump)
	"opd_resilience_breaker_trips_total counter",            // TestDurabilityBreakerTripAndHeal; loadgen FilterCounters
	"opd_resilience_degraded_sessions gauge",                // loadgen FilterCounters
	"opd_resilience_durability_probes_total counter",        // loadgen FilterCounters
	"opd_resilience_durability_resumes_total counter",       // TestDurabilityBreakerTripAndHeal; loadgen FilterCounters
	"opd_resilience_heartbeat_disconnects_total counter",    // TestHeartbeatStallDisconnect; loadgen FilterCounters
	"opd_resilience_mem_bytes gauge",                        // bench: serve.mem_bytes; loadgen FilterCounters
	"opd_resilience_mem_limit_bytes gauge",                  // loadgen FilterCounters
	"opd_resilience_pressure_evictions_total counter",       // TestPressureEviction; loadgen FilterCounters
	"opd_resilience_shed_chunks_total counter",              // bench: serve.shed_ops; TestShedWatermarks; loadgen FilterCounters
	"opd_resilience_shed_opens_total counter",               // bench: serve.shed_ops; TestAdmissionShed; loadgen FilterCounters
	"opd_resilience_slow_subscribers_dropped_total counter", // TestSSESlowSubscriberDropped; loadgen FilterCounters
	"opd_resilience_wal_failures_total counter",             // TestChaosSoak; loadgen FilterCounters
	"opd_resilience_watchdog_trips_total counter",           // TestWatchdogCondemnsStuckSession; loadgen FilterCounters
	"opd_serve_chunk_errors_total counter",                  // TestCorruptChunkFailsOneRequest
	"opd_serve_chunk_latency_ns summary",                    // bench: serve.stage_coverage; TestStageMetricsExposed
	"opd_serve_chunks_total counter",                        // loadgen FilterCounters
	"opd_serve_events_dropped_total counter",                // TestEventTrimDebitsAccountant
	"opd_serve_events_emitted_total counter",                // loadgen FilterCounters
	"opd_serve_ingest_elements_total counter",               // bench: durable.wal_bytes_per_elem; loadgen ledger cross-check
	"opd_serve_sessions_active gauge",                       // TestRecoveredSessionsCountActive; loadgen FilterCounters
	"opd_serve_sessions_closed_total counter",               // TestRecoveredSessionsCountActive; loadgen FilterCounters
	"opd_serve_sessions_evicted_total counter",              // TestIdleEviction; loadgen FilterCounters
	"opd_serve_sessions_failed_total counter",               // TestPanicPoisonsOnlyItsSession; loadgen FilterCounters
	"opd_serve_sessions_opened_total counter",               // TestRunnerEndToEnd; loadgen FilterCounters
	"opd_serve_sessions_rejected_total counter",             // TestAdmissionCaps; loadgen FilterCounters
	"opd_serve_sse_lag_ns summary",                          // verify skill: opd_serve_ scrape; README Observability
	"opd_serve_stage_latency_ns summary",                    // bench: serve.stage_coverage; TestStageMetricsExposed
	"opd_sweep_elements_total counter",                      // verify skill: opd_sweep_ scrape; README: similarity computations per element
	"opd_sweep_interned_elements_total counter",             // verify skill: opd_sweep_ scrape; README sweep engine
	"opd_sweep_interned_symbols gauge",                      // verify skill: opd_sweep_ scrape; README sweep engine
	"opd_sweep_pool_hits_total counter",                     // bench: sweep-offline pool hits
	"opd_sweep_pool_misses_total counter",                   // bench: sweep-offline pool misses
	"opd_sweep_run_errors_total counter",                    // TestPanicIsolatedToOneRun
	"opd_sweep_run_ns summary",                              // TestPanicIsolatedToOneRun (count = completed runs)
	"opd_sweep_run_panics_total counter",                    // TestPanicIsolatedToOneRun
	"opd_sweep_runs_aborted_total counter",                  // TestCancelMidSweepReturnsPartialResults
	"opd_sweep_sim_computations_total counter",              // verify skill: opd_sweep_ scrape; README: similarity computations per element
	"opd_trace_read_errors_total counter",                   // verify skill: lenient salvage dump
	"opd_trace_reads_total counter",                         // verify skill: lenient salvage dump
	"opd_trace_salvaged_elements_total counter",             // verify skill: lenient salvage dump
	"opd_trace_salvaged_reads_total counter",                // verify skill: lenient salvage dump
	"opd_vm_branches_total counter",                         // TestCommandLineTools (vmrun dump)
	"opd_vm_calls_total counter",                            // verify skill: vmrun scrape; README: VM modes
	"opd_vm_loops_total counter",                            // verify skill: vmrun scrape; README: VM modes
	"opd_vm_steps_total counter",                            // verify skill: vmrun scrape; README: VM modes
}

func TestFamilyInventory(t *testing.T) {
	reg := NewRegistry()
	NewDetectorProbe(reg, "d")
	NewJITProbe(reg)
	NewVMProbe(reg, "interpreted")
	NewSweepProbe(reg)
	NewIngestProbe(reg)
	NewServeProbe(reg)
	NewResilienceProbe(reg)
	NewDurableProbe(reg)
	NewGatewayProbe(reg)
	RegisterRuntimeGauges(reg)

	want := map[string]bool{}
	for _, f := range familyInventory {
		if want[f] {
			t.Errorf("inventory lists %q twice", f)
		}
		want[f] = true
	}
	for _, fam := range reg.families() {
		f := fam[0].family + " " + fam[0].kind()
		if !want[f] {
			t.Errorf("registered family %q is not in the inventory: name its reader there", f)
		}
		delete(want, f)
	}
	for f := range want {
		t.Errorf("inventory family %q is no longer registered", f)
	}
}
