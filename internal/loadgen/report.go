package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"opd/internal/telemetry"
)

// A Report is one load run's machine-readable record — the run element
// of the document loadgen -json writes. Everything is client-observed
// except Server, which snapshots the server's own counters for
// cross-checking (e.g. client-observed open sheds vs
// opd_resilience_shed_opens_total).
type Report struct {
	Spec   Spec   `json:"spec"`
	Plan   string `json:"plan"`
	WallNS int64  `json:"wall_ns"`

	Sessions  SessionStats          `json:"sessions"`
	Ingest    IngestStats           `json:"ingest"`
	Latency   map[string]LatencyRec `json:"latency"`
	Events    int64                 `json:"events_delivered"`
	Sheds     ShedStats             `json:"sheds"`
	Recovery  *RecoveryStats        `json:"recovery,omitempty"`
	Errors    ErrorStats            `json:"errors"`
	Server    map[string]float64    `json:"server,omitempty"`
	ServerErr string                `json:"server_snapshot_error,omitempty"`
}

// SessionStats counts session outcomes.
type SessionStats struct {
	Opened    int64 `json:"opened"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Lost      int64 `json:"lost"`
	Degraded  int64 `json:"degraded_transitions"`
}

// IngestStats measures achieved throughput.
type IngestStats struct {
	Chunks         int64   `json:"chunks"`
	Elements       int64   `json:"elements"`
	ChunksPerSec   float64 `json:"chunks_per_sec"`
	ElementsPerSec float64 `json:"elements_per_sec"`
}

// A LatencyRec is one client-side histogram readout.
type LatencyRec struct {
	telemetry.LatencySummary
}

// ShedStats counts the overload-contract interactions the clients
// observed (and honored).
type ShedStats struct {
	Opens            int64 `json:"opens"`
	Chunks           int64 `json:"chunks"`
	StreamReconnects int64 `json:"stream_reconnects"`
	RetriesExhausted int64 `json:"retries_exhausted"`
}

// RecoveryStats records a mid-run kill -9.
type RecoveryStats struct {
	// KilledAtNS is when the kill landed, relative to run start.
	KilledAtNS int64 `json:"killed_at_ns"`
	// RestartNS is kill → child process re-exec'd.
	RestartNS int64 `json:"restart_ns"`
	// ReadyNS is kill → /readyz 200 (boot replay finished).
	ReadyNS int64 `json:"ready_ns"`
	// IngestNS is kill → first chunk acknowledged on a stream the kill
	// disrupted (one that reconnected after it). For a cluster node
	// kill that is the live-migration ride-through time: dead-node
	// detection, re-home, and the client's replay.
	IngestNS int64 `json:"ingest_recovery_ns"`
}

// ErrorStats separates contract-level outcomes from real defects.
type ErrorStats struct {
	Unexpected int64    `json:"unexpected"`
	Samples    []string `json:"samples,omitempty"`
}

// report assembles the Report after a run.
func (r *Runner) report(t0 time.Time, wall time.Duration) *Report {
	secs := wall.Seconds()
	rep := &Report{
		Spec:   r.spec,
		Plan:   r.plan.String(),
		WallNS: wall.Nanoseconds(),
		Sessions: SessionStats{
			Opened:    r.opened.Load(),
			Completed: r.completed.Load(),
			Failed:    r.failed.Load(),
			Lost:      r.lost.Load(),
			Degraded:  r.degradedTrans.Load(),
		},
		Ingest: IngestStats{
			Chunks:         r.chunks.Load(),
			Elements:       r.elements.Load(),
			ChunksPerSec:   float64(r.chunks.Load()) / secs,
			ElementsPerSec: float64(r.elements.Load()) / secs,
		},
		Latency: map[string]LatencyRec{},
		Events:  r.events.Load(),
		Sheds: ShedStats{
			Opens:            r.opensShed.Load(),
			Chunks:           r.chunkSheds.Load(),
			StreamReconnects: r.reconnects.Load(),
			RetriesExhausted: r.exhausted.Load(),
		},
		Errors: ErrorStats{Unexpected: r.unexpected.Load()},
	}
	for name, h := range map[string]*telemetry.LatencyHistogram{
		"stream_ingest": r.streamIngest,
		"http_ingest":   r.httpIngest,
		"stream_event":  r.streamEvent,
		"sse_event":     r.sseEvent,
		"poll_event":    r.pollEvent,
	} {
		if h.Count() > 0 {
			rep.Latency[name] = LatencyRec{h.Summary()}
		}
	}
	r.errMu.Lock()
	rep.Errors.Samples = append(rep.Errors.Samples, r.errSamples...)
	r.errMu.Unlock()
	if k := r.killedAt.Load(); k != 0 {
		rep.Recovery = &RecoveryStats{
			KilledAtNS: k - t0.UnixNano(),
			IngestNS:   r.recoveredNS.Load(),
		}
	}
	if snap, err := FetchServerCounters(r.client, r.base); err != nil {
		rep.ServerErr = err.Error()
	} else {
		rep.Server = snap
	}
	return rep
}

// FetchServerCounters snapshots the server's resilience and
// session-lifecycle counters over /debug/phasedet?format=json,
// returning a flat name → value map (opd_resilience_* and
// opd_serve_sessions_* families).
func FetchServerCounters(client *http.Client, base string) (map[string]float64, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(base + telemetry.DebugPath + "?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: telemetry snapshot: %s", resp.Status)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return FilterCounters(snap), nil
}

// FilterCounters extracts the load-relevant families from a telemetry
// snapshot.
func FilterCounters(snap telemetry.Snapshot) map[string]float64 {
	keep := func(name string) bool {
		return strings.HasPrefix(name, "opd_resilience_") ||
			strings.HasPrefix(name, "opd_serve_sessions_") ||
			strings.HasPrefix(name, "opd_gateway_") ||
			name == "opd_serve_chunks_total" ||
			name == "opd_serve_ingest_elements_total" ||
			name == "opd_serve_events_emitted_total"
	}
	out := map[string]float64{}
	for _, p := range snap.Counters {
		if keep(p.Name) {
			out[p.Name] += p.Value
		}
	}
	for _, p := range snap.Gauges {
		if keep(p.Name) {
			out[p.Name] += p.Value
		}
	}
	return out
}

// WriteHuman renders the report for terminals.
func (rep *Report) WriteHuman(w io.Writer) {
	fmt.Fprintf(w, "plan:      %s\n", rep.Plan)
	fmt.Fprintf(w, "wall:      %v\n", time.Duration(rep.WallNS).Round(time.Millisecond))
	s := rep.Sessions
	fmt.Fprintf(w, "sessions:  %d opened, %d completed, %d failed, %d lost, %d degraded transitions\n",
		s.Opened, s.Completed, s.Failed, s.Lost, s.Degraded)
	in := rep.Ingest
	fmt.Fprintf(w, "ingest:    %d chunks (%d elements) — %.0f chunks/s, %.0f elements/s\n",
		in.Chunks, in.Elements, in.ChunksPerSec, in.ElementsPerSec)
	fmt.Fprintf(w, "events:    %d delivered\n", rep.Events)
	sh := rep.Sheds
	fmt.Fprintf(w, "sheds:     %d opens, %d chunks, %d stream reconnects, %d retry budgets exhausted\n",
		sh.Opens, sh.Chunks, sh.StreamReconnects, sh.RetriesExhausted)
	names := make([]string, 0, len(rep.Latency))
	for name := range rep.Latency {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := rep.Latency[name]
		fmt.Fprintf(w, "latency:   %-13s p50 %s  p99 %s  p999 %s  max %s  (n=%d)\n",
			name,
			time.Duration(l.P50).Round(time.Microsecond),
			time.Duration(l.P99).Round(time.Microsecond),
			time.Duration(l.P999).Round(time.Microsecond),
			time.Duration(l.Max).Round(time.Microsecond),
			l.Count)
	}
	if rec := rep.Recovery; rec != nil {
		if rec.RestartNS == 0 && rec.ReadyNS == 0 {
			// Cluster node kill: nothing restarts; recovery is the gateway
			// re-homing the dead node's sessions onto survivors.
			fmt.Fprintf(w, "kill -9:   at %v — node left down; first re-homed ack %v\n",
				time.Duration(rec.KilledAtNS).Round(time.Millisecond),
				time.Duration(rec.IngestNS).Round(time.Millisecond))
		} else {
			fmt.Fprintf(w, "kill -9:   at %v — restart %v, ready %v, first ack %v\n",
				time.Duration(rec.KilledAtNS).Round(time.Millisecond),
				time.Duration(rec.RestartNS).Round(time.Millisecond),
				time.Duration(rec.ReadyNS).Round(time.Millisecond),
				time.Duration(rec.IngestNS).Round(time.Millisecond))
		}
	}
	if rep.Errors.Unexpected > 0 {
		fmt.Fprintf(w, "errors:    %d UNEXPECTED\n", rep.Errors.Unexpected)
		for _, e := range rep.Errors.Samples {
			fmt.Fprintf(w, "  - %s\n", e)
		}
	} else {
		fmt.Fprintf(w, "errors:    none outside the overload contract\n")
	}
	if rep.Server != nil {
		if _, ok := rep.Server["opd_gateway_requests_total"]; ok {
			// The snapshot came from a gateway, not a node: show the
			// routing story instead of zero serve counters.
			fmt.Fprintf(w, "gateway:   requests=%.0f errors=%.0f retargets=%.0f migrations=%.0f (failed=%.0f) node_flips=%.0f\n",
				rep.Server["opd_gateway_requests_total"],
				rep.Server["opd_gateway_request_errors_total"],
				rep.Server["opd_gateway_retargets_total"],
				rep.Server["opd_gateway_migrations_total"],
				rep.Server["opd_gateway_migration_failures_total"],
				rep.Server["opd_gateway_node_state_flips_total"])
			return
		}
		fmt.Fprintf(w, "server:    shed_opens=%.0f shed_chunks=%.0f opened=%.0f closed=%.0f evicted=%.0f\n",
			rep.Server["opd_resilience_shed_opens_total"],
			rep.Server["opd_resilience_shed_chunks_total"],
			rep.Server["opd_serve_sessions_opened_total"],
			rep.Server["opd_serve_sessions_closed_total"],
			rep.Server["opd_serve_sessions_evicted_total"])
	}
}

// A BenchFile is the top-level document loadgen -json writes: the
// toolchain and the run, named.
type BenchFile struct {
	GoVersion string     `json:"go_version"`
	GOARCH    string     `json:"goarch"`
	Runs      []BenchRun `json:"runs"`
}

// A BenchRun is one named run's report.
type BenchRun struct {
	Name string `json:"name"`
	*Report
}

// NewBenchFile stamps the toolchain.
func NewBenchFile() *BenchFile {
	return &BenchFile{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH}
}
