package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"opd/internal/core"
	"opd/internal/serve"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// serveBenchConfig is the serving benchmark's detector configuration:
// the adaptive default from the paper's recommended region.
var serveBenchConfig = core.Config{CWSize: 500, SkipFactor: 1, TW: core.AdaptiveTW,
	Anchor: core.AnchorRN, Resize: core.ResizeSlide,
	Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.6}

// serveStageResult is one pipeline stage's latency distribution over the
// instrumented run: percentiles of opd_serve_stage_latency_ns{stage=...}.
type serveStageResult struct {
	Stage string `json:"stage"`
	telemetry.LatencySummary
}

// serveChunkResult compares HTTP ingest against the direct detector feed
// for one chunk size, and breaks the instrumented serving path down by
// stage.
type serveChunkResult struct {
	ChunkElems        int     `json:"chunk_elems"`
	Chunks            int     `json:"chunks"`
	HTTPWallNS        int64   `json:"http_wall_ns"`
	HTTPElemsPerSec   float64 `json:"http_elements_per_sec"`
	DirectWallNS      int64   `json:"direct_wall_ns"`
	DirectElemsPerSec float64 `json:"direct_elements_per_sec"`
	// Overhead is http wall / direct wall: the full cost of the serving
	// stack (HTTP round trip + wire decode + session locking) per chunk
	// size, as a multiple of the bare detector.
	Overhead float64 `json:"overhead"`
	// TracedWallNS is the same HTTP ingest against a server with a
	// telemetry registry, so every stage timer and histogram is live;
	// TracingOverhead (traced wall / plain wall) is the cost of the
	// observability layer itself.
	TracedWallNS    int64   `json:"traced_wall_ns"`
	TracingOverhead float64 `json:"tracing_overhead"`
	// Chunk is the server-side end-to-end chunk latency distribution
	// (opd_serve_chunk_latency_ns) over the traced run; Stages breaks it
	// down by pipeline stage, in pipeline order.
	Chunk  telemetry.LatencySummary `json:"chunk"`
	Stages []serveStageResult       `json:"stages"`
	// Streaming-path rows: the same workload over one persistent framed
	// connection (POST /v1/sessions/{id}/stream) instead of a request per
	// chunk, in branch frames and — with a client-negotiated symbol table
	// skipping per-element hashing server-side — dense-ID frames.
	// Overheads are again multiples of the bare detector wall.
	StreamWallNS         int64   `json:"stream_wall_ns"`
	StreamElemsPerSec    float64 `json:"stream_elements_per_sec"`
	StreamOverhead       float64 `json:"stream_overhead"`
	StreamIDsWallNS      int64   `json:"stream_ids_wall_ns"`
	StreamIDsElemsPerSec float64 `json:"stream_ids_elements_per_sec"`
	StreamIDsOverhead    float64 `json:"stream_ids_overhead"`
	// StreamChunk/StreamStages are the server-side latency distribution
	// and stage breakdown of an instrumented streaming (branch-frame) run.
	StreamChunk  telemetry.LatencySummary `json:"stream_chunk"`
	StreamStages []serveStageResult       `json:"stream_stages"`
}

// serveBenchRecord is the machine-readable record written by
// -bench-serve-json.
type serveBenchRecord struct {
	GoVersion string             `json:"go_version"`
	GOARCH    string             `json:"goarch"`
	Config    string             `json:"config"`
	Elements  int                `json:"elements"`
	Results   []serveChunkResult `json:"results"`
}

// runBenchServeJSON measures the streaming server's ingest overhead: the
// benchTrace workload is streamed to an in-process phased server over
// real HTTP at several chunk sizes, against the same workload fed
// straight through core.ProcessBatch, and the comparison — including a
// per-stage latency breakdown from an instrumented run — is written as
// JSON to path ("-" for stdout).
func runBenchServeJSON(path string) error {
	const elems = 1 << 19
	tr := benchTrace(elems, 30, 80)

	rec := serveBenchRecord{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Config:    serveBenchConfig.ID(),
		Elements:  len(tr),
	}
	for _, chunk := range []int{1024, 16384, 65536} {
		// Pre-encode the wire chunks so only ingest is measured.
		var payload [][]byte
		var parts []trace.Trace
		for i := 0; i < len(tr); i += chunk {
			end := i + chunk
			if end > len(tr) {
				end = len(tr)
			}
			var buf bytes.Buffer
			if err := trace.WriteBranches(&buf, tr[i:end]); err != nil {
				return err
			}
			payload = append(payload, buf.Bytes())
			parts = append(parts, tr[i:end])
		}

		// Best-of-3 walls: one-shot HTTP wall clocks are noisy enough to
		// swamp the tracing delta this record is meant to expose.
		const rounds = 3

		// Plain runs: no registry, so every probe is nil and tracing is
		// compiled down to a pointer test per call site.
		httpWall := time.Duration(0)
		for i := 0; i < rounds; i++ {
			w, err := streamServeBench(nil, payload)
			if err != nil {
				return err
			}
			if i == 0 || w < httpWall {
				httpWall = w
			}
		}

		// Traced runs: a fresh registry per run, keeping the fastest run's
		// registry so the scraped histograms describe exactly that run.
		var reg *telemetry.Registry
		tracedWall := time.Duration(0)
		for i := 0; i < rounds; i++ {
			r := telemetry.NewRegistry()
			w, err := streamServeBench(r, payload)
			if err != nil {
				return err
			}
			if i == 0 || w < tracedWall {
				tracedWall, reg = w, r
			}
		}

		// Streaming-path runs: one persistent framed connection, branch
		// frames and dense-ID frames, plus one instrumented branch run for
		// the stage breakdown.
		streamWall := time.Duration(0)
		for i := 0; i < rounds; i++ {
			w, err := streamFramedBench(nil, parts, false)
			if err != nil {
				return err
			}
			if i == 0 || w < streamWall {
				streamWall = w
			}
		}
		idsWall := time.Duration(0)
		for i := 0; i < rounds; i++ {
			w, err := streamFramedBench(nil, parts, true)
			if err != nil {
				return err
			}
			if i == 0 || w < idsWall {
				idsWall = w
			}
		}
		var streamReg *telemetry.Registry
		streamTracedWall := time.Duration(0)
		for i := 0; i < rounds; i++ {
			r := telemetry.NewRegistry()
			w, err := streamFramedBench(r, parts, false)
			if err != nil {
				return err
			}
			if i == 0 || w < streamTracedWall {
				streamTracedWall, streamReg = w, r
			}
		}

		directWall := measure(func() {
			d := serveBenchConfig.MustNew()
			for i := 0; i < len(tr); i += chunk {
				end := i + chunk
				if end > len(tr) {
					end = len(tr)
				}
				d.ProcessBatch(tr[i:end])
			}
			d.Finish()
		})

		res := serveChunkResult{
			ChunkElems:        chunk,
			Chunks:            len(payload),
			HTTPWallNS:        httpWall.Nanoseconds(),
			HTTPElemsPerSec:   float64(len(tr)) / httpWall.Seconds(),
			DirectWallNS:      directWall.Nanoseconds(),
			DirectElemsPerSec: float64(len(tr)) / directWall.Seconds(),
			Overhead:          httpWall.Seconds() / directWall.Seconds(),
			TracedWallNS:      tracedWall.Nanoseconds(),
			TracingOverhead:   tracedWall.Seconds() / httpWall.Seconds(),
			Chunk:             reg.Latency(telemetry.MetricServeChunkLatency).Summary(),

			StreamWallNS:         streamWall.Nanoseconds(),
			StreamElemsPerSec:    float64(len(tr)) / streamWall.Seconds(),
			StreamOverhead:       streamWall.Seconds() / directWall.Seconds(),
			StreamIDsWallNS:      idsWall.Nanoseconds(),
			StreamIDsElemsPerSec: float64(len(tr)) / idsWall.Seconds(),
			StreamIDsOverhead:    idsWall.Seconds() / directWall.Seconds(),
			StreamChunk:          streamReg.Latency(telemetry.MetricServeChunkLatency).Summary(),
		}
		for _, st := range telemetry.Stages() {
			s := reg.Latency(telemetry.MetricServeStageLatency,
				telemetry.L("stage", st.String())).Summary()
			if s.Count == 0 {
				continue
			}
			res.Stages = append(res.Stages, serveStageResult{Stage: st.String(), LatencySummary: s})
		}
		for _, st := range telemetry.Stages() {
			s := streamReg.Latency(telemetry.MetricServeStageLatency,
				telemetry.L("stage", st.String())).Summary()
			if s.Count == 0 {
				continue
			}
			res.StreamStages = append(res.StreamStages, serveStageResult{Stage: st.String(), LatencySummary: s})
		}
		rec.Results = append(rec.Results, res)
		fmt.Fprintf(os.Stderr,
			"phasebench: serve chunk %5d: http %.3fs, direct %.3fs (%.1fx overhead), stream %.3fs (%.2fx), ids %.3fs (%.2fx), tracing %+.1f%%, chunk p50 %v p99 %v\n",
			chunk, httpWall.Seconds(), directWall.Seconds(), res.Overhead,
			streamWall.Seconds(), res.StreamOverhead,
			idsWall.Seconds(), res.StreamIDsOverhead,
			(res.TracingOverhead-1)*100,
			time.Duration(res.Chunk.P50), time.Duration(res.Chunk.P99))
	}

	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// streamServeBench starts a fresh in-process server (instrumented when
// reg is non-nil), streams the pre-encoded chunks through one session
// over real HTTP, and returns the ingest wall time.
func streamServeBench(reg *telemetry.Registry, payload [][]byte) (time.Duration, error) {
	srv := serve.NewServer(serve.Options{Registry: reg})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return 0, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + srv.Addr()
	client := &http.Client{Timeout: 30 * time.Second}

	id, err := openBenchSession(client, base)
	if err != nil {
		return 0, err
	}
	wall := measure(func() {
		for _, p := range payload {
			resp, err := client.Post(base+"/v1/sessions/"+id+"/elements",
				"application/octet-stream", bytes.NewReader(p))
			if err != nil {
				panic(err)
			}
			if resp.StatusCode != http.StatusOK {
				panic(fmt.Sprintf("phasebench: serve ingest: status %d", resp.StatusCode))
			}
			resp.Body.Close()
		}
	})
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	if resp, err := client.Do(req); err == nil {
		resp.Body.Close()
	}
	return wall, nil
}

// streamFramedBench starts a fresh in-process server (instrumented when
// reg is non-nil), streams the chunks through one session over the
// persistent framed protocol — branch frames, or dense-ID frames with a
// client-side symbol table when ids is set — and returns the ingest wall
// time (all sends plus the drain to the final ack).
func streamFramedBench(reg *telemetry.Registry, parts []trace.Trace, ids bool) (time.Duration, error) {
	srv := serve.NewServer(serve.Options{Registry: reg})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return 0, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + srv.Addr()
	client := &http.Client{Timeout: 30 * time.Second}
	id, err := openBenchSession(client, base)
	if err != nil {
		return 0, err
	}
	// NoEvents: this measures pure ingest, and neither the direct feed
	// nor the one-shot HTTP rows pay event delivery without a consumer.
	sc, err := serve.DialStream(srv.Addr(), id, serve.StreamOptions{IDs: ids, NoEvents: true})
	if err != nil {
		return 0, err
	}
	defer sc.Close()
	var serr error
	wall := measure(func() {
		for _, p := range parts {
			if serr = sc.Send(p); serr != nil {
				return
			}
		}
		serr = sc.Drain()
	})
	if serr != nil {
		return 0, serr
	}
	if _, err := sc.End(true); err != nil {
		return 0, err
	}
	return wall, nil
}

// openBenchSession opens a phased session for the benchmark config.
func openBenchSession(client *http.Client, base string) (string, error) {
	body, err := json.Marshal(serve.ConfigRequest{CW: serveBenchConfig.CWSize, Policy: "adaptive"})
	if err != nil {
		return "", err
	}
	resp, err := client.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var opened struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated || opened.ID == "" {
		return "", fmt.Errorf("phasebench: opening serve session: status %d", resp.StatusCode)
	}
	return opened.ID, nil
}

// benchTrace builds a deterministic trace of stable runs: run lengths in
// [1, maxRun] over a pool of `sites` distinct branches.
func benchTrace(n, sites, maxRun int) trace.Trace {
	rng := int64(42)
	next := func(m int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int(rng >> 40)
		if v < 0 {
			v = -v
		}
		return v % m
	}
	var tr trace.Trace
	for len(tr) < n {
		site := next(sites)
		run := next(maxRun) + 1
		for i := 0; i < run && len(tr) < n; i++ {
			tr = append(tr, trace.MakeBranch(0, 1+site, true))
		}
	}
	return tr
}

// measure runs fn after a full GC and returns its wall clock.
func measure(fn func()) time.Duration {
	runtime.GC()
	start := time.Now()
	fn()
	return time.Since(start)
}
