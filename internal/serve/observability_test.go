package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"opd/internal/durable"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// syncBuffer is a goroutine-safe log sink for capturing slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStageMetricsExposed streams chunks through an instrumented server
// and asserts the per-stage latency summaries, the end-to-end chunk
// histogram, and the Go runtime gauges all surface on /metrics.
func TestStageMetricsExposed(t *testing.T) {
	tr := phasedTrace(12000)
	reg := telemetry.NewRegistry()
	_, c := newTestServer(t, Options{Registry: reg})

	id, _ := c.open(ConfigRequest{CW: 300})
	for _, chunk := range chunks(tr, []int{1024}) {
		c.send(id, chunk)
	}

	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`opd_serve_stage_latency_ns{stage="decode",quantile="0.99"}`,
		`opd_serve_stage_latency_ns{stage="detect",quantile="0.999"}`,
		`opd_serve_stage_latency_ns_count{stage="read"}`,
		`opd_serve_chunk_latency_ns{quantile="0.5"}`,
		`opd_serve_chunk_latency_ns_sum`,
		`opd_go_goroutines`,
		`opd_go_heap_alloc_bytes`,
		`opd_go_gc_cycles_total`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The stage histograms actually saw every chunk.
	wantChunks := int64(len(chunks(tr, []int{1024})))
	for _, stage := range []string{"read", "decode", "detect"} {
		lat := reg.Latency(telemetry.MetricServeStageLatency, telemetry.L("stage", stage))
		if got := lat.Count(); got != wantChunks {
			t.Errorf("stage %s count = %d, want %d", stage, got, wantChunks)
		}
	}
	if got := reg.Latency(telemetry.MetricServeChunkLatency).Count(); got != wantChunks {
		t.Errorf("chunk latency count = %d, want %d", got, wantChunks)
	}
}

// TestStreamChunkCounters pins what the chunk counters and the flight
// recorder see on the framed stream path, which bench/ and loadgen read:
// over a durable dense-ID stream, each IDs frame — applied or
// decode-rejected — leaves one flight trace with contiguous Seq, the
// latency histograms and the elements counter see the applied chunks
// only, and syms frames leave no trace at all. The rejected frame ends
// its connection, and the stream continues on a reconnect. WAL replay
// adds nothing: a session recovered on a fresh registry starts every
// count at zero with the live session's consumed count.
func TestStreamChunkCounters(t *testing.T) {
	const n = 12
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	store, err := durable.Open(durable.Options{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{Store: store, Registry: reg, FlightChunks: 2 * n})
	if _, _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	id, status := c.open(ConfigRequest{CW: 300})
	if status != http.StatusCreated {
		t.Fatalf("open: status %d", status)
	}
	const hello = `{"mode":"ids","no_events":true}`
	conn, fr := rawStreamHello(t, streamAddr(c), id, hello)

	// n IDs chunks, each preceded by a syms frame when it brings new
	// symbols, with one undecodable IDs frame (width 3) in the middle,
	// which ends the first connection.
	b := trace.NewInternedBuilder(0)
	var frames, first []byte
	var sizes []int64
	symsFrames := 0
	for i, chunk := range chunks(phasedTrace(n*500), []int{500}) {
		start := b.Cardinality()
		ids := make([]int32, 0, len(chunk))
		for _, e := range chunk {
			ids = append(ids, b.Intern(e))
		}
		if syms := b.Symbols()[start:]; len(syms) > 0 {
			frames = trace.AppendFrame(frames, trace.FrameSyms, trace.AppendSymsPayload(nil, uint64(start), syms))
			symsFrames++
		}
		frames = trace.AppendFrame(frames, trace.FrameIDs, trace.AppendIDsPayload(nil, ids))
		sizes = append(sizes, int64(len(ids)))
		if i == n/2 {
			first = trace.AppendFrame(frames, trace.FrameIDs, []byte{3, 1, 0, 0, 0})
			frames = nil
			sizes = append(sizes, 0)
		}
	}
	if symsFrames < 2 {
		t.Fatalf("workload sends %d syms frames, want at least 2", symsFrames)
	}
	frames = trace.AppendFrame(frames, trace.FrameEnd, []byte{0})
	if _, err := conn.Write(first); err != nil {
		t.Fatal(err)
	}
	for {
		typ, payload := nextDataPlane(t, fr)
		if typ == trace.FrameErr {
			if retryable, msg := parseErrPayload(payload); !retryable {
				t.Fatalf("fatal stream error %q", msg)
			}
			break
		}
	}
	expectHangup(t, fr)
	conn.Close()
	conn, fr = rawStreamHello(t, streamAddr(c), id, hello)
	defer conn.Close()
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	for {
		typ, payload := nextDataPlane(t, fr)
		if typ == trace.FrameDone {
			break
		}
		if typ == trace.FrameErr {
			_, msg := parseErrPayload(payload)
			t.Fatalf("stream error after the reconnect: %q", msg)
		}
	}

	sess, ok := srv.manager.Get(id)
	if !ok {
		t.Fatal("session gone after detach")
	}
	traces, total := sess.Flight()
	if total != n+1 || len(traces) != n+1 {
		t.Fatalf("flight total %d (%d retained), want %d", total, len(traces), n+1)
	}
	var elements int64
	for i, ct := range traces {
		if ct.Seq != int64(i+1) {
			t.Errorf("trace %d has seq %d, want %d", i, ct.Seq, i+1)
		}
		if ct.Elements != sizes[i] || (ct.Err != "") != (sizes[i] == 0) {
			t.Errorf("trace %d: %d elements, err %q; want %d elements", i, ct.Elements, ct.Err, sizes[i])
		}
		elements += sizes[i]
	}
	for _, stage := range []string{"read", "decode", "detect"} {
		if got := reg.Latency(telemetry.MetricServeStageLatency, telemetry.L("stage", stage)).Count(); got != n {
			t.Errorf("stage %s count = %d, want %d", stage, got, n)
		}
	}
	if got := reg.Latency(telemetry.MetricServeChunkLatency).Count(); got != n {
		t.Errorf("chunk latency count = %d, want %d", got, n)
	}
	if got := reg.Counter(telemetry.MetricServeIngestElements).Value(); got != elements {
		t.Errorf("ingest elements = %d, want %d", got, elements)
	}
	if got := reg.Counter(telemetry.MetricServeChunkErrors).Value(); got != 1 {
		t.Errorf("chunk errors = %d, want 1", got)
	}
	consumed := sess.Summary().Consumed

	// Crash and recover on a fresh registry: replay counts nothing.
	conn.Close()
	ts.Close()
	abandon(srv.manager)
	reg2 := telemetry.NewRegistry()
	m2 := durableManager(t, dir, Options{Registry: reg2})
	defer m2.Shutdown()
	if recovered, dropped, err := m2.Recover(); err != nil || recovered != 1 || dropped != 0 {
		t.Fatalf("recover: recovered %d dropped %d err %v", recovered, dropped, err)
	}
	r, ok := m2.Get(id)
	if !ok {
		t.Fatal("session not recovered")
	}
	if _, total := r.Flight(); total != 0 {
		t.Errorf("recovered flight total %d, want 0", total)
	}
	if got := reg2.Latency(telemetry.MetricServeChunkLatency).Count(); got != 0 {
		t.Errorf("recovered chunk latency count %d, want 0", got)
	}
	if got := reg2.Counter(telemetry.MetricServeIngestElements).Value(); got != 0 {
		t.Errorf("recovered ingest elements %d, want 0", got)
	}
	if got := r.Summary().Consumed; got != consumed {
		t.Errorf("recovered consumed %d, live %d", got, consumed)
	}
}

// flightResponse mirrors the flight endpoint's JSON shape.
type flightResponse struct {
	ID     string                 `json:"id"`
	State  string                 `json:"state"`
	Stages []string               `json:"stages"`
	Total  int64                  `json:"total"`
	Traces []telemetry.ChunkTrace `json:"traces"`
}

// TestFlightEndpoint pins the per-session flight recorder surface: every
// chunk — including a rejected corrupt one — leaves a trace with stage
// attribution, retrievable over HTTP.
func TestFlightEndpoint(t *testing.T) {
	tr := phasedTrace(6000)
	_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry(), FlightChunks: 4})

	id, _ := c.open(ConfigRequest{CW: 300})
	parts := chunks(tr, []int{1024})
	for _, chunk := range parts {
		c.send(id, chunk)
	}
	// A corrupt chunk is rejected with 400 but still recorded.
	if status, _ := c.sendRaw(id, []byte("not a trace")); status != http.StatusBadRequest {
		t.Fatalf("corrupt chunk: status %d, want 400", status)
	}

	resp, err := c.http.Get(c.base + "/v1/sessions/" + id + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight: status %d", resp.StatusCode)
	}
	var fr flightResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	if fr.ID != id || fr.State != string(StateActive) {
		t.Errorf("flight id/state = %s/%s", fr.ID, fr.State)
	}
	if want := int64(len(parts)) + 1; fr.Total != want {
		t.Errorf("flight total = %d, want %d", fr.Total, want)
	}
	if len(fr.Traces) != 4 {
		t.Fatalf("flight retained %d traces, want 4 (FlightChunks)", len(fr.Traces))
	}
	if len(fr.Stages) != int(telemetry.NumStages) || fr.Stages[telemetry.StageDetect] != "detect" {
		t.Errorf("flight stages = %v", fr.Stages)
	}
	// Traces are oldest-first with contiguous seq; the last one is the
	// corrupt chunk.
	for i := 1; i < len(fr.Traces); i++ {
		if fr.Traces[i].Seq != fr.Traces[i-1].Seq+1 {
			t.Errorf("trace seqs not contiguous: %d then %d", fr.Traces[i-1].Seq, fr.Traces[i].Seq)
		}
	}
	last := fr.Traces[len(fr.Traces)-1]
	if last.Err == "" || last.Elements != 0 {
		t.Errorf("corrupt chunk trace = %+v, want err set and no elements", last)
	}
	good := fr.Traces[len(fr.Traces)-2]
	if want := int64(len(parts[len(parts)-1])); good.Err != "" || good.Elements != want || good.TotalNS <= 0 {
		t.Errorf("good chunk trace = %+v", good)
	}
	if good.StageNS[telemetry.StageDetect] <= 0 || good.StageNS[telemetry.StageDecode] <= 0 {
		t.Errorf("good chunk missing stage attribution: %v", good.StageNS)
	}

	// Unknown sessions 404.
	resp2, err := c.http.Get(c.base + "/v1/sessions/nope/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown flight: status %d, want 404", resp2.StatusCode)
	}
}

// TestPoisonedSessionDumpsFlight pins the post-mortem path: a detector
// panic logs the session's flight recorder through the structured
// logger.
func TestPoisonedSessionDumpsFlight(t *testing.T) {
	tr := phasedTrace(12000)
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	const marker = 0.59
	_, c := newTestServer(t, Options{
		NewDetector: panicSeam(marker, 3),
		Registry:    telemetry.NewRegistry(),
		Logger:      logger,
	})

	id, _ := c.open(ConfigRequest{CW: 300, Param: marker})
	sawFailure := false
	for _, chunk := range chunks(tr, []int{1024}) {
		status, _ := c.sendRaw(id, mustEncode(t, chunk))
		if status == http.StatusInternalServerError {
			sawFailure = true
			break
		}
	}
	if !sawFailure {
		t.Fatal("poisoned session never failed")
	}
	out := logBuf.String()
	for _, want := range []string{"session poisoned", "flight recorder", "injected model bug", id[:8]} {
		if !strings.Contains(out, want) {
			t.Errorf("poison log missing %q:\n%s", want, out)
		}
	}
}

// TestRequestLogging pins the structured request log: at debug level
// every request leaves a line with method, path, and status; client
// errors log at warn.
func TestRequestLogging(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, c := newTestServer(t, Options{Logger: logger})

	id, _ := c.open(ConfigRequest{CW: 300})
	c.send(id, phasedTrace(100))
	if status, _ := c.sendRaw("nope", nil); status != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", status)
	}

	out := logBuf.String()
	for _, want := range []string{
		"msg=request",
		"method=POST",
		"path=/v1/sessions",
		"status=200",
		"status=404",
		"level=WARN",
		"req=",
		"dur=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("request log missing %q:\n%s", want, out)
		}
	}
	// Lifecycle lines ride the same logger.
	if !strings.Contains(out, "session opened") {
		t.Errorf("missing session-opened line:\n%s", out)
	}
}
