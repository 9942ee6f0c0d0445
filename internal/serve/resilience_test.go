package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"opd/internal/core"
	"opd/internal/durable"
	"opd/internal/faultinject"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// resilienceConfig is the small detector every overload test uses: cheap
// to run, emits events early.
var resilienceConfig = core.Config{CWSize: 100, SkipFactor: 1, TW: core.ConstantTW,
	Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.6}

// waitCounter polls a registry counter until it reaches want or the
// deadline passes.
func waitCounter(t *testing.T, reg *telemetry.Registry, family string, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if reg.Counter(family).Value() >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter %s = %d, want >= %d after %v",
				family, reg.Counter(family).Value(), want, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShedWatermarks pins the byte governor's two watermarks through the
// HTTP surface. A budget sized to fit exactly one session makes the
// second open shed with 429 + Retry-After (soft watermark), and — once a
// stream connection's buffer charge pushes occupancy past the budget —
// makes ingest chunks shed with a retryable error on both the one-shot
// endpoint (503 + Retry-After) and the framed stream (retryable
// FrameErr, cursor unmoved).
func TestShedWatermarks(t *testing.T) {
	reg := telemetry.NewRegistry()
	// One CW=300 session charges 16 KiB base + 600 window elems: ~21 KiB.
	// A 26 KB budget puts the soft watermark (80%) below that.
	_, c := newTestServer(t, Options{Registry: reg, MemBudgetBytes: 26_000})

	id, status := c.open(ConfigRequest{CW: 300})
	if status != http.StatusCreated {
		t.Fatalf("first open: status %d", status)
	}

	// Soft watermark: the second open is shed with a retry hint.
	body, _ := json.Marshal(ConfigRequest{CW: 300})
	resp, err := c.http.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded open: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("overloaded open: no Retry-After header")
	}
	if v := reg.Counter(telemetry.MetricResilienceShedOpens).Value(); v != 1 {
		t.Errorf("shed_opens = %d, want 1", v)
	}

	// Hard watermark: a one-shot chunk that would cross the budget is
	// shed retryably and applies nothing.
	big := mustEncode(t, uniformTrace(30000))
	status, eb := c.sendRaw(id, big)
	if status != http.StatusServiceUnavailable || eb.Kind != "overloaded" {
		t.Fatalf("overloaded chunk: status %d kind %q, want 503/overloaded", status, eb.Kind)
	}
	if v := reg.Counter(telemetry.MetricResilienceShedChunks).Value(); v != 1 {
		t.Errorf("shed_chunks = %d, want 1", v)
	}

	// The same shed over the framed stream: the connection charge alone
	// is past the budget here, so the first data frame bounces with a
	// retryable FrameErr and the connection survives it.
	conn, fr := rawStream(t, streamAddr(c), id)
	defer conn.Close()
	if _, err := conn.Write(trace.AppendFrame(nil, trace.FrameData, big)); err != nil {
		t.Fatal(err)
	}
	typ, payload := nextDataPlane(t, fr)
	if typ != trace.FrameErr {
		t.Fatalf("shed stream chunk: got %s frame, want err", typ)
	}
	if retryable, msg := parseErrPayload(payload); !retryable {
		t.Fatalf("shed stream chunk: fatal error %q, want retryable", msg)
	}
	if v := reg.Counter(telemetry.MetricResilienceShedChunks).Value(); v != 2 {
		t.Errorf("shed_chunks = %d, want 2", v)
	}

	// A small chunk still lands after the sheds: the session was never
	// poisoned, only pushed back.
	if _, err := conn.Write(trace.AppendFrame(nil, trace.FrameEnd, []byte{0})); err != nil {
		t.Fatal(err)
	}
	if typ, _ := nextDataPlane(t, fr); typ != trace.FrameDone {
		t.Fatalf("end after shed: got %s frame, want done", typ)
	}
}

// TestPressureEviction pins the janitor's shed path: with the governor
// over its soft watermark, a sweep evicts sessions — idle-first,
// largest-first — until occupancy is back under the watermark.
func TestPressureEviction(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewManager(Options{Registry: reg, MemBudgetBytes: 26_000,
		SweepInterval: 10 * time.Millisecond, IdleTimeout: -1})
	defer m.Shutdown()
	s, err := m.Open(core.Config{CWSize: 300, SkipFactor: 1, TW: core.ConstantTW,
		Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.6})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !m.res.gov.OverSoft() {
		t.Fatalf("governor not over soft watermark at %d bytes", m.MemUsed())
	}
	waitCounter(t, reg, telemetry.MetricResiliencePressureEvicts, 1, 2*time.Second)
	if _, ok := m.Get(s.ID()); ok {
		t.Error("pressure-evicted session still live")
	}
	if used := m.MemUsed(); used != 0 {
		t.Errorf("accountant holds %d bytes after eviction, want 0", used)
	}
}

// TestEventTrimDebitsAccountant pins satellite #6: events trimmed by the
// retention cap leave the byte accountant's books and are counted.
func TestEventTrimDebitsAccountant(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewManager(Options{Registry: reg, MaxEventsRetained: 8})
	defer m.Shutdown()
	s, err := m.Open(resilienceConfig)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, p := range chunks(phasedTrace(20000), []int{1024}) {
		if err := s.Feed(p); err != nil {
			t.Fatalf("feed: %v", err)
		}
	}
	dropped := reg.Counter(telemetry.MetricServeEventsDropped).Value()
	if dropped == 0 {
		t.Fatal("no events dropped; retention cap never engaged")
	}
	s.mu.Lock()
	retained := int64(len(s.events))
	s.mu.Unlock()
	if retained > 8 {
		t.Fatalf("retained %d events, cap 8", retained)
	}
	// A poller from seq 0 skips the trimmed prefix: it gets exactly the
	// retained tail, the newest events, with consecutive seqs.
	evs, wall, next, _ := s.eventsSinceWall(0)
	if int64(len(evs)) != retained || len(wall) != len(evs) || next != uint64(dropped)+uint64(retained) {
		t.Fatalf("EventsSince(0): %d events, %d wall stamps, next %d; want %d, %d, %d",
			len(evs), len(wall), next, retained, retained, uint64(dropped)+uint64(retained))
	}
	for i, e := range evs {
		if e.Seq != uint64(dropped)+uint64(i) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, uint64(dropped)+uint64(i))
		}
	}
	want := sessionBaseCost(resilienceConfig) + retained*eventLogBytes
	if got := s.memBytes.Load(); got != want {
		t.Errorf("session tab %d bytes, want %d (base %d + %d events)",
			got, want, sessionBaseCost(resilienceConfig), retained)
	}
	if m.MemUsed() != s.memBytes.Load() {
		t.Errorf("accountant %d != session tab %d", m.MemUsed(), s.memBytes.Load())
	}
}

// TestHeartbeatStallDisconnect pins the liveness bound: a framed-stream
// client that goes silent receives a Ping after one heartbeat interval
// and is disconnected (retryable error) after a second — within 2x the
// interval — while the session itself stays usable.
func TestHeartbeatStallDisconnect(t *testing.T) {
	const hb = 150 * time.Millisecond
	reg := telemetry.NewRegistry()
	_, c := newTestServer(t, Options{Registry: reg, HeartbeatInterval: hb})
	id, _ := c.open(ConfigRequest{CW: 300})
	conn, fr := rawStream(t, streamAddr(c), id)
	defer conn.Close()

	start := time.Now()
	typ, _, err := fr.ReadFrame()
	if err != nil || typ != trace.FramePing {
		t.Fatalf("first silent interval: frame %s err %v, want ping", typ, err)
	}
	typ, payload, err := fr.ReadFrame()
	if err != nil || typ != trace.FrameErr {
		t.Fatalf("second silent interval: frame %s err %v, want err", typ, err)
	}
	if retryable, msg := parseErrPayload(payload); !retryable {
		t.Fatalf("heartbeat drop error %q not retryable", msg)
	}
	// The acceptance bound: a stalled client is gone within 2x the
	// heartbeat interval (plus scheduling slack).
	if elapsed := time.Since(start); elapsed > 2*hb+hb/2 {
		t.Errorf("disconnect after %v, want <= %v", elapsed, 2*hb)
	}
	if v := reg.Counter(telemetry.MetricResilienceHeartbeatDrops).Value(); v != 1 {
		t.Errorf("heartbeat_disconnects = %d, want 1", v)
	}
	// The stall cost the connection, not the session.
	c.send(id, uniformTrace(500))
}

// TestStreamClientAnswersHeartbeat pins the client half: an idle
// StreamClient answers server Pings, so a connection with nothing to
// send survives well past the 2x-heartbeat stall bound and still works.
func TestStreamClientAnswersHeartbeat(t *testing.T) {
	const hb = 100 * time.Millisecond
	reg := telemetry.NewRegistry()
	_, c := newTestServer(t, Options{Registry: reg, HeartbeatInterval: hb})
	id, _ := c.open(ConfigRequest{CW: 300})
	sc, err := DialStream(streamAddr(c), id, StreamOptions{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer sc.Close()
	time.Sleep(5 * hb)
	if err := sc.Send(uniformTrace(500)); err != nil {
		t.Fatalf("send after idle spell: %v", err)
	}
	if err := sc.Drain(); err != nil {
		t.Fatalf("drain after idle spell: %v", err)
	}
	if v := reg.Counter(telemetry.MetricResilienceHeartbeatDrops).Value(); v != 0 {
		t.Errorf("heartbeat_disconnects = %d, want 0 (client answers pings)", v)
	}
}

// stallSeam is an Options.NewDetector that wires a faultinject stall
// model into every session: the detector blocks on its first consumed
// group until gate closes — a hung dependency for the watchdog to catch.
func stallSeam(gate <-chan struct{}) func(core.Config) (*core.Detector, error) {
	return func(cfg core.Config) (*core.Detector, error) {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		tw := cfg.TWSize
		if tw == 0 {
			tw = cfg.CWSize
		}
		model := core.NewSetModel(cfg.Model, cfg.CWSize, tw, cfg.TW, cfg.Anchor, cfg.Resize)
		return core.NewDetector(faultinject.NewStallModel(model, 1, gate),
			core.NewThreshold(cfg.Param), 1), nil
	}
}

// TestWatchdogCondemnsStuckSession pins the watchdog: a session whose
// detect stage overruns the deadline is condemned — new work against it
// fast-fails without queueing on the stuck mutex, and the session
// transitions to failed once the stuck apply returns.
func TestWatchdogCondemnsStuckSession(t *testing.T) {
	gate := make(chan struct{})
	reg := telemetry.NewRegistry()
	m := NewManager(Options{Registry: reg, NewDetector: stallSeam(gate),
		WatchdogDeadline: 50 * time.Millisecond})
	s, err := m.Open(resilienceConfig)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Feed(uniformTrace(300)) }()
	waitCounter(t, reg, telemetry.MetricResilienceWatchdogTrips, 1, 5*time.Second)

	// Condemned: callers fast-fail instead of parking behind the mutex.
	done := make(chan error, 1)
	go func() { done <- s.Feed(uniformTrace(10)) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCondemned) {
			t.Fatalf("feed into condemned session: %v, want ErrCondemned", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("feed into condemned session blocked on the stuck mutex")
	}

	// The stuck apply returns once the dependency unblocks, and the
	// session lands in StateFailed with the condemnation preserved.
	close(gate)
	if err := <-errc; !errors.Is(err, ErrCondemned) {
		t.Fatalf("stuck feed returned %v, want ErrCondemned", err)
	}
	if st := s.State(); st != StateFailed {
		t.Errorf("condemned session state %q, want failed", st)
	}
	m.Shutdown()
}

// TestDurabilityBreakerTripAndHeal pins the degraded policy end to end:
// consecutive WAL failures below the limit fail closed (chunks retry
// verbatim), the limit trips the breaker into ephemeral operation marked
// degraded:true, a probe after the disk heals re-snapshots and restores
// durability, and a post-restart recovery sees the full session — the
// chunks applied while degraded included.
func TestDurabilityBreakerTripAndHeal(t *testing.T) {
	reg := telemetry.NewRegistry()
	chaos := faultinject.NewDiskChaos()
	dir := t.TempDir()
	store, err := durable.Open(durable.Options{Dir: dir, Hook: chaos.Hook})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Registry: reg, Store: store,
		Durability: DurabilityDegraded, WALFailureLimit: 2,
		WALProbeInterval: time.Millisecond, WALProbeMax: 8 * time.Millisecond,
		MinDiskFreeBytes: -1})
	s, err := m.Open(resilienceConfig)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	parts := chunks(phasedTrace(6000), []int{500})
	if err := s.Feed(parts[0]); err != nil {
		t.Fatalf("healthy feed: %v", err)
	}

	chaos.Fail(errors.New("injected: disk full"))
	// First failure is under the limit: fail closed, nothing applied.
	if err := s.Feed(parts[1]); !errors.Is(err, ErrPersist) {
		t.Fatalf("first WAL failure: %v, want ErrPersist", err)
	}
	if s.Degraded() {
		t.Fatal("breaker tripped below the failure limit")
	}
	// Second consecutive failure trips the breaker: the retried chunk is
	// accepted ephemerally and the session is marked degraded.
	if err := s.Feed(parts[1]); err != nil {
		t.Fatalf("feed at breaker trip: %v", err)
	}
	if !s.Degraded() {
		t.Fatal("session not degraded after the failure limit")
	}
	if n := m.DegradedSessions(); n != 1 {
		t.Errorf("degraded sessions = %d, want 1", n)
	}
	if v := reg.Counter(telemetry.MetricResilienceBreakerTrips).Value(); v != 1 {
		t.Errorf("breaker_trips = %d, want 1", v)
	}
	if sum := s.Summary(); !sum.Degraded {
		t.Error("summary does not carry degraded:true")
	}
	for _, p := range parts[2:6] {
		if err := s.Feed(p); err != nil {
			t.Fatalf("degraded feed: %v", err)
		}
	}

	// Disk heals: the next chunk past the probe backoff re-snapshots the
	// full session state and resumes durability.
	chaos.Heal()
	time.Sleep(20 * time.Millisecond)
	if err := s.Feed(parts[6]); err != nil {
		t.Fatalf("healing feed: %v", err)
	}
	if s.Degraded() {
		t.Fatal("session still degraded after the disk healed")
	}
	if n := m.DegradedSessions(); n != 0 {
		t.Errorf("degraded sessions = %d, want 0 after heal", n)
	}
	if v := reg.Counter(telemetry.MetricResilienceResumes).Value(); v != 1 {
		t.Errorf("durability_resumes = %d, want 1", v)
	}
	for _, p := range parts[7:] {
		if err := s.Feed(p); err != nil {
			t.Fatalf("post-heal feed: %v", err)
		}
	}
	before := s.Summary()

	// Restart: recovery must see everything, including the chunks that
	// were only ever applied ephemerally — the heal snapshot covers them.
	m.Shutdown()
	store2, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Options{Store: store2, Registry: telemetry.NewRegistry()})
	defer m2.Shutdown()
	recovered, dropped, err := m2.Recover()
	if err != nil || recovered != 1 || dropped != 0 {
		t.Fatalf("recover: %d/%d, %v", recovered, dropped, err)
	}
	s2, ok := m2.Get(s.ID())
	if !ok {
		t.Fatal("recovered session not found")
	}
	after := s2.Summary()
	if after.Consumed != before.Consumed || after.EventsTotal != before.EventsTotal {
		t.Errorf("recovered consumed/events %d/%d, want %d/%d",
			after.Consumed, after.EventsTotal, before.Consumed, before.EventsTotal)
	}
	if after.Degraded {
		t.Error("recovered session marked degraded")
	}
}

// TestSSESlowSubscriberDropped pins the event pump's self-defense: a
// subscriber that stops reading is dropped once its write overruns the
// SSE deadline, instead of blocking the pump forever.
func TestSSESlowSubscriberDropped(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, c := newTestServer(t, Options{Registry: reg,
		SSEWriteTimeout: 150 * time.Millisecond, MaxEventsRetained: 1 << 19})
	id, _ := c.open(ConfigRequest{CW: 300})
	sess, _ := srv.Manager().Get(id)
	// Fabricate an event backlog far larger than the kernel socket
	// buffers (which auto-tune to several MB on loopback), so the
	// handler's write genuinely stalls on an unread peer.
	sess.mu.Lock()
	for i := 0; i < 300_000; i++ {
		sess.appendLocked("phase_start", int64(i), int64(i), 0)
	}
	sess.mu.Unlock()

	conn, err := net.Dial("tcp", streamAddr(c))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/sessions/%s/events HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n\r\n", id)
	// Never read: the server must cut the subscriber loose on its own.
	waitCounter(t, reg, telemetry.MetricResilienceSlowSubDrops, 1, 10*time.Second)
}

// settleGoroutines waits for the goroutine count to return to the
// baseline (small tolerance for runtime helpers), dumping stacks if it
// never does — the leak assertion of satellite #3.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			var buf bytes.Buffer
			_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutines settled at %d, baseline %d; dump:\n%s",
				runtime.NumGoroutine(), base, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNoGoroutineLeaks drives every teardown path that owns goroutines —
// abrupt stream-client death, an SSE subscriber dropped for not reading,
// session close, server close, manager shutdown (janitor + watchdog) —
// and asserts the process returns to its goroutine baseline.
func TestNoGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := telemetry.NewRegistry()
	srv := NewServer(Options{Registry: reg,
		HeartbeatInterval: 100 * time.Millisecond,
		SSEWriteTimeout:   100 * time.Millisecond,
		SweepInterval:     20 * time.Millisecond,
		MaxEventsRetained: 1 << 19})
	ts := httptest.NewServer(srv.Handler())
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	id, _ := c.open(ConfigRequest{CW: 300})

	// Stream connection torn down abruptly mid-pipeline.
	sc, err := DialStream(streamAddr(c), id, StreamOptions{OnEvent: func(Event) {}})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for _, p := range chunks(phasedTrace(8000), []int{512}) {
		if err := sc.Send(p); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	reapClient(t, sc)

	// SSE subscriber that never reads, dropped by the write deadline.
	sess, _ := srv.Manager().Get(id)
	sess.mu.Lock()
	for i := 0; i < 300_000; i++ {
		sess.appendLocked("phase_start", int64(i), int64(i), 0)
	}
	sess.mu.Unlock()
	conn, err := net.Dial("tcp", streamAddr(c))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /v1/sessions/%s/events HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n\r\n", id)
	waitCounter(t, reg, telemetry.MetricResilienceSlowSubDrops, 1, 10*time.Second)
	conn.Close()

	// A stalled raw stream disconnected by the heartbeat — on a fresh
	// session, so the event pump is quiet and the ping path is what runs.
	id2, _ := c.open(ConfigRequest{CW: 300})
	conn2, fr := rawStream(t, streamAddr(c), id2)
	if typ, _, err := fr.ReadFrame(); err != nil || typ != trace.FramePing {
		t.Fatalf("heartbeat ping: %s, %v", typ, err)
	}
	waitCounter(t, reg, telemetry.MetricResilienceHeartbeatDrops, 1, 10*time.Second)
	conn2.Close()

	c.closeSession(id)
	c.closeSession(id2)
	ts.Close()
	srv.Manager().Shutdown()
	settleGoroutines(t, base)
}
