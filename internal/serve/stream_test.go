package serve

import (
	"bufio"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"opd/internal/core"
	"opd/internal/durable"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// streamAddr strips the scheme from an httptest base URL so DialStream
// can reach the same listener.
func streamAddr(c *client) string { return strings.TrimPrefix(c.base, "http://") }

// eventSink collects events delivered by OnEvent callbacks. The callback
// fires on the client's reader goroutine, so access is locked.
type eventSink struct {
	mu  sync.Mutex
	evs []Event
}

func (es *eventSink) add(ev Event) {
	es.mu.Lock()
	es.evs = append(es.evs, ev)
	es.mu.Unlock()
}

func (es *eventSink) events() []Event {
	es.mu.Lock()
	defer es.mu.Unlock()
	return append([]Event(nil), es.evs...)
}

// reapClient closes a stream client and waits for its reader goroutine to
// die, so no OnEvent callback can fire after the caller reads its sink.
func reapClient(t *testing.T, sc *StreamClient) {
	t.Helper()
	sc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sc.mu.Lock()
		dead := sc.err != nil || sc.done
		sc.mu.Unlock()
		if dead {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("stream client reader did not exit after Close")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamEquivalence pins the tentpole contract at the wire: for every
// config, chunking, and ingest representation (branch frames and dense-ID
// frames), a trace streamed over one persistent framed connection yields
// a summary and an event log bit-identical to an offline pass.
func TestStreamEquivalence(t *testing.T) {
	tr := phasedTrace(20000)
	reqs := []ConfigRequest{
		{CW: 300},
		{CW: 400, TW: 600, Skip: 32, Policy: "adaptive", Model: "weighted", Param: 0.5},
		{CW: 256, Policy: "fixedinterval", Analyzer: "average", Param: 0.3},
	}
	_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
	for _, req := range reqs {
		cfg, err := req.Config()
		if err != nil {
			t.Fatal(err)
		}
		want, wantEvents := offline(cfg, tr)
		for name, sizes := range chunkSizesFor(len(tr)) {
			for _, ids := range []bool{false, true} {
				tag := cfg.ID() + "/" + name + "/ids=" + map[bool]string{false: "no", true: "yes"}[ids]
				id, status := c.open(req)
				if status != http.StatusCreated {
					t.Fatalf("%s: open: status %d", tag, status)
				}
				var sink eventSink
				sc, err := DialStream(streamAddr(c), id, StreamOptions{IDs: ids, OnEvent: sink.add})
				if err != nil {
					t.Fatalf("%s: dial: %v", tag, err)
				}
				for _, chunk := range chunks(tr, sizes) {
					if err := sc.Send(chunk); err != nil {
						t.Fatalf("%s: send: %v", tag, err)
					}
				}
				sum, err := sc.End(true)
				sc.Close()
				if err != nil {
					t.Fatalf("%s: end: %v", tag, err)
				}
				if sum.Consumed != want.Consumed() {
					t.Errorf("%s: consumed %d, want %d", tag, sum.Consumed, want.Consumed())
				}
				if sum.SimComputations != want.SimilarityComputations() {
					t.Errorf("%s: sim %d, want %d", tag, sum.SimComputations, want.SimilarityComputations())
				}
				if !equalIntervals(sum.Phases, want.Phases()) {
					t.Errorf("%s: phases %v, want %v", tag, sum.Phases, want.Phases())
				}
				if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
					t.Errorf("%s: adjusted phases %v, want %v", tag, sum.AdjustedPhases, want.AdjustedPhases())
				}
				// End(true) orders Done after the pump's final drain, so the
				// full event log must have arrived over the same connection.
				if got := sink.events(); !equalEvents(got, wantEvents) {
					t.Errorf("%s: multiplexed event log diverges:\n got %v\nwant %v", tag, got, wantEvents)
				}
			}
		}
	}
}

// TestStreamReconnectResume pins the resume protocol: a connection torn
// down mid-stream (with pipelined, unacknowledged chunks in flight) loses
// nothing — a second connection re-sends the deterministic chunk sequence
// from the start, skips what the handshake cursor reports applied, and
// the result is still bit-identical to offline, with the event log
// resuming past what the first connection delivered. The dense-ID
// variants cover both a reused client symbol table and a fresh one (a
// client process restart).
func TestStreamReconnectResume(t *testing.T) {
	tr := phasedTrace(20000)
	req := ConfigRequest{CW: 400, TW: 600, Skip: 32, Policy: "adaptive", Model: "weighted", Param: 0.5}
	cfg, _ := req.Config()
	want, wantEvents := offline(cfg, tr)
	parts := chunks(tr, []int{777})

	cases := []struct {
		name    string
		ids     bool
		reuse   bool // hand the first connection's builder to the second
		drained bool // drain before killing the first connection
	}{
		{"branch/lossy", false, false, false},
		{"ids/reused-builder/lossy", true, true, false},
		{"ids/fresh-builder/lossy", true, false, false},
		{"ids/reused-builder/drained", true, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
			id, status := c.open(req)
			if status != http.StatusCreated {
				t.Fatalf("open: status %d", status)
			}
			var sink eventSink
			sc1, err := DialStream(streamAddr(c), id, StreamOptions{IDs: tc.ids, OnEvent: sink.add})
			if err != nil {
				t.Fatalf("dial 1: %v", err)
			}
			half := len(parts) / 2
			for _, p := range parts[:half] {
				if err := sc1.Send(p); err != nil {
					t.Fatalf("send 1: %v", err)
				}
			}
			if tc.drained {
				if err := sc1.Drain(); err != nil {
					t.Fatalf("drain 1: %v", err)
				}
			}
			// Kill the connection abruptly: pipelined chunks past the last
			// ack may or may not have been applied. Wait for the reader to
			// die so the sink is final before we read the event cursor.
			reapClient(t, sc1)

			if tc.ids {
				// A branch handshake must be refused on the latched session.
				if scX, err := DialStream(streamAddr(c), id, StreamOptions{}); err == nil {
					scX.Close()
					t.Fatal("branch handshake on an ids session succeeded")
				}
			}
			opts := StreamOptions{IDs: tc.ids, OnEvent: sink.add}
			// Events arrive in seq order from 0, so the count delivered so
			// far is the resume cursor. The sink keeps accumulating.
			opts.EventsSince = uint64(len(sink.events()))
			if tc.reuse {
				opts.Builder = sc1.Builder()
			}
			sc2, err := DialStream(streamAddr(c), id, opts)
			if err != nil {
				t.Fatalf("dial 2: %v", err)
			}
			if tc.drained && sc2.Applied() < uint64(half) {
				t.Fatalf("drained %d chunks but resume cursor is %d", half, sc2.Applied())
			}
			// Deterministic chunking: re-send everything from the start; the
			// client skips what the server already holds.
			for _, p := range parts {
				if err := sc2.Send(p); err != nil {
					t.Fatalf("send 2: %v", err)
				}
			}
			sum, err := sc2.End(true)
			sc2.Close()
			if err != nil {
				t.Fatalf("end: %v", err)
			}
			if sum.Consumed != want.Consumed() {
				t.Errorf("consumed %d, want %d", sum.Consumed, want.Consumed())
			}
			if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
				t.Errorf("adjusted phases %v, want %v", sum.AdjustedPhases, want.AdjustedPhases())
			}
			if sum.SimComputations != want.SimilarityComputations() {
				t.Errorf("sim %d, want %d", sum.SimComputations, want.SimilarityComputations())
			}
			if got := sink.events(); !equalEvents(got, wantEvents) {
				t.Errorf("cross-connection event log diverges:\n got %v\nwant %v", got, wantEvents)
			}
		})
	}
}

// TestStreamModeConflict pins the mode latch at the HTTP surface: a
// session latched into dense-ID mode refuses branch-form chunks with 409,
// and a session that already consumed elements refuses a dense-ID
// handshake.
func TestStreamModeConflict(t *testing.T) {
	_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})

	// Latch a session into ids mode, then POST branch elements at it.
	id, _ := c.open(ConfigRequest{CW: 300})
	sc, err := DialStream(streamAddr(c), id, StreamOptions{IDs: true})
	if err != nil {
		t.Fatalf("ids dial: %v", err)
	}
	if err := sc.Send(phasedTrace(100)); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := sc.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	status, eb := c.sendRaw(id, mustEncode(t, phasedTrace(50)))
	if status != http.StatusConflict {
		t.Fatalf("branch POST into ids session: status %d (%s), want 409", status, eb.Error)
	}
	sc.Close()

	// A consumed branch session refuses the ids handshake.
	id2, _ := c.open(ConfigRequest{CW: 300})
	c.send(id2, phasedTrace(500))
	if _, err := DialStream(streamAddr(c), id2, StreamOptions{IDs: true}); err == nil {
		t.Fatal("ids handshake on a consumed branch session succeeded")
	} else {
		var se *StreamError
		if !errors.As(err, &se) || se.Retryable {
			t.Fatalf("ids handshake refusal: %v, want fatal StreamError", err)
		}
	}

	// A request without the upgrade header is told how to upgrade.
	resp, err := c.http.Post(c.base+"/v1/sessions/"+id2+"/stream", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != streamProtocol {
		t.Fatalf("plain POST to /stream: status %d, Upgrade %q", resp.StatusCode, resp.Header.Get("Upgrade"))
	}
}

// rawStream opens a streaming connection bypassing StreamClient, for
// protocol-level damage injection: it performs the upgrade and branch
// handshake and returns the conn and a frame reader positioned after the
// HelloAck.
func rawStream(t *testing.T, addr, id string) (net.Conn, *trace.FrameReader) {
	t.Helper()
	return rawStreamHello(t, addr, id, `{"mode":"branch"}`)
}

// rawStreamHello is rawStream with the given JSON hello payload.
func rawStreamHello(t *testing.T, addr, id, hello string) (net.Conn, *trace.FrameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	req := "POST /v1/sessions/" + id + "/stream HTTP/1.1\r\nHost: " + addr +
		"\r\nUpgrade: " + streamProtocol + "\r\nConnection: Upgrade\r\nContent-Length: 0\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: status %d", resp.StatusCode)
	}
	if _, err := conn.Write(trace.AppendFrame(nil, trace.FrameHello, []byte(hello))); err != nil {
		t.Fatal(err)
	}
	fr := trace.NewFrameReader(br, 0)
	typ, _, err := fr.ReadFrame()
	if err != nil || typ != trace.FrameHelloAck {
		t.Fatalf("handshake: %s, %v", typ, err)
	}
	return conn, fr
}

// nextDataPlane reads frames skipping multiplexed events.
func nextDataPlane(t *testing.T, fr *trace.FrameReader) (trace.FrameType, []byte) {
	t.Helper()
	for {
		typ, payload, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("reading frame: %v", err)
		}
		if typ != trace.FrameEvent {
			return typ, payload
		}
	}
}

// expectHangup reads until the server ends the connection: only
// buffered events may still arrive.
func expectHangup(t *testing.T, fr *trace.FrameReader) {
	t.Helper()
	for {
		typ, _, err := fr.ReadFrame()
		if err != nil {
			return
		}
		if typ != trace.FrameEvent {
			t.Fatalf("got %s frame, want the server to hang up", typ)
		}
	}
}

// TestStreamDamageSemantics pins the two-layer damage contract. In-payload
// damage (a chunk whose OPDBRNC1 bytes are corrupt inside an intact frame)
// costs exactly that chunk: the server answers a retryable FrameErr, applies
// nothing and ends the connection, and a reconnect resumes at the same
// cursor. Frame-level damage (a bad checksum) kills the connection without
// an answer — but only the connection: the session survives for a
// reconnect that completes the stream to the offline-identical result.
func TestStreamDamageSemantics(t *testing.T) {
	tr := phasedTrace(12000)
	cfg, _ := ConfigRequest{CW: 300}.Config()
	want, _ := offline(cfg, tr)
	reg := telemetry.NewRegistry()
	_, c := newTestServer(t, Options{Registry: reg})
	id, _ := c.open(ConfigRequest{CW: 300})
	conn, fr := rawStream(t, streamAddr(c), id)

	// An intact frame around a corrupt chunk: rejected whole, retryable,
	// and the connection ends.
	if _, err := conn.Write(trace.AppendFrame(nil, trace.FrameData, corruptHeader(tr[:100]))); err != nil {
		t.Fatal(err)
	}
	typ, payload := nextDataPlane(t, fr)
	if typ != trace.FrameErr {
		t.Fatalf("corrupt chunk: got %s frame, want FrameErr", typ)
	}
	if retryable, msg := parseErrPayload(payload); !retryable {
		t.Fatalf("corrupt chunk: fatal error %q, want retryable", msg)
	}
	expectHangup(t, fr)
	conn.Close()

	// A reconnect ingests from the unmoved cursor.
	conn, fr = rawStream(t, streamAddr(c), id)
	parts := chunks(tr, []int{1009})
	half := len(parts) / 2
	for _, p := range parts[:half] {
		if _, err := conn.Write(trace.AppendFrame(nil, trace.FrameData, mustEncode(t, p))); err != nil {
			t.Fatal(err)
		}
	}
	// Acks may coalesce under a burst, so read until the cumulative
	// cursor covers every chunk sent.
	var lastAck uint64
	for lastAck < uint64(half) {
		typ, payload := nextDataPlane(t, fr)
		if typ != trace.FrameAck {
			t.Fatalf("got %s frame, want FrameAck (cursor at %d)", typ, lastAck)
		}
		applied, _, _, _, err := parseAckPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		if applied < lastAck || applied > uint64(half) {
			t.Fatalf("ack cursor %d after cursor %d (sent %d good chunks)", applied, lastAck, half)
		}
		lastAck = applied
	}

	// Frame-level damage: flip a byte inside the framed payload so the
	// checksum fails. The server must drop the connection without applying
	// anything.
	bad := trace.AppendFrame(nil, trace.FrameData, mustEncode(t, parts[half]))
	bad[len(bad)-1] ^= 0x01
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	expectHangup(t, fr)
	conn.Close()

	// The session survived with the cursor where the acks left it: a
	// reconnect resumes and completes to the offline result.
	var sink eventSink
	sc, err := DialStream(streamAddr(c), id, StreamOptions{OnEvent: sink.add})
	if err != nil {
		t.Fatalf("re-dial: %v", err)
	}
	if sc.Applied() != uint64(half) {
		t.Fatalf("resume cursor %d, want %d", sc.Applied(), half)
	}
	for _, p := range parts {
		if err := sc.Send(p); err != nil {
			t.Fatalf("resume send: %v", err)
		}
	}
	sum, err := sc.End(true)
	sc.Close()
	if err != nil {
		t.Fatalf("end: %v", err)
	}
	if sum.Consumed != want.Consumed() {
		t.Errorf("consumed %d, want %d", sum.Consumed, want.Consumed())
	}
	if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
		t.Errorf("adjusted phases %v, want %v", sum.AdjustedPhases, want.AdjustedPhases())
	}
}

// TestRefusedFrameLeavesNoChunkGap pins that a refused data frame ends
// its connection. A client pipelines frames and resumes from the
// handshake's chunk cursor, so a frame applied behind a refused one would
// leave the refused chunk unsent and resend the one applied: a hole and a
// duplicate in the session's element stream. Here chunk k is shed (the
// governor's whole budget is reserved for its read), chunk k+1 follows on
// the same connection, and a resume must still reach the offline result.
func TestRefusedFrameLeavesNoChunkGap(t *testing.T) {
	const k, budget = 3, 2 << 20
	tr := phasedTrace(24000)
	cfg, _ := ConfigRequest{CW: 300}.Config()
	want, _ := offline(cfg, tr)
	parts := chunks(tr, []int{701})
	srv, c := newTestServer(t, Options{Registry: telemetry.NewRegistry(), MemBudgetBytes: budget})
	id, _ := c.open(ConfigRequest{CW: 300})
	conn, fr := rawStream(t, streamAddr(c), id)
	defer conn.Close()

	for _, p := range parts[:k] {
		if _, err := conn.Write(trace.AppendFrame(nil, trace.FrameData, mustEncode(t, p))); err != nil {
			t.Fatal(err)
		}
	}
	for applied := uint64(0); applied < k; {
		typ, payload := nextDataPlane(t, fr)
		if typ != trace.FrameAck {
			t.Fatalf("got %s frame, want FrameAck", typ)
		}
		applied, _, _, _, _ = parseAckPayload(payload)
	}
	gov := srv.manager.res.gov
	gov.Reserve(budget)
	if _, err := conn.Write(trace.AppendFrame(nil, trace.FrameData, mustEncode(t, parts[k]))); err != nil {
		t.Fatal(err)
	}
	typ, payload := nextDataPlane(t, fr)
	gov.Release(budget)
	if typ != trace.FrameErr {
		t.Fatalf("shed chunk: got %s frame, want FrameErr", typ)
	}
	if retryable, msg := parseErrPayload(payload); !retryable {
		t.Fatalf("shed chunk: fatal error %q, want retryable", msg)
	}
	// The client pipelined chunk k+1 before it saw the refusal. The
	// write may fail once the server has hung up.
	_, _ = conn.Write(trace.AppendFrame(nil, trace.FrameData, mustEncode(t, parts[k+1])))
	for {
		typ, _, err := fr.ReadFrame()
		if err != nil {
			break
		}
		if typ != trace.FrameEvent {
			t.Errorf("server answered the frame behind a refused one with %s instead of hanging up", typ)
			break
		}
	}
	conn.Close()

	sc, err := DialStream(streamAddr(c), id, StreamOptions{NoEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if sc.Applied() != k {
		t.Errorf("resume cursor %d, want %d", sc.Applied(), k)
	}
	for _, p := range parts {
		if err := sc.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := sc.End(true)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Consumed != want.Consumed() || sum.SimComputations != want.SimilarityComputations() ||
		!equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
		t.Errorf("consumed %d, %d sims, %d adjusted phases; offline has %d, %d, %d",
			sum.Consumed, sum.SimComputations, len(sum.AdjustedPhases),
			want.Consumed(), want.SimilarityComputations(), len(want.AdjustedPhases()))
	}
}

// TestStreamSupersededConnectionFenced pins the reconnect race: frames a
// dead client's connection still has in flight when its successor
// completes the handshake must not advance the cursor the successor was
// told — they are fenced with a fatal error instead of being applied
// twice.
func TestStreamSupersededConnectionFenced(t *testing.T) {
	_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
	id, _ := c.open(ConfigRequest{CW: 300})
	conn, fr := rawStream(t, streamAddr(c), id)

	// Second connection completes its handshake while the first is alive.
	sc, err := DialStream(streamAddr(c), id, StreamOptions{})
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer sc.Close()

	// The first connection now tries to feed: fenced, fatally.
	if _, err := conn.Write(trace.AppendFrame(nil, trace.FrameData, mustEncode(t, phasedTrace(100)))); err != nil {
		t.Fatal(err)
	}
	typ, payload := nextDataPlane(t, fr)
	if typ != trace.FrameErr {
		t.Fatalf("stale feed: got %s frame, want FrameErr", typ)
	}
	if retryable, msg := parseErrPayload(payload); retryable || !strings.Contains(msg, "superseded") {
		t.Fatalf("stale feed: error %q retryable=%v, want fatal superseded", msg, retryable)
	}
	conn.Close()

	// The successor is unaffected.
	if err := sc.Send(phasedTrace(100)); err != nil {
		t.Fatalf("successor send: %v", err)
	}
	if err := sc.Drain(); err != nil {
		t.Fatalf("successor drain: %v", err)
	}
	if acked, _, _ := sc.Progress(); acked != 1 {
		t.Fatalf("successor acked %d chunks, want 1 (stale chunk leaked in)", acked)
	}
}

// TestStreamDurableRecoveryIDs drives the crash-restart cycle through the
// dense-ID streaming path: symbol-table extensions and ID chunks are
// WAL-replayed (snapshot + typed records), the recovered session is still
// latched into ids mode, and a fresh client process — empty builder —
// resumes it to the offline-identical result.
func TestStreamDurableRecoveryIDs(t *testing.T) {
	tr := phasedTrace(18000)
	cfg, _ := ConfigRequest{CW: 300}.Config()
	want, wantEvents := offline(cfg, tr)
	dir := t.TempDir()

	storeA, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srvA := NewServer(Options{Store: storeA, SnapshotEvery: 4})
	if _, _, err := srvA.Recover(); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	cA := &client{t: t, base: tsA.URL, http: tsA.Client()}
	id, status := cA.open(ConfigRequest{CW: 300})
	if status != http.StatusCreated {
		t.Fatalf("open: %d", status)
	}
	parts := chunks(tr, []int{777})
	half := len(parts) / 2
	var sink eventSink
	scA, err := DialStream(streamAddr(cA), id, StreamOptions{IDs: true, OnEvent: sink.add})
	if err != nil {
		t.Fatalf("dial A: %v", err)
	}
	for _, p := range parts[:half] {
		if err := scA.Send(p); err != nil {
			t.Fatalf("send A: %v", err)
		}
	}
	if err := scA.Drain(); err != nil {
		t.Fatalf("drain A: %v", err)
	}
	reapClient(t, scA)
	// Kill server A without shutdown.
	tsA.Close()
	abandon(srvA.manager)

	storeB, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srvB := NewServer(Options{Store: storeB, SnapshotEvery: 4})
	if recovered, dropped, err := srvB.Recover(); err != nil || recovered != 1 || dropped != 0 {
		t.Fatalf("recover: %d/%d, %v", recovered, dropped, err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	t.Cleanup(func() {
		tsB.Close()
		srvB.manager.Shutdown()
	})
	cB := &client{t: t, base: tsB.URL, http: tsB.Client()}
	// Fresh builder — a new client process. Re-interning the skipped
	// chunks rebuilds the table in the same first-appearance order the
	// recovered session holds.
	scB, err := DialStream(streamAddr(cB), id, StreamOptions{
		IDs: true, OnEvent: sink.add, EventsSince: uint64(len(sink.events())),
	})
	if err != nil {
		t.Fatalf("dial B: %v", err)
	}
	if scB.Applied() != uint64(half) {
		t.Fatalf("recovered cursor %d, want %d", scB.Applied(), half)
	}
	for _, p := range parts {
		if err := scB.Send(p); err != nil {
			t.Fatalf("send B: %v", err)
		}
	}
	sum, err := scB.End(true)
	scB.Close()
	if err != nil {
		t.Fatalf("end B: %v", err)
	}
	if sum.Consumed != want.Consumed() {
		t.Errorf("consumed %d, want %d", sum.Consumed, want.Consumed())
	}
	if sum.SimComputations != want.SimilarityComputations() {
		t.Errorf("sim %d, want %d", sum.SimComputations, want.SimilarityComputations())
	}
	if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
		t.Errorf("adjusted phases %v, want %v", sum.AdjustedPhases, want.AdjustedPhases())
	}
	if sum.EventsTotal != uint64(len(wantEvents)) {
		t.Errorf("events_total %d, want %d", sum.EventsTotal, len(wantEvents))
	}
	if got := sink.events(); !equalEvents(got, wantEvents) {
		t.Errorf("cross-restart event log diverges:\n got %v\nwant %v", got, wantEvents)
	}
}

// TestSymbolFramesExtendDetectorTable pins symbol negotiation against the
// detector's own table: a frame overlapping the table is idempotent, one
// that leaves a gap, contradicts the table, or names a branch the table
// (or the frame) already holds is refused and changes nothing, and a
// refused frame never reaches the WAL, so recovery rebuilds exactly the
// accepted table.
func TestSymbolFramesExtendDetectorTable(t *testing.T) {
	dir := t.TempDir()
	m := durableManager(t, dir, Options{Registry: telemetry.NewRegistry()})
	s, err := m.Open(core.Config{CWSize: 50, SkipFactor: 1, TW: core.ConstantTW,
		Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StreamHello(true); err != nil {
		t.Fatal(err)
	}
	a, b, c, d := trace.MakeBranch(0, 1, true), trace.MakeBranch(0, 2, true), trace.MakeBranch(0, 3, true), trace.MakeBranch(0, 4, true)
	extend := func(start uint64, syms ...trace.Branch) error {
		return ingestOne(s, trace.FrameSyms, trace.AppendSymsPayload(nil, start, syms))
	}
	if err := extend(0, a, b); err != nil {
		t.Fatal(err)
	}
	if err := extend(1, b, c); err != nil {
		t.Fatalf("overlapping frame: %v", err)
	}
	for _, bad := range []struct {
		name  string
		start uint64
		syms  []trace.Branch
	}{
		{"gap", 4, []trace.Branch{d}},
		{"contradicts", 2, []trace.Branch{d}},
		{"in table", 3, []trace.Branch{d, a}},
		{"repeated", 3, []trace.Branch{d, d}},
	} {
		if err := extend(bad.start, bad.syms...); err == nil {
			t.Errorf("%s: frame accepted", bad.name)
		}
	}
	want := []trace.Branch{a, b, c}
	s.mu.Lock()
	count := s.symbolCountLocked()
	s.mu.Unlock()
	if !slices.Equal(s.det.Symbols(), want) || count != len(want) {
		t.Fatalf("table %v (count %d), want %v", s.det.Symbols(), count, want)
	}
	ids := []int32{0, 1, 2, 1}
	if err := ingestOne(s, trace.FrameIDs, trace.AppendIDsPayload(nil, ids)); err != nil {
		t.Fatal(err)
	}
	abandon(m)

	m2 := durableManager(t, dir, Options{Registry: telemetry.NewRegistry()})
	defer m2.Shutdown()
	if recovered, dropped, err := m2.Recover(); err != nil || recovered != 1 || dropped != 0 {
		t.Fatalf("recover: %d/%d, %v", recovered, dropped, err)
	}
	r, ok := m2.Get(s.ID())
	if !ok {
		t.Fatal("session not recovered")
	}
	if !slices.Equal(r.det.Symbols(), want) {
		t.Fatalf("recovered table %v, want %v", r.det.Symbols(), want)
	}
	if consumed, _, _ := r.Progress(); consumed != int64(len(ids)) {
		t.Fatalf("recovered session consumed %d, want %d", consumed, len(ids))
	}
}
