package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"opd/internal/core"
	"opd/internal/faultinject"
	"opd/internal/interval"
	"opd/internal/sweep"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// phasedTrace builds a deterministic trace with phase structure: stable
// runs over a small site set separated by noisy stretches, so detectors
// find several phases and usually end mid-phase (exercising flush).
func phasedTrace(n int) trace.Trace {
	tr := make(trace.Trace, 0, n)
	rng := int64(7)
	next := func(m int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int(rng >> 40)
		if v < 0 {
			v = -v
		}
		return v % m
	}
	for len(tr) < n {
		for i := 0; i < 2500 && len(tr) < n; i++ {
			tr = append(tr, trace.MakeBranch(0, 1+i%4, true))
		}
		for i := 0; i < 700 && len(tr) < n; i++ {
			tr = append(tr, trace.MakeBranch(0, 10+next(400), next(2) == 0))
		}
	}
	return tr
}

// uniformTrace builds a trace that keeps a detector inside one long
// phase — the shape that leaves a phase open at end of stream.
func uniformTrace(n int) trace.Trace {
	tr := make(trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		tr = append(tr, trace.MakeBranch(0, 1+i%3, true))
	}
	return tr
}

// offline runs cfg over tr the batch way (core.RunTrace) while capturing
// the event log the session hooks would emit — the ground truth every
// streamed variant must reproduce bit-identically.
func offline(cfg core.Config, tr trace.Trace) (*core.Detector, []Event) {
	d := cfg.MustNew()
	var evs []Event
	id := cfg.ID()
	d.SetPhaseStartHook(func(adj int64, _ []trace.Branch) {
		evs = append(evs, Event{Seq: uint64(len(evs)), Kind: "phase_start", Src: id, At: adj, V1: adj})
	})
	d.SetPhaseEndHook(func(iv interval.Interval, _ []trace.Branch) {
		evs = append(evs, Event{Seq: uint64(len(evs)), Kind: "phase_end", Src: id, At: iv.End, V1: iv.Start, V2: iv.Len()})
	})
	core.RunTrace(d, tr)
	return d, evs
}

func equalEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalIntervals(a, b []interval.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// testConfigs is the equivalence matrix: one per model/policy/analyzer
// axis, including a skipped adaptive config.
func testConfigs() []core.Config {
	return []core.Config{
		{CWSize: 300, SkipFactor: 1, TW: core.ConstantTW, Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.6},
		{CWSize: 400, TWSize: 600, SkipFactor: 32, TW: core.AdaptiveTW, Anchor: core.AnchorRN, Resize: core.ResizeSlide, Model: core.WeightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.5},
		core.FixedInterval(256, core.UnweightedModel, core.AverageAnalyzer, 0.3),
	}
}

// chunkSizesFor yields several chunking schemes, element counts per
// chunk. 0 means "the whole trace in one chunk".
func chunkSizesFor(n int) map[string][]int {
	uneven := []int{1, 997, 3, 4096, 13, 2048}
	var cycle []int
	for total := 0; total < n; {
		for _, c := range uneven {
			cycle = append(cycle, c)
			total += c
			if total >= n {
				break
			}
		}
	}
	return map[string][]int{
		"tiny":   {7},
		"medium": {1009},
		"whole":  {n},
		"uneven": cycle,
	}
}

// chunks splits tr according to sizes (cycled).
func chunks(tr trace.Trace, sizes []int) []trace.Trace {
	var out []trace.Trace
	for i, k := 0, 0; i < len(tr); k++ {
		size := sizes[k%len(sizes)]
		end := i + size
		if end > len(tr) {
			end = len(tr)
		}
		out = append(out, tr[i:end])
		i = end
	}
	return out
}

// TestSessionEquivalence pins the heart of the serving contract at the
// session layer: for every config and every chunking, streaming a trace
// through Session.Feed and closing produces phases, similarity counts,
// and a phase-event log bit-identical to an offline pass.
func TestSessionEquivalence(t *testing.T) {
	tr := phasedTrace(30000)
	m := NewManager(Options{})
	defer m.Shutdown()
	for _, cfg := range testConfigs() {
		want, wantEvents := offline(cfg, tr)
		for name, sizes := range chunkSizesFor(len(tr)) {
			s, err := m.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range chunks(tr, sizes) {
				if err := s.Feed(c); err != nil {
					t.Fatal(err)
				}
			}
			sum := s.close()
			id := cfg.ID() + "/" + name
			if sum.Consumed != want.Consumed() {
				t.Fatalf("%s: consumed %d, want %d", id, sum.Consumed, want.Consumed())
			}
			if sum.SimComputations != want.SimilarityComputations() {
				t.Errorf("%s: sim %d, want %d", id, sum.SimComputations, want.SimilarityComputations())
			}
			if !equalIntervals(sum.Phases, want.Phases()) {
				t.Errorf("%s: phases %v, want %v", id, sum.Phases, want.Phases())
			}
			if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
				t.Errorf("%s: adjusted %v, want %v", id, sum.AdjustedPhases, want.AdjustedPhases())
			}
			evs, _, terminated := s.EventsSince(0)
			if !terminated {
				t.Errorf("%s: closed session not terminated", id)
			}
			if !equalEvents(evs, wantEvents) {
				t.Errorf("%s: events diverge:\n got %v\nwant %v", id, evs, wantEvents)
			}
		}
	}
}

// ---- HTTP helpers ----

type client struct {
	t    *testing.T
	base string
	http *http.Client
}

func newTestServer(t *testing.T, opts Options) (*Server, *client) {
	t.Helper()
	srv := NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.manager.Shutdown()
	})
	return srv, &client{t: t, base: ts.URL, http: ts.Client()}
}

func (c *client) open(req ConfigRequest) (id string, status int) {
	c.t.Helper()
	body, _ := json.Marshal(req)
	resp, err := c.http.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out.ID, resp.StatusCode
}

// sendRaw posts raw bytes as an element chunk and returns status and body.
func (c *client) sendRaw(id string, raw []byte) (int, errorBody) {
	c.t.Helper()
	resp, err := c.http.Post(c.base+"/v1/sessions/"+id+"/elements",
		"application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	return resp.StatusCode, eb
}

// send posts one element chunk, asserting success.
func (c *client) send(id string, elems trace.Trace) {
	c.t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBranches(&buf, elems); err != nil {
		c.t.Fatal(err)
	}
	if status, eb := c.sendRaw(id, buf.Bytes()); status != http.StatusOK {
		c.t.Fatalf("chunk: status %d: %s", status, eb.Error)
	}
}

// closeSession deletes the session and returns its summary.
func (c *client) closeSession(id string) *Summary {
	c.t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, c.base+"/v1/sessions/"+id, nil)
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("close: status %d", resp.StatusCode)
	}
	var sum Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		c.t.Fatal(err)
	}
	return &sum
}

// poll fetches events since a cursor.
func (c *client) poll(id string, since uint64) (evs []Event, next uint64, terminated bool) {
	c.t.Helper()
	resp, err := c.http.Get(fmt.Sprintf("%s/v1/sessions/%s/events?since=%d", c.base, id, since))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Events     []Event `json:"events"`
		Next       uint64  `json:"next"`
		Terminated bool    `json:"terminated"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		c.t.Fatal(err)
	}
	return out.Events, out.Next, out.Terminated
}

// TestHTTPEquivalence streams through the real HTTP surface: for each
// config × chunking, the polled event log and the close summary must
// equal the offline pass.
func TestHTTPEquivalence(t *testing.T) {
	tr := phasedTrace(20000)
	_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
	reqs := []ConfigRequest{
		{CW: 300},
		{CW: 400, TW: 600, Skip: 32, Policy: "adaptive", Model: "weighted", Param: 0.5},
		{CW: 256, Policy: "fixedinterval", Analyzer: "average", Param: 0.3},
	}
	for _, req := range reqs {
		cfg, err := req.Config()
		if err != nil {
			t.Fatal(err)
		}
		want, wantEvents := offline(cfg, tr)
		for name, sizes := range map[string][]int{
			"small":  {601},
			"uneven": {1, 4096, 997, 13, 2048},
			"whole":  {len(tr)},
		} {
			id, status := c.open(req)
			if status != http.StatusCreated {
				t.Fatalf("open: status %d", status)
			}
			for _, chunk := range chunks(tr, sizes) {
				c.send(id, chunk)
			}
			sum := c.closeSession(id)
			tag := cfg.ID() + "/" + name
			if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
				t.Errorf("%s: adjusted phases %v, want %v", tag, sum.AdjustedPhases, want.AdjustedPhases())
			}
			if !equalIntervals(sum.Phases, want.Phases()) {
				t.Errorf("%s: phases %v, want %v", tag, sum.Phases, want.Phases())
			}
			if sum.SimComputations != want.SimilarityComputations() {
				t.Errorf("%s: sim %d, want %d", tag, sum.SimComputations, want.SimilarityComputations())
			}
			// The session is gone after close; events were polled during
			// its lifetime in the chaos tests — here assert the summary
			// count matches the offline event log.
			if sum.EventsTotal != uint64(len(wantEvents)) {
				t.Errorf("%s: events_total %d, want %d", tag, sum.EventsTotal, len(wantEvents))
			}
		}
	}
}

// TestPollingEvents pins the resumable poll cursor: polling with
// ?since=next never re-delivers, and the concatenation equals the
// offline event log.
func TestPollingEvents(t *testing.T) {
	tr := phasedTrace(15000)
	_, c := newTestServer(t, Options{})
	req := ConfigRequest{CW: 300}
	cfg, _ := req.Config()
	_, wantEvents := offline(cfg, tr)

	id, _ := c.open(req)
	var got []Event
	var cursor uint64
	for _, chunk := range chunks(tr, []int{777}) {
		c.send(id, chunk)
		evs, next, _ := c.poll(id, cursor)
		got = append(got, evs...)
		cursor = next
	}
	c.closeSession(id)
	// The final phase_end (flush) may land after the last poll; the
	// session is removed at close, so compare the prefix relationship.
	if len(got) > len(wantEvents) {
		t.Fatalf("polled %d events, offline has %d", len(got), len(wantEvents))
	}
	if !equalEvents(got, wantEvents[:len(got)]) {
		t.Errorf("polled events diverge:\n got %v\nwant %v", got, wantEvents[:len(got)])
	}
}

// corruptHeader returns a chunk whose magic is wrong.
func corruptHeader(elems trace.Trace) []byte {
	var buf bytes.Buffer
	_ = trace.WriteBranches(&buf, elems)
	b := buf.Bytes()
	b[0] ^= 0xFF
	return b
}

// truncate returns a valid chunk missing its final bytes.
func truncate(elems trace.Trace, drop int) []byte {
	var buf bytes.Buffer
	_ = trace.WriteBranches(&buf, elems)
	b := buf.Bytes()
	return b[:len(b)-drop]
}

// TestCorruptChunkFailsOneRequest pins the robustness contract: a
// damaged chunk yields a 4xx with the error classified and located, the
// session keeps serving, and re-sending the repaired chunk converges to
// the offline result.
func TestCorruptChunkFailsOneRequest(t *testing.T) {
	tr := phasedTrace(12000)
	reg := telemetry.NewRegistry()
	_, c := newTestServer(t, Options{Registry: reg})
	req := ConfigRequest{CW: 300}
	cfg, _ := req.Config()
	want, _ := offline(cfg, tr)

	id, _ := c.open(req)
	parts := chunks(tr, []int{4096})
	c.send(id, parts[0])

	// A corrupt chunk: wrong magic.
	status, eb := c.sendRaw(id, corruptHeader(parts[1]))
	if status != http.StatusBadRequest || eb.Kind != "corrupt" {
		t.Fatalf("corrupt chunk: status %d kind %q, want 400/corrupt", status, eb.Kind)
	}
	// A truncated chunk: stream stops before the declared count.
	status, eb = c.sendRaw(id, truncate(parts[1], 5))
	if status != http.StatusBadRequest || eb.Kind != "truncated" {
		t.Fatalf("truncated chunk: status %d kind %q, want 400/truncated", status, eb.Kind)
	}
	if eb.Offset == 0 {
		t.Errorf("truncated chunk: missing damage offset")
	}

	// The session survived: resend the repaired chunk and the rest.
	for _, p := range parts[1:] {
		c.send(id, p)
	}
	sum := c.closeSession(id)
	if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
		t.Errorf("after damage: adjusted phases %v, want %v", sum.AdjustedPhases, want.AdjustedPhases())
	}
	if v := reg.Counter(telemetry.MetricServeChunkErrors).Value(); v != 2 {
		t.Errorf("chunk error counter = %d, want 2", v)
	}
}

// TestIngestErrorTable pins the one error table both wire paths answer
// from: for each kind of ingest refusal, the one-shot endpoint's HTTP
// status and whether the framed stream's FrameErr is retryable (status 0
// marks refusals the one-shot endpoint never meets). End to end, a chunk
// refused because its session was handed off to another node was not
// applied, so the one-shot endpoint answers 503, retryable like the
// stream's FrameErr.
func TestIngestErrorTable(t *testing.T) {
	srv, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
	open := func() *Session {
		t.Helper()
		id, status := c.open(ConfigRequest{CW: 300})
		s, ok := srv.manager.Get(id)
		if status != http.StatusCreated || !ok {
			t.Fatalf("open: status %d", status)
		}
		return s
	}
	valid := mustEncode(t, phasedTrace(100))

	branch := open()
	corrupt := ingestOne(branch, trace.FrameData, []byte("not a trace"))
	truncated := ingestOne(branch, trace.FrameData, truncate(phasedTrace(100), 5))
	wrongMode := ingestOne(branch, trace.FrameSyms, trace.AppendSymsPayload(nil, 0, nil))

	ids := open()
	if _, err := ids.StreamHello(true); err != nil {
		t.Fatal(err)
	}
	gap := ingestOne(ids, trace.FrameSyms, trace.AppendSymsPayload(nil, 5, phasedTrace(1)))
	stale := ids.ingest(99, trace.FrameSyms, trace.AppendSymsPayload(nil, 0, nil), new(ingestScratch), nil)

	closed := open()
	srv.manager.Close(closed.ID())
	closedErr := ingestOne(closed, trace.FrameData, valid)

	condemned := open()
	condemned.condemned.Store(true)
	condemnedErr := ingestOne(condemned, trace.FrameData, valid)

	migrated := open()
	if _, err := migrated.exportMigrate(true); err != nil {
		t.Fatal(err)
	}
	migratedErr := ingestOne(migrated, trace.FrameData, valid)

	for _, tc := range []struct {
		name      string
		err       error
		status    int
		retryable bool
	}{
		{"corrupt chunk", corrupt, http.StatusBadRequest, true},
		{"truncated chunk", truncated, http.StatusBadRequest, true},
		{"WAL failure", fmt.Errorf("%w: %w", ErrPersist, errors.New("disk full")), http.StatusServiceUnavailable, true},
		{"migrated", migratedErr, http.StatusServiceUnavailable, true},
		{"closed", closedErr, http.StatusConflict, false},
		{"mode conflict", wrongMode, http.StatusConflict, false},
		{"stale stream", stale, 0, false},
		{"symbol-table gap", gap, 0, false},
		{"panicked", fmt.Errorf("%w: %w", ErrFailed, &sweep.PanicError{Value: "boom"}), http.StatusInternalServerError, false},
		{"condemned", condemnedErr, http.StatusInternalServerError, false},
	} {
		if tc.err == nil {
			t.Errorf("%s: ingest accepted the record", tc.name)
			continue
		}
		status, retryable := ingestStatus(tc.err)
		if (tc.status != 0 && status != tc.status) || retryable != tc.retryable {
			t.Errorf("%s (%v): status %d retryable %v, want %d %v", tc.name, tc.err, status, retryable, tc.status, tc.retryable)
		}
	}

	// Over the wire: a one-shot chunk and a stream frame meeting a
	// session that was handed off mid-flight.
	if status, eb := c.sendRaw(migrated.ID(), valid); status != http.StatusServiceUnavailable {
		t.Errorf("POST to a migrated session: status %d (%s), want 503", status, eb.Error)
	}
	streamed := open()
	conn, fr := rawStream(t, streamAddr(c), streamed.ID())
	defer conn.Close()
	if _, err := streamed.exportMigrate(true); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(trace.AppendFrame(nil, trace.FrameData, valid)); err != nil {
		t.Fatal(err)
	}
	typ, payload := nextDataPlane(t, fr)
	if retryable, msg := parseErrPayload(payload); typ != trace.FrameErr || !retryable {
		t.Errorf("data frame to a migrated session: %s frame %q (retryable %v), want a retryable err", typ, msg, retryable)
	}
}

// TestAdmissionCaps pins the 429/413 rejections and their counters.
func TestAdmissionCaps(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, c := newTestServer(t, Options{MaxSessions: 2, MaxWindowElems: 10000, MaxChunkBytes: 256, Registry: reg})

	// Window memory cap: CW+TW over the limit is rejected up front.
	if _, status := c.open(ConfigRequest{CW: 9000}); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized window: status %d, want 413", status)
	}
	// Session cap.
	id1, _ := c.open(ConfigRequest{CW: 100})
	if _, status := c.open(ConfigRequest{CW: 100}); status != http.StatusCreated {
		t.Fatalf("second open: status %d", status)
	}
	if _, status := c.open(ConfigRequest{CW: 100}); status != http.StatusTooManyRequests {
		t.Fatalf("third open: status %d, want 429", status)
	}
	// Closing frees a slot.
	c.closeSession(id1)
	id2, status := c.open(ConfigRequest{CW: 100})
	if status != http.StatusCreated {
		t.Fatalf("open after close: status %d, want 201", status)
	}
	if v := reg.Counter(telemetry.MetricServeSessionsRejected).Value(); v != 2 {
		t.Errorf("rejected counter = %d, want 2", v)
	}
	// Chunk size cap.
	big := make(trace.Trace, 4096)
	var buf bytes.Buffer
	_ = trace.WriteBranches(&buf, big)
	status, _ = c.sendRaw(id2, buf.Bytes())
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunk: status %d, want 413", status)
	}
	// Invalid config: validation error surfaces as 400.
	if _, status := c.open(ConfigRequest{CW: 100, Skip: 200}); status != http.StatusBadRequest {
		t.Fatalf("invalid config: status %d, want 400", status)
	}
	// Unknown session: 404.
	if status, _ := c.sendRaw("deadbeef", buf.Bytes()); status != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", status)
	}
}

// TestIdleEviction pins the janitor: an untouched session is reclaimed,
// its open phase flushed (the event log gains the final phase_end), and
// subsequent requests see 404.
func TestIdleEviction(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, c := newTestServer(t, Options{
		IdleTimeout:   30 * time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
		Registry:      reg,
	})
	id, _ := c.open(ConfigRequest{CW: 200})
	sess, ok := srv.Manager().Get(id)
	if !ok {
		t.Fatal("session not found after open")
	}
	// A uniform stream keeps the phase open at the point feeding stops.
	c.send(id, uniformTrace(5000))

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := srv.Manager().Get(id); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session not evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sum := sess.Summary()
	if sum.State != StateClosed {
		t.Fatalf("evicted session state %q, want closed", sum.State)
	}
	evs, _, terminated := sess.EventsSince(0)
	if !terminated || len(evs) == 0 {
		t.Fatalf("evicted session: terminated=%v events=%d", terminated, len(evs))
	}
	last := evs[len(evs)-1]
	if last.Kind != "phase_end" || last.At != sum.Consumed {
		t.Errorf("flush on eviction: last event %+v, want phase_end at %d", last, sum.Consumed)
	}
	if status, _ := c.sendRaw(id, nil); status != http.StatusNotFound {
		t.Errorf("post-eviction request: status %d, want 404", status)
	}
	if v := reg.Counter(telemetry.MetricServeSessionsEvicted).Value(); v != 1 {
		t.Errorf("evicted counter = %d, want 1", v)
	}
}

// panicSeam is an Options.NewDetector that wires a faultinject panic
// model into sessions whose Param carries the poison marker, and builds
// everything else normally.
func panicSeam(marker float64, after int) func(core.Config) (*core.Detector, error) {
	return func(cfg core.Config) (*core.Detector, error) {
		if cfg.Param != marker {
			return cfg.New()
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		tw := cfg.TWSize
		if tw == 0 {
			tw = cfg.CWSize
		}
		model := core.NewSetModel(cfg.Model, cfg.CWSize, tw, cfg.TW, cfg.Anchor, cfg.Resize)
		return core.NewDetector(faultinject.NewPanicModel(model, after, "injected model bug"),
			core.NewThreshold(cfg.Param), 1), nil
	}
}

// TestPanicPoisonsOnlyItsSession injects a panicking model into one of
// two concurrent sessions: the poisoned session answers 500 and is
// marked failed, while the healthy one completes bit-identical to
// offline and the server keeps serving.
func TestPanicPoisonsOnlyItsSession(t *testing.T) {
	tr := phasedTrace(12000)
	reg := telemetry.NewRegistry()
	const marker = 0.59
	_, c := newTestServer(t, Options{NewDetector: panicSeam(marker, 3), Registry: reg})

	good := ConfigRequest{CW: 300}
	cfg, _ := good.Config()
	want, _ := offline(cfg, tr)

	goodID, _ := c.open(good)
	badID, status := c.open(ConfigRequest{CW: 300, Param: marker})
	if status != http.StatusCreated {
		t.Fatalf("poisoned open: status %d", status)
	}

	parts := chunks(tr, []int{1024})
	sawFailure := false
	for _, p := range parts {
		c.send(goodID, p)
		status, eb := c.sendRaw(badID, mustEncode(t, p))
		switch status {
		case http.StatusOK:
		case http.StatusInternalServerError:
			sawFailure = true
			if !strings.Contains(eb.Error, "injected model bug") {
				t.Fatalf("failure error %q missing panic value", eb.Error)
			}
		default:
			t.Fatalf("poisoned session: unexpected status %d", status)
		}
	}
	if !sawFailure {
		t.Fatal("poisoned session never failed")
	}
	// The healthy session is bit-identical to offline.
	sum := c.closeSession(goodID)
	if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
		t.Errorf("healthy session diverged: %v, want %v", sum.AdjustedPhases, want.AdjustedPhases())
	}
	// The poisoned session reports failed, with the panic preserved as a
	// sweep.PanicError on the session error.
	badSum := c.closeSession(badID)
	if badSum.State != StateFailed {
		t.Fatalf("poisoned session state %q, want failed", badSum.State)
	}
	if !strings.Contains(badSum.Error, "injected model bug") {
		t.Errorf("poisoned summary error %q", badSum.Error)
	}
	if v := reg.Counter(telemetry.MetricServeSessionsFailed).Value(); v != 1 {
		t.Errorf("failed counter = %d, want 1", v)
	}
	// The server still serves: a fresh session works.
	if _, status := c.open(good); status != http.StatusCreated {
		t.Errorf("open after panic: status %d", status)
	}
}

func mustEncode(t *testing.T, elems trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBranches(&buf, elems); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ingestOne runs one record through Session.ingest as a wire chunk of
// the one-shot endpoint would: fresh scratch, a trace, generation 0.
func ingestOne(s *Session, kind trace.FrameType, payload []byte) error {
	ct := telemetry.ChunkTrace{Start: time.Now(), Bytes: int64(len(payload))}
	return s.ingest(0, kind, payload, new(ingestScratch), &ct)
}

// TestSessionFeedPanicDirect pins the session-layer recovery contract
// without HTTP: Feed returns ErrFailed wrapping *sweep.PanicError.
func TestSessionFeedPanicDirect(t *testing.T) {
	m := NewManager(Options{NewDetector: panicSeam(0.59, 1)})
	defer m.Shutdown()
	s, err := m.Open(core.Config{CWSize: 100, SkipFactor: 1, TW: core.ConstantTW,
		Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.59})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Feed(uniformTrace(10))
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("Feed error %v, want ErrFailed", err)
	}
	var pe *sweep.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Feed error %v does not wrap *sweep.PanicError", err)
	}
	if pe.Value != "injected model bug" || len(pe.Stack) == 0 {
		t.Errorf("panic error %+v missing value/stack", pe)
	}
	if err := s.Feed(uniformTrace(10)); !errors.Is(err, ErrFailed) {
		t.Errorf("second Feed error %v, want ErrFailed", err)
	}
}

// sseEvents reads an SSE stream until the "end" event (or EOF),
// delivering each decoded phase event.
func sseEvents(body io.Reader, out chan<- Event, done chan<- struct{}) {
	defer close(done)
	sc := bufio.NewScanner(body)
	kind := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if kind == "end" {
				return
			}
			var e Event
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e) == nil {
				out <- e
			}
		}
	}
}

// TestSSEStreamAndShutdownFlush drives the full live path against a
// real listener: SSE delivers events as chunks land, and a graceful
// Shutdown flushes the open phase — the stream receives the final
// phase_end and the terminal end event before the server exits.
func TestSSEStreamAndShutdownFlush(t *testing.T) {
	srv := NewServer(Options{Registry: telemetry.NewRegistry()})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	body, _ := json.Marshal(ConfigRequest{CW: 200})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var opened struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stream, err := http.Get(base + "/v1/sessions/" + opened.ID + "/events?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	events := make(chan Event, 64)
	streamDone := make(chan struct{})
	go sseEvents(stream.Body, events, streamDone)

	// A uniform stream: the phase opens and stays open.
	tr := uniformTrace(4000)
	var buf bytes.Buffer
	_ = trace.WriteBranches(&buf, tr)
	cresp, err := http.Post(base+"/v1/sessions/"+opened.ID+"/elements",
		"application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()

	// The phase_start must arrive live, before any close.
	select {
	case e := <-events:
		if e.Kind != "phase_start" {
			t.Fatalf("first SSE event %q, want phase_start", e.Kind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE event before shutdown")
	}

	// Graceful shutdown must flush the open phase and end the stream.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	var got []Event
collect:
	for {
		select {
		case e := <-events:
			got = append(got, e)
		case <-streamDone:
			break collect
		case <-time.After(10 * time.Second):
			t.Fatal("SSE stream did not end on shutdown")
		}
	}
	wg.Wait()
	if len(got) == 0 {
		t.Fatal("no events after shutdown")
	}
	last := got[len(got)-1]
	if last.Kind != "phase_end" || last.At != int64(len(tr)) {
		t.Fatalf("shutdown flush: last event %+v, want phase_end at %d", last, len(tr))
	}
	// Post-shutdown opens are refused at the manager.
	if _, err := srv.Manager().Open(core.Config{CWSize: 100, SkipFactor: 1, TW: core.ConstantTW,
		Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.6}); !errors.Is(err, ErrDraining) {
		t.Errorf("open after shutdown: %v, want ErrDraining", err)
	}
}

// TestOneShotReplyBytes pins the bytes of the one-shot chunk reply and
// the event poll reply: each must read exactly as the sorted-key map of
// the same values, indented as writeJSON indents, did.
func TestOneShotReplyBytes(t *testing.T) {
	mapJSON := func(v map[string]any) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	get := func(c *client, url string, body []byte) string {
		t.Helper()
		var resp *http.Response
		var err error
		if body == nil {
			resp, err = c.http.Get(url)
		} else {
			resp, err = c.http.Post(url, "application/octet-stream", bytes.NewReader(body))
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", url, resp.StatusCode, err)
		}
		return string(out)
	}

	_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
	req := ConfigRequest{CW: 300}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	id, _ := c.open(req)
	url := c.base + "/v1/sessions/" + id
	if got, want := get(c, url+"/events", nil), "{\n  \"events\": [],\n  \"next\": 0,\n  \"terminated\": false\n}\n"; got != want {
		t.Errorf("empty poll reply:\n%q\nwant\n%q", got, want)
	}

	// The session's detector after the chunk: offline's hooks, without
	// the Finish that offline's run ends with.
	tr := phasedTrace(20000)
	d := cfg.MustNew()
	var wantEvents []Event
	d.SetPhaseStartHook(func(adj int64, _ []trace.Branch) {
		wantEvents = append(wantEvents, Event{Seq: uint64(len(wantEvents)), Kind: "phase_start", Src: cfg.ID(), At: adj, V1: adj})
	})
	d.SetPhaseEndHook(func(iv interval.Interval, _ []trace.Branch) {
		wantEvents = append(wantEvents, Event{Seq: uint64(len(wantEvents)), Kind: "phase_end", Src: cfg.ID(), At: iv.End, V1: iv.Start, V2: iv.Len()})
	})
	d.ProcessBatch(tr)
	if len(wantEvents) < 2 {
		t.Fatal("trace produces too few events; test is vacuous")
	}
	got := get(c, url+"/elements", trace.AppendBranches(nil, tr))
	want := mapJSON(map[string]any{
		"elements":     int64(len(tr)),
		"consumed":     d.Consumed(),
		"in_phase":     d.State().IsPhase(),
		"events_total": uint64(len(wantEvents)),
	})
	if got != want {
		t.Errorf("chunk reply:\n%q\nwant\n%q", got, want)
	}
	got = get(c, url+"/events?since=1", nil)
	want = mapJSON(map[string]any{
		"events":     wantEvents[1:],
		"next":       uint64(len(wantEvents)),
		"terminated": false,
	})
	if got != want {
		t.Errorf("poll reply:\n%q\nwant\n%q", got, want)
	}
}
