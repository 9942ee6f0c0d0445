package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"opd/internal/durable"
	"opd/internal/faultinject"
	"opd/internal/telemetry"
)

// durableManager builds a manager persisting into dir.
func durableManager(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	store, err := durable.Open(durable.Options{Dir: dir, Registry: opts.Registry})
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = store
	return NewManager(opts)
}

// abandon simulates kill -9 for a manager: the janitor stops (so the
// test does not leak its goroutine) but no session is closed, flushed,
// or snapshotted — whatever already reached the OS is all that survives.
func abandon(m *Manager) {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.stopped
}

// newestSegment returns the path of the session's highest-index WAL
// segment file.
func newestSegment(t *testing.T, dir, id string) string {
	t.Helper()
	sessDir := filepath.Join(dir, "sessions", id)
	entries, err := os.ReadDir(sessDir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && (best == "" || e.Name() > best) {
			best = e.Name()
		}
	}
	if best == "" {
		t.Fatalf("session %s has no WAL segment", id)
	}
	return filepath.Join(sessDir, best)
}

// TestDurableCrashRecoveryEquivalence is the crash-recovery property
// test: for every config, feed part of the stream into a durable
// manager, hard-stop it (optionally tearing the WAL tail as a mid-append
// kill would), recover into a fresh manager over the same directory,
// finish the stream, and require the terminal summary and event log to
// be bit-identical to the uninterrupted offline run.
func TestDurableCrashRecoveryEquivalence(t *testing.T) {
	tr := phasedTrace(25000)
	for _, cfg := range testConfigs() {
		want, wantEvents := offline(cfg, tr)
		parts := chunks(tr, []int{997, 13, 4096, 1, 2048, 129})
		for _, cut := range []int{0, 1, 3, len(parts) / 2, len(parts) - 1} {
			for _, tearTail := range []bool{false, true} {
				if tearTail && cut == 0 {
					continue // no WAL segment exists yet to tear
				}
				dir := t.TempDir()
				m1 := durableManager(t, dir, Options{SnapshotEvery: 3})
				s1, err := m1.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range parts[:cut] {
					if err := s1.Feed(p); err != nil {
						t.Fatal(err)
					}
				}
				id := s1.ID()
				abandon(m1)
				if tearTail {
					// A kill mid-append leaves a partial frame; recovery
					// must truncate it and keep every acknowledged chunk.
					err := faultinject.AppendBytes(newestSegment(t, dir, id),
						[]byte{0x2a, 0, 0, 0, 0xde, 0xad})
					if err != nil {
						t.Fatal(err)
					}
				}

				reg := telemetry.NewRegistry()
				m2 := durableManager(t, dir, Options{SnapshotEvery: 3, Registry: reg})
				recovered, dropped, err := m2.Recover()
				if err != nil {
					t.Fatal(err)
				}
				if recovered != 1 || dropped != 0 {
					t.Fatalf("%s cut %d: recovered %d dropped %d", cfg.ID(), cut, recovered, dropped)
				}
				wantTorn := int64(0)
				if tearTail {
					wantTorn = 1
				}
				if got := reg.Counter(telemetry.MetricDurableTornTruncations).Value(); got != wantTorn {
					t.Fatalf("%s cut %d: %s = %d, want %d", cfg.ID(), cut, telemetry.MetricDurableTornTruncations, got, wantTorn)
				}
				s2, ok := m2.Get(id)
				if !ok {
					t.Fatalf("%s cut %d: session %s not live after recovery", cfg.ID(), cut, id)
				}
				for _, p := range parts[cut:] {
					if err := s2.Feed(p); err != nil {
						t.Fatal(err)
					}
				}
				sum, ok := m2.Close(id)
				if !ok {
					t.Fatalf("%s cut %d: close failed", cfg.ID(), cut)
				}
				tag := cfg.ID() + "/" + map[bool]string{false: "clean", true: "torn"}[tearTail]
				if sum.Consumed != want.Consumed() {
					t.Fatalf("%s cut %d: consumed %d, want %d", tag, cut, sum.Consumed, want.Consumed())
				}
				if sum.SimComputations != want.SimilarityComputations() {
					t.Errorf("%s cut %d: sim %d, want %d", tag, cut, sum.SimComputations, want.SimilarityComputations())
				}
				if !equalIntervals(sum.Phases, want.Phases()) {
					t.Errorf("%s cut %d: phases %v, want %v", tag, cut, sum.Phases, want.Phases())
				}
				if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
					t.Errorf("%s cut %d: adjusted %v, want %v", tag, cut, sum.AdjustedPhases, want.AdjustedPhases())
				}
				evs, _, _ := s2.EventsSince(0)
				if !equalEvents(evs, wantEvents) {
					t.Errorf("%s cut %d: events diverge:\n got %v\nwant %v", tag, cut, evs, wantEvents)
				}
				// Terminal close removed the durable state.
				if _, err := os.Stat(filepath.Join(dir, "sessions", id)); !os.IsNotExist(err) {
					t.Errorf("%s cut %d: session dir survives close: %v", tag, cut, err)
				}
				m2.Shutdown()
			}
		}
	}
}

// TestDurableShutdownRestoresOpenPhase pins graceful-shutdown persist
// semantics: Shutdown snapshots sessions WITHOUT finishing them, so a
// phase still open (and a buffered partial group) survives the restart
// and the resumed stream stays bit-identical to offline.
func TestDurableShutdownRestoresOpenPhase(t *testing.T) {
	tr := uniformTrace(20000) // keeps one phase open throughout
	cfg := testConfigs()[1]   // skip 32: chunk 8007 leaves a pending group
	want, wantEvents := offline(cfg, tr)

	dir := t.TempDir()
	m1 := durableManager(t, dir, Options{})
	s1, err := m1.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Feed(tr[:8007]); err != nil {
		t.Fatal(err)
	}
	id := s1.ID()
	m1.Shutdown()
	if _, err := os.Stat(filepath.Join(dir, "sessions", id)); err != nil {
		t.Fatalf("session dir missing after persist shutdown: %v", err)
	}

	m2 := durableManager(t, dir, Options{})
	defer m2.Shutdown()
	if recovered, dropped, err := m2.Recover(); err != nil || recovered != 1 || dropped != 0 {
		t.Fatalf("recover: %d/%d, %v", recovered, dropped, err)
	}
	s2, ok := m2.Get(id)
	if !ok {
		t.Fatal("session not live after recovery")
	}
	if err := s2.Feed(tr[8007:]); err != nil {
		t.Fatal(err)
	}
	sum, _ := m2.Close(id)
	if !equalIntervals(sum.Phases, want.Phases()) || !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
		t.Fatalf("resumed phases %v/%v, want %v/%v",
			sum.Phases, sum.AdjustedPhases, want.Phases(), want.AdjustedPhases())
	}
	evs, _, _ := s2.EventsSince(0)
	if !equalEvents(evs, wantEvents) {
		t.Fatalf("resumed events diverge:\n got %v\nwant %v", evs, wantEvents)
	}
}

// TestRecoverDropsSnapshotlessSession pins the bootstrap edge: a session
// that crashed before its first snapshot landed cannot be rebuilt (the
// WAL has no config); recovery drops it and removes its directory.
func TestRecoverDropsSnapshotlessSession(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	log, err := store.Create("0123456789abcdef0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]byte("chunk-without-config"))
	log.Close()

	reg := telemetry.NewRegistry()
	m := durableManager(t, dir, Options{Registry: reg})
	defer m.Shutdown()
	recovered, dropped, err := m.Recover()
	if err != nil || recovered != 0 || dropped != 1 {
		t.Fatalf("recover = %d/%d, %v; want 0 recovered, 1 dropped", recovered, dropped, err)
	}
	if d, r := reg.Counter(telemetry.MetricDurableSessionsDropped).Value(),
		reg.Counter(telemetry.MetricDurableSessionsRecovered).Value(); d != 1 || r != 0 {
		t.Errorf("dropped/recovered counters = %d/%d, want 1/0", d, r)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "0123456789abcdef0123456789abcdef")); !os.IsNotExist(err) {
		t.Fatalf("dropped session dir survives: %v", err)
	}
}

// TestRecoveredSessionsCountActive pins the session gauge across boot
// recovery: recovered sessions count as opened, so the active gauge
// matches Len() after Recover and returns to zero, not below it, once
// they are closed.
func TestRecoveredSessionsCountActive(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	m1 := durableManager(t, dir, Options{})
	var ids []string
	for i := 0; i < n; i++ {
		s, err := m1.Open(testConfigs()[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Feed(phasedTrace(1000)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID())
	}
	abandon(m1)

	reg := telemetry.NewRegistry()
	m2 := durableManager(t, dir, Options{Registry: reg})
	defer m2.Shutdown()
	if recovered, dropped, err := m2.Recover(); err != nil || recovered != n || dropped != 0 {
		t.Fatalf("recover = %d/%d, %v; want %d recovered", recovered, dropped, err, n)
	}
	if got := reg.Counter(telemetry.MetricDurableSessionsRecovered).Value(); got != n {
		t.Errorf("%s = %d, want %d", telemetry.MetricDurableSessionsRecovered, got, n)
	}
	active := reg.Gauge(telemetry.MetricServeSessionsActive)
	if got := active.Value(); got != n || m2.Len() != n {
		t.Fatalf("after recovery: active gauge %v, Len() %d, want both %d", got, m2.Len(), n)
	}
	for _, id := range ids {
		if _, ok := m2.Close(id); !ok {
			t.Fatalf("recovered session %s not live", id)
		}
	}
	opened := reg.Counter(telemetry.MetricServeSessionsOpened).Value()
	closed := reg.Counter(telemetry.MetricServeSessionsClosed).Value()
	if got := active.Value(); got != 0 || m2.Len() != 0 || float64(opened-closed) != got {
		t.Fatalf("after close: active gauge %v, Len() %d, opened %d - closed %d; want 0 and opened - closed == active",
			got, m2.Len(), opened, closed)
	}
}

// TestReadyzGate pins the probe split: a durable server answers liveness
// immediately but 503s /readyz and the whole /v1 API until Recover has
// replayed the data dir.
func TestReadyzGate(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{Store: store})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.manager.Shutdown()
	})
	get := func(path string) int {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before recover: %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz before recover: %d, want 200", got)
	}
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	if _, status := c.open(ConfigRequest{CW: 100}); status != http.StatusServiceUnavailable {
		t.Fatalf("open before recover: %d, want 503", status)
	}
	if _, _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after recover: %d, want 200", got)
	}
	if _, status := c.open(ConfigRequest{CW: 100}); status != http.StatusCreated {
		t.Fatalf("open after recover: %d, want 201", status)
	}
}

// TestPoisonedDeleteReleasesCapacity is the regression test for the
// poisoned-session lifecycle: DELETE of a failed session must succeed,
// report the failure, and release its admission slot.
func TestPoisonedDeleteReleasesCapacity(t *testing.T) {
	const marker = 0.59
	srv, c := newTestServer(t, Options{MaxSessions: 1, NewDetector: panicSeam(marker, 1)})
	id, status := c.open(ConfigRequest{CW: 300, Param: marker})
	if status != http.StatusCreated {
		t.Fatalf("open: %d", status)
	}
	// Poison the session: the injected model panics on a similarity
	// computation within the first chunks.
	poisoned := false
	for _, p := range chunks(phasedTrace(5000), []int{701}) {
		if status, _ := c.sendRaw(id, mustEncode(t, p)); status == http.StatusInternalServerError {
			poisoned = true
			break
		}
	}
	if !poisoned {
		t.Fatal("session never failed")
	}
	// The cap is full until the poisoned session is deleted.
	if _, status := c.open(ConfigRequest{CW: 300}); status != http.StatusTooManyRequests {
		t.Fatalf("open at cap: %d, want 429", status)
	}
	sum := c.closeSession(id)
	if sum.State != StateFailed || sum.Error == "" {
		t.Fatalf("deleted poisoned session: state %q error %q", sum.State, sum.Error)
	}
	if srv.Manager().Len() != 0 {
		t.Fatalf("capacity not released: %d live", srv.Manager().Len())
	}
	if _, status := c.open(ConfigRequest{CW: 300}); status != http.StatusCreated {
		t.Fatalf("open after delete: %d, want 201", status)
	}
}

// TestEventsResumeLastEventID pins SSE-resume wiring: the Last-Event-ID
// header advances the cursor past the named event, on both the polling
// and streaming forms, and streamed events carry id: lines.
func TestEventsResumeLastEventID(t *testing.T) {
	_, c := newTestServer(t, Options{})
	id, _ := c.open(ConfigRequest{CW: 300})
	for _, p := range chunks(phasedTrace(15000), []int{1024}) {
		c.send(id, p)
	}
	all, _, _ := c.poll(id, 0)
	if len(all) < 3 {
		t.Fatalf("trace produced only %d events", len(all))
	}

	// Polling form: the header acts like ?since=<id+1>.
	req, _ := http.NewRequest(http.MethodGet, c.base+"/v1/sessions/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", "1")
	resp, err := c.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Events []Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Events) == 0 || out.Events[0].Seq != 2 {
		t.Fatalf("Last-Event-ID poll: first seq %v, want 2", out.Events)
	}

	// Streaming form: events resume after the id and carry id: lines.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/sessions/"+id+"/events?stream=1", nil)
	req.Header.Set("Last-Event-ID", "1")
	resp, err = c.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var idLine string
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "id: ") {
			idLine = strings.TrimPrefix(sc.Text(), "id: ")
			break
		}
	}
	if idLine != "2" {
		t.Fatalf("first streamed id %q, want 2", idLine)
	}
	cancel()
	c.closeSession(id)
}

// TestDurableHTTPRecovery drives the crash-restart cycle through the
// HTTP surface: sessions opened and fed on server A are live again on
// server B (same data dir) with their cursors intact.
func TestDurableHTTPRecovery(t *testing.T) {
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
	for _, p := range parts[:half] {
		cA.send(id, p)
	}
	seen, cursor, _ := cA.poll(id, 0)
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
	for _, p := range parts[half:] {
		cB.send(id, p)
	}
	// The poll cursor from before the crash stays valid: no replayed
	// duplicates, no gaps.
	rest, _, _ := cB.poll(id, cursor)
	got := append(seen, rest...)
	sum := cB.closeSession(id)
	if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
		t.Errorf("adjusted phases %v, want %v", sum.AdjustedPhases, want.AdjustedPhases())
	}
	if sum.EventsTotal != uint64(len(wantEvents)) {
		t.Errorf("events_total %d, want %d", sum.EventsTotal, len(wantEvents))
	}
	if len(got) > len(wantEvents) || !equalEvents(got, wantEvents[:len(got)]) {
		t.Errorf("cross-restart event log diverges:\n got %v\nwant %v", got, wantEvents)
	}
}
