package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"opd/internal/core"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// ---- HTTP helpers for the migration endpoints ----

// export pulls a session's migration blob over HTTP.
func (c *client) export(id string, remove bool) (blob []byte, status int) {
	c.t.Helper()
	url := c.base + "/v1/sessions/" + id + "/export"
	if remove {
		url += "?remove=1"
	}
	resp, err := c.http.Post(url, "", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err = io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return blob, resp.StatusCode
}

// adopt offers a migration blob to the server.
func (c *client) adopt(id string, blob []byte) int {
	c.t.Helper()
	resp, err := c.http.Post(c.base+"/v1/sessions/"+id+"/adopt",
		"application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// migrate moves a session from donor to adoptee over the HTTP surface,
// asserting both halves succeed.
func migrate(t *testing.T, donor, adoptee *client, id string) {
	t.Helper()
	blob, status := donor.export(id, true)
	if status != http.StatusOK {
		t.Fatalf("export: status %d", status)
	}
	if status := adoptee.adopt(id, blob); status != http.StatusCreated {
		t.Fatalf("adopt: status %d", status)
	}
}

// TestMigrateRoundTrip is the migration equivalence proof: a session
// whose trace is fed across three nodes — migrated mid-stream A→B and
// then B→A via export?remove=1 + adopt — must finish with a summary and
// event log bit-identical to an uninterrupted offline pass. This is the
// property the cluster gateway's drain path is built on.
func TestMigrateRoundTrip(t *testing.T) {
	tr := phasedTrace(20000)
	_, cA := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
	_, cB := newTestServer(t, Options{Registry: telemetry.NewRegistry()})

	reqs := []ConfigRequest{
		{CW: 300, Param: 0.6},
		{CW: 400, TW: 600, Skip: 32, Policy: "adaptive", Model: "weighted", Param: 0.5},
		{CW: 256, Policy: "fixedinterval", Analyzer: "average", Param: 0.3},
	}
	for _, req := range reqs {
		cfg, err := req.Config()
		if err != nil {
			t.Fatal(err)
		}
		want, wantEvents := offline(cfg, tr)
		id, status := cA.open(req)
		if status != http.StatusCreated {
			t.Fatalf("open: status %d", status)
		}
		parts := chunks(tr, []int{1009})
		for i, p := range parts {
			switch i {
			case len(parts) / 3:
				migrate(t, cA, cB, id)
			case 2 * len(parts) / 3:
				migrate(t, cB, cA, id) // and back: adoption must free the ID
			}
			home := cA
			if i >= len(parts)/3 && i < 2*len(parts)/3 {
				home = cB
			}
			home.send(id, p)
		}
		evs, next, _ := cA.poll(id, 0)
		sum := cA.closeSession(id)
		if sum.Consumed != want.Consumed() {
			t.Fatalf("%s: consumed %d, want %d", cfg.ID(), sum.Consumed, want.Consumed())
		}
		if sum.SimComputations != want.SimilarityComputations() {
			t.Errorf("%s: sim %d, want %d", cfg.ID(), sum.SimComputations, want.SimilarityComputations())
		}
		if !equalIntervals(sum.Phases, want.Phases()) {
			t.Errorf("%s: phases %v, want %v", cfg.ID(), sum.Phases, want.Phases())
		}
		if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
			t.Errorf("%s: adjusted %v, want %v", cfg.ID(), sum.AdjustedPhases, want.AdjustedPhases())
		}
		// The event log survives both migrations with original sequence
		// numbers: everything emitted before the final close...
		if want := wantEvents[:next]; !equalEvents(evs, want) {
			t.Errorf("%s: pre-close events diverge:\n got %v\nwant %v", cfg.ID(), evs, want)
		}
		// ...and the close's trailing flush lines up with the total.
		if sum.EventsTotal != uint64(len(wantEvents)) {
			t.Errorf("%s: events_total %d, want %d", cfg.ID(), sum.EventsTotal, len(wantEvents))
		}
	}
}

// TestMigrateRoundTripDurable pins the durable migration path: a donor
// with a WAL tail past its last on-disk snapshot exports a snapshot of
// its live state, the adoptee re-persists it, and a crash on the adoptee
// right after adoption recovers the migrated state exactly.
func TestMigrateRoundTripDurable(t *testing.T) {
	tr := phasedTrace(20000)
	cfg := core.Config{CWSize: 400, TWSize: 600, SkipFactor: 32, TW: core.AdaptiveTW,
		Anchor: core.AnchorRN, Resize: core.ResizeSlide, Model: core.WeightedModel,
		Analyzer: core.ThresholdAnalyzer, Param: 0.5}
	want, wantEvents := offline(cfg, tr)

	dirB := t.TempDir()
	mA := durableManager(t, t.TempDir(), Options{SnapshotEvery: 4})
	defer mA.Shutdown()
	mB := durableManager(t, dirB, Options{SnapshotEvery: 4})

	s, err := mA.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	parts := chunks(tr, []int{1009})
	cut := len(parts) / 2 // SnapshotEvery 4 leaves a WAL tail past the last snapshot
	for _, p := range parts[:cut] {
		if err := s.Feed(p); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := mA.Export(id, true)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if _, err := mB.Adopt(id, blob); err != nil {
		t.Fatalf("adopt: %v", err)
	}

	// Crash the adoptee before it applies anything more: adoption must
	// already be as durable as home-grown state.
	abandon(mB)
	mB2 := durableManager(t, dirB, Options{SnapshotEvery: 4})
	defer mB2.Shutdown()
	if recovered, dropped, err := mB2.Recover(); err != nil || recovered != 1 || dropped != 0 {
		t.Fatalf("recover after adopt: recovered %d dropped %d err %v", recovered, dropped, err)
	}
	s2, ok := mB2.Get(id)
	if !ok {
		t.Fatal("adopted session not live after crash recovery")
	}
	for _, p := range parts[cut:] {
		if err := s2.Feed(p); err != nil {
			t.Fatal(err)
		}
	}
	sum, ok := mB2.Close(id)
	if !ok {
		t.Fatal("close failed")
	}
	if sum.Consumed != want.Consumed() {
		t.Fatalf("consumed %d, want %d", sum.Consumed, want.Consumed())
	}
	if sum.SimComputations != want.SimilarityComputations() {
		t.Errorf("sim %d, want %d", sum.SimComputations, want.SimilarityComputations())
	}
	if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
		t.Errorf("adjusted %v, want %v", sum.AdjustedPhases, want.AdjustedPhases())
	}
	evs, _, _ := s2.EventsSince(0)
	if !equalEvents(evs, wantEvents) {
		t.Errorf("events diverge:\n got %v\nwant %v", evs, wantEvents)
	}
}

// TestMigrateDonorTombstone pins the donor's post-export behavior: the
// session is gone from the manager, a held pointer answers ErrMigrated
// (retryable — the client redials and lands on the new home), and its
// event stream reports terminated without the "session closed" marker.
func TestMigrateDonorTombstone(t *testing.T) {
	srv, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
	id, _ := c.open(ConfigRequest{CW: 300})
	sess, ok := srv.manager.Get(id)
	if !ok {
		t.Fatal("session not found")
	}
	c.send(id, phasedTrace(2000))

	blob, status := c.export(id, true)
	if status != http.StatusOK || len(blob) == 0 {
		t.Fatalf("export: status %d, %d bytes", status, len(blob))
	}
	if _, ok := srv.manager.Get(id); ok {
		t.Fatal("exported session still in the manager")
	}
	if err := sess.Feed(phasedTrace(10)); !errors.Is(err, ErrMigrated) {
		t.Fatalf("feed after export: %v, want ErrMigrated", err)
	}
	if !sess.Migrated() {
		t.Fatal("session does not report Migrated")
	}
	if _, _, terminated := sess.EventsSince(0); !terminated {
		t.Fatal("migrated session's event stream not terminated")
	}
	if _, status := c.export(id, true); status != http.StatusNotFound {
		t.Fatalf("second export: status %d, want 404", status)
	}
	if evs, _, _ := c.poll(id, 0); evs != nil {
		t.Fatalf("poll after export returned events: %v", evs)
	}
}

// TestAdoptRejections pins the adopt endpoint's refusal matrix: corrupt
// and truncated blobs are rejected without leaking an admission slot,
// and a duplicate ID answers 409 so the gateway can treat "already
// there" as success.
func TestAdoptRejections(t *testing.T) {
	srv, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
	id, _ := c.open(ConfigRequest{CW: 300})
	c.send(id, phasedTrace(2000))
	blob, _ := c.export(id, false)

	if status := c.adopt(id, blob); status != http.StatusConflict {
		t.Fatalf("adopt over a live session: status %d, want 409", status)
	}
	if status := c.adopt("fresh-id", []byte("not a migration blob")); status != http.StatusBadRequest {
		t.Fatalf("adopt garbage: status %d, want 400", status)
	}
	for _, cut := range []int{1, 8, len(blob) / 2, len(blob) - 1} {
		if status := c.adopt("fresh-id", blob[:cut]); status != http.StatusBadRequest {
			t.Fatalf("adopt truncated[:%d]: status %d, want 400", cut, status)
		}
	}
	if status := c.adopt("fresh-id", append(append([]byte(nil), blob...), 0)); status != http.StatusBadRequest {
		t.Fatalf("adopt with trailing bytes: status %d, want 400", status)
	}
	before := srv.manager.Len()
	if _, err := srv.manager.Adopt("bad/id", blob); err == nil {
		t.Fatal("adopt under an invalid id succeeded")
	}
	if srv.manager.Len() != before {
		t.Fatalf("failed adopts moved the session count: %d -> %d", before, srv.manager.Len())
	}
}

// TestAdoptEvictRaceAccounting hammers adoption, ingest, close, and
// export against a janitor that is permanently pressure-evicting (the
// memory budget is far below one session's base cost). Run under -race
// this is the double-release detector for the admission accountant: when
// the storm ends and every survivor is closed, the session count and the
// byte accountant must both be exactly zero — an eviction racing an
// adopt or DELETE must release each session's capacity once, never twice
// and never zero times.
func TestAdoptEvictRaceAccounting(t *testing.T) {
	m := NewManager(Options{
		Registry:       telemetry.NewRegistry(),
		MemBudgetBytes: 1, // soft watermark permanently exceeded
		SweepInterval:  2 * time.Millisecond,
		IdleTimeout:    -1,
	})
	defer m.Shutdown()

	cfg := core.Config{CWSize: 64, SkipFactor: 1, TW: core.ConstantTW,
		Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.6}
	// Template blob: a fed session exported once, adopted under many IDs.
	seed, err := m.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Feed(phasedTrace(500)); err != nil {
		t.Fatal(err)
	}
	blob, err := m.Export(seed.ID(), true)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	deadline := time.Now().Add(600 * time.Millisecond)
	var wg sync.WaitGroup
	var idMu sync.Mutex
	var opened []string
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chunk := phasedTrace(200)
			for i := 0; time.Now().Before(deadline); i++ {
				var s *Session
				var err error
				if i%2 == 0 {
					s, err = m.Adopt(NewSessionID(), blob)
				} else {
					s, err = m.Open(cfg)
				}
				if err != nil {
					continue // shed by admission: fine under pressure
				}
				idMu.Lock()
				opened = append(opened, s.ID())
				idMu.Unlock()
				// Feed races the janitor's eviction of this session.
				_ = s.Feed(chunk)
				switch i % 3 {
				case 0:
					m.Close(s.ID()) // races pressure-evict
				case 1:
					_, _ = m.Export(s.ID(), true) // races pressure-evict
					// case 2: leave it for the janitor.
				}
			}
		}(w)
	}
	wg.Wait()

	// Close every survivor; after that the accountant must be at zero.
	for _, id := range opened {
		m.Close(id) // most are already gone: evicted, closed, or exported
	}
	settle := time.Now().Add(2 * time.Second)
	for (m.Len() != 0 || m.MemUsed() != 0) && time.Now().Before(settle) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := m.Len(); n != 0 {
		t.Errorf("session count settled at %d, want 0", n)
	}
	if used := m.MemUsed(); used != 0 {
		t.Errorf("byte accountant settled at %d, want 0 (double or missed release)", used)
	}
}

// migrationBlob assembles an OPDMIGR1 blob from a session snapshot and
// WAL records, as nodes that exported on-disk state used to.
func migrationBlob(snapshot []byte, records ...[]byte) []byte {
	blob := encodeMigration(snapshot)
	blob = blob[:len(blob)-1] // drop the empty record count
	blob = binary.AppendUvarint(blob, uint64(len(records)))
	for _, r := range records {
		blob = binary.AppendUvarint(blob, uint64(len(r)))
		blob = append(blob, r...)
	}
	return blob
}

// trailingBytesBlob returns a migration blob of a branch-mode session
// (CW 64, fed 1000 elements of phasedTrace) whose second WAL record is a
// branch chunk with two bytes after its last element — a record ingest
// refuses — and the same blob with that record intact.
func trailingBytesBlob(t testing.TB) (bad, good []byte) {
	t.Helper()
	m := NewManager(Options{Registry: telemetry.NewRegistry()})
	defer m.Shutdown()
	cfg, err := ConfigRequest{CW: 64}.Config()
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := phasedTrace(1600)
	if err := s.Feed(tr[:1000]); err != nil {
		t.Fatal(err)
	}
	exported, err := m.Export(s.ID(), false)
	if err != nil {
		t.Fatal(err)
	}
	snapshot, _, err := decodeMigration(exported)
	if err != nil {
		t.Fatal(err)
	}
	first, second := trace.AppendBranches(nil, tr[1000:1300]), trace.AppendBranches(nil, tr[1300:1600])
	damaged := append(append([]byte(nil), second...), 0x02, 0x04)
	return migrationBlob(snapshot, first, damaged), migrationBlob(snapshot, first, second)
}

// TestReplayAcceptsWhatIngestAccepts pins replay to ingest's decoder: a
// branch WAL record with bytes after its last element, which ingest
// rejects, must not replay either. Adoption refuses the blob and leaves
// the session count and the byte accountant untouched; at boot the
// record ends the replayed prefix.
func TestReplayAcceptsWhatIngestAccepts(t *testing.T) {
	bad, good := trailingBytesBlob(t)
	m := NewManager(Options{Registry: telemetry.NewRegistry()})
	defer m.Shutdown()
	n, used := m.Len(), m.MemUsed()
	if _, err := m.Adopt("trailing", bad); err == nil {
		t.Fatal("adopt accepted a branch record with trailing bytes")
	}
	if m.Len() != n || m.MemUsed() != used {
		t.Fatalf("refused adopt moved the counts: sessions %d -> %d, accounted bytes %d -> %d",
			n, m.Len(), used, m.MemUsed())
	}
	s, err := m.Adopt("intact", good)
	if err != nil {
		t.Fatalf("adopt of the intact blob: %v", err)
	}
	if c, _, _ := s.Progress(); c != 1600 {
		t.Fatalf("intact blob adopted at %d elements, want 1600", c)
	}

	// Boot: the same damaged record sits between two intact ones in a
	// crashed session's WAL tail; replay keeps only the record before it.
	dir := t.TempDir()
	m1 := durableManager(t, dir, Options{SnapshotEvery: 1000})
	cfg, err := ConfigRequest{CW: 64}.Config()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := m1.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := phasedTrace(1600)
	if err := s1.Feed(tr[:1000]); err != nil {
		t.Fatal(err)
	}
	damaged := append(trace.AppendBranches(nil, tr[1000:1300]), 0x02, 0x04)
	for _, rec := range [][]byte{damaged, trace.AppendBranches(nil, tr[1300:1600])} {
		if _, err := s1.log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	id := s1.ID()
	abandon(m1)
	m2 := durableManager(t, dir, Options{SnapshotEvery: 1000})
	defer m2.Shutdown()
	if recovered, dropped, err := m2.Recover(); err != nil || recovered != 1 || dropped != 0 {
		t.Fatalf("recover: recovered %d dropped %d err %v", recovered, dropped, err)
	}
	s2, ok := m2.Get(id)
	if !ok {
		t.Fatal("session not recovered")
	}
	if c, _, _ := s2.Progress(); c != 1000 {
		t.Fatalf("boot replayed through the damaged record: %d elements, want 1000", c)
	}
}
