package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"opd/internal/core"
	"opd/internal/durable"
	"opd/internal/trace"
)

// FuzzStreamHandshake drives the post-upgrade framed-stream protocol
// with arbitrary client bytes, starting at the hello/hello-ack
// handshake: malformed JSON hellos, oversized payloads, cursor
// overflows, wrong first frames, and torn frame headers. The server
// must never panic or hang — every input ends with serveStream
// returning and the session still usable (or cleanly closed).
func FuzzStreamHandshake(f *testing.F) {
	helloFrame := func(h streamHello) []byte {
		payload, err := json.Marshal(h)
		if err != nil {
			f.Fatal(err)
		}
		return trace.AppendFrame(nil, trace.FrameHello, payload)
	}
	f.Add(helloFrame(streamHello{Mode: "branch"}))
	f.Add(helloFrame(streamHello{Mode: "ids", EventsSince: 5}))
	// Cursor overflow: resume from the far end of the sequence space.
	f.Add(helloFrame(streamHello{Mode: "ids", EventsSince: math.MaxUint64}))
	f.Add(helloFrame(streamHello{Mode: "nonsense"}))
	// Malformed JSON and a payload far past any sane hello size.
	f.Add(trace.AppendFrame(nil, trace.FrameHello, []byte(`{"mode":`)))
	f.Add(trace.AppendFrame(nil, trace.FrameHello, make([]byte, 1<<16)))
	// Wrong first frame, then raw bytes that are not a frame at all.
	f.Add(trace.AppendFrame(nil, trace.FrameData, []byte("junk")))
	f.Add([]byte{0x00, 0x01, 0x02})
	// A full valid exchange: hello, then end-without-finish.
	f.Add(append(helloFrame(streamHello{Mode: "branch"}),
		trace.AppendFrame(nil, trace.FrameEnd, []byte{0})...))

	// One server for every exec: the janitor, watchdog, and heartbeat
	// are disabled so nothing races the deterministic byte replay.
	srv := NewServer(Options{
		IdleTimeout:        -1,
		MaxAge:             -1,
		SweepInterval:      time.Hour,
		HeartbeatInterval:  -1,
		StreamWriteTimeout: -1,
		SSEWriteTimeout:    -1,
		WatchdogDeadline:   -1,
	})
	defer srv.manager.Shutdown()
	cfg, err := ConfigRequest{CW: 64}.Config()
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sess, err := srv.manager.Open(cfg)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		client, server := net.Pipe()
		sc := &streamConn{s: srv, sess: sess, conn: server,
			rbuf: bufio.NewReader(server), bw: bufio.NewWriter(server)}
		fr := trace.NewFrameReader(sc.rbuf, int(srv.manager.opts.MaxChunkBytes))
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.serveStream(sc, fr)
			// serveStream may return before its own conn-closing defer is
			// armed (pre-handshake failures): close here to unblock the
			// client writer below.
			server.Close()
		}()
		// Discard everything the server says; the pipe is synchronous, so
		// without a drain the server's hello-ack write would deadlock
		// against the client's payload write.
		go func() { _, _ = io.Copy(io.Discard, client) }()
		_, _ = client.Write(data)
		client.Close()
		<-done
		_, _ = srv.manager.Close(sess.ID())
	})
}

// FuzzAdopt drives adoption, the one decoder of untrusted cross-node
// input: the migration blob, the session snapshot inside it, and the WAL
// records replayed on top. Adopt must never panic, a refused blob must
// leave the session count and the byte accountant where they were, and
// closing an adopted session must return both to their earlier values.
func FuzzAdopt(f *testing.F) {
	for _, name := range []string{"parent-branch.migr", "parent-ids.migr"} {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// One manager for every exec, with the janitor and watchdog out of
	// the way so nothing but Adopt and Close moves the counts.
	m := NewManager(Options{
		IdleTimeout:      -1,
		MaxAge:           -1,
		SweepInterval:    time.Hour,
		WatchdogDeadline: -1,
	})
	defer m.Shutdown()
	cfg, err := ConfigRequest{CW: 64}.Config()
	if err != nil {
		f.Fatal(err)
	}
	seed, err := m.Open(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := seed.Feed(phasedTrace(2000)); err != nil {
		f.Fatal(err)
	}
	exported, err := m.Export(seed.ID(), true)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(exported)
	// A branch record with bytes after its last element, which replay
	// must refuse as ingest does.
	bad, _ := trailingBytesBlob(f)
	f.Add(bad)

	f.Fuzz(func(t *testing.T, blob []byte) {
		n, used := m.Len(), m.MemUsed()
		s, err := m.Adopt("fuzz", blob)
		if err == nil {
			if _, ok := m.Close(s.ID()); !ok {
				t.Fatal("adopted session not live")
			}
		}
		if m.Len() != n || m.MemUsed() != used {
			t.Fatalf("adopt (err %v) then close moved the counts: sessions %d -> %d, accounted bytes %d -> %d",
				err, n, m.Len(), used, m.MemUsed())
		}
	})
}

// ingestKinds maps FuzzIngest's kind byte (mod 3) to a record kind.
var ingestKinds = [3]trace.FrameType{trace.FrameData, trace.FrameIDs, trace.FrameSyms}

// fuzzRecord encodes one FuzzIngest record: the kind byte, a u16le
// payload length, the payload.
func fuzzRecord(kind byte, payload []byte) []byte {
	rec := binary.LittleEndian.AppendUint16([]byte{kind}, uint16(len(payload)))
	return append(rec, payload...)
}

// ingestState is what a refused record must leave untouched.
type ingestState struct {
	applied  uint64
	consumed int64
	symbols  int
	walNext  uint64
	memUsed  int64
}

func readIngestState(m *Manager, s *Session) ingestState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ingestState{s.applied, s.det.Consumed(), len(s.det.Symbols()), s.log.NextIndex(), m.MemUsed()}
}

// FuzzIngest feeds one durable session a fuzzed sequence of records
// through Session.ingest, the path every POST body, stream frame and
// replayed WAL record takes. The first input byte's low bit latches the
// session into dense-ID mode; the rest is a sequence of records, each a
// kind byte (data, IDs or syms, mod 3), a u16le length and that many
// payload bytes (fewer when the input runs out). Ingest must never
// panic. A refused record must leave the resume cursor, the consumed
// count, the symbol table, the WAL's next index and the byte accountant
// where they were, which pins decoding and checking before the WAL
// append. Abandoning the manager and recovering it must then rebuild the
// live session's consumed count, cursor, event log and table.
func FuzzIngest(f *testing.F) {
	tr := phasedTrace(120)
	f.Add(append([]byte{0}, fuzzRecord(0, trace.AppendBranches(nil, tr))...))
	b := trace.NewInternedBuilder(0)
	ids := make([]int32, 0, len(tr))
	for _, e := range tr {
		ids = append(ids, b.Intern(e))
	}
	f.Add(slices.Concat([]byte{1},
		fuzzRecord(2, trace.AppendSymsPayload(nil, 0, b.Symbols())),
		fuzzRecord(1, trace.AppendIDsPayload(nil, ids))))
	// A branch chunk with bytes after its last element, then an intact one.
	f.Add(slices.Concat([]byte{0},
		fuzzRecord(0, append(trace.AppendBranches(nil, tr[:60]), 0x02, 0x04)),
		fuzzRecord(0, trace.AppendBranches(nil, tr[60:]))))

	cfg := core.Config{CWSize: 16, SkipFactor: 1, TW: core.ConstantTW,
		Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.6}
	// The janitor and watchdog stay out of the way so nothing but ingest
	// moves the session.
	opts := Options{IdleTimeout: -1, MaxAge: -1, SweepInterval: time.Hour,
		WatchdogDeadline: -1, SnapshotEvery: 3}
	manager := func(t *testing.T, dir string) *Manager {
		store, err := durable.Open(durable.Options{Dir: dir, Policy: durable.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Store = store
		return NewManager(o)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dir := t.TempDir()
		m := manager(t, dir)
		s, err := m.Open(cfg)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if data[0]&1 == 1 {
			if _, err := s.StreamHello(true); err != nil {
				t.Fatalf("hello: %v", err)
			}
		}
		var sc ingestScratch
		for rest := data[1:]; len(rest) >= 3; {
			kind := ingestKinds[rest[0]%3]
			n := min(int(binary.LittleEndian.Uint16(rest[1:])), len(rest)-3)
			payload := rest[3 : 3+n]
			rest = rest[3+n:]
			before := readIngestState(m, s)
			if err := s.ingest(0, kind, payload, &sc, nil); err != nil {
				if after := readIngestState(m, s); after != before {
					t.Fatalf("refused %s record (%v) moved the session: %+v -> %+v", kind, err, before, after)
				}
			}
		}
		live := readIngestState(m, s)
		liveEvents, _, _ := s.EventsSince(0)
		liveTable := slices.Clone(s.det.Symbols())
		abandon(m)
		// Release the abandoned log's file handle: its bytes already
		// reached the OS, which is all a kill -9 would leave.
		_ = s.log.Close()

		m2 := manager(t, dir)
		defer m2.Shutdown()
		if recovered, dropped, err := m2.Recover(); err != nil || recovered != 1 || dropped != 0 {
			t.Fatalf("recover: recovered %d dropped %d err %v", recovered, dropped, err)
		}
		r, ok := m2.Get(s.ID())
		if !ok {
			t.Fatal("session not recovered")
		}
		got := readIngestState(m2, r)
		if got.applied != live.applied || got.consumed != live.consumed {
			t.Fatalf("recovered cursor %d consumed %d, live %d and %d",
				got.applied, got.consumed, live.applied, live.consumed)
		}
		if evs, _, _ := r.EventsSince(0); !equalEvents(evs, liveEvents) {
			t.Fatalf("recovered events diverge:\n got %v\nlive %v", evs, liveEvents)
		}
		if !slices.Equal(r.det.Symbols(), liveTable) {
			t.Fatalf("recovered table of %d symbols, live %d", len(r.det.Symbols()), len(liveTable))
		}
	})
}
