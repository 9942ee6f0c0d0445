package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

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
