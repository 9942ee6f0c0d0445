package serve

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"opd/internal/telemetry"
)

// killableProxy is a TCP relay in front of the test server whose live
// connections can be severed on demand — the reliability layer under
// test must redial through it and resume.
type killableProxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newKillableProxy(t *testing.T, target string) *killableProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killableProxy{ln: ln, target: target, conns: map[net.Conn]struct{}{}}
	go p.serve()
	t.Cleanup(func() { ln.Close(); p.killAll() })
	return p
}

func (p *killableProxy) addr() string { return p.ln.Addr().String() }

func (p *killableProxy) serve() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns[c] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		relay := func(dst, src net.Conn) {
			io.Copy(dst, src)
			dst.Close()
			src.Close()
			p.mu.Lock()
			delete(p.conns, dst)
			delete(p.conns, src)
			p.mu.Unlock()
		}
		go relay(up, c)
		go relay(c, up)
	}
}

// killAll severs every live relayed connection.
func (p *killableProxy) killAll() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// fastPolicy keeps retry sleeps test-sized.
func fastPolicy() RetryPolicy {
	return RetryPolicy{Backoff: Backoff{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond}}
}

// TestOpenSessionShed pins the admission-retry contract: opens past the
// session cap observe 429 + Retry-After through OnShed, a bounded
// budget ends in ErrRetriesExhausted, and an unbounded open succeeds as
// soon as the cap frees.
func TestOpenSessionShed(t *testing.T) {
	_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry(), MaxSessions: 1})
	first, status := c.open(ConfigRequest{CW: 200})
	if status != http.StatusCreated {
		t.Fatalf("open: status %d", status)
	}

	var sheds []int
	var hints []time.Duration
	pol := fastPolicy()
	pol.MaxRetries = 3
	_, err := OpenSession(nil, c.base, ConfigRequest{CW: 200}, OpenOptions{
		RetryPolicy: pol,
		OnShed: func(status int, retryAfter time.Duration) {
			sheds = append(sheds, status)
			hints = append(hints, retryAfter)
		},
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("open past the cap: %v, want ErrRetriesExhausted", err)
	}
	if len(sheds) != 3 {
		t.Fatalf("observed %d sheds with a 3-attempt budget, want 3", len(sheds))
	}
	for i, s := range sheds {
		if s != http.StatusTooManyRequests {
			t.Errorf("shed %d: status %d, want 429", i, s)
		}
		if hints[i] <= 0 {
			t.Errorf("shed %d: no Retry-After delay surfaced", i)
		}
	}

	// Free the cap mid-retry: an unbounded open must recover on its own.
	done := make(chan error, 1)
	go func() {
		_, err := OpenSession(nil, c.base, ConfigRequest{CW: 200}, OpenOptions{RetryPolicy: fastPolicy()})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.closeSession(first)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("open after the cap freed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("open did not succeed after the cap freed")
	}
}

// TestOpenSessionFatal pins that non-transient refusals fail immediately
// rather than retry (a 413 config cannot become valid by waiting).
func TestOpenSessionFatal(t *testing.T) {
	_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry(), MaxWindowElems: 100})
	pol := fastPolicy()
	pol.MaxRetries = 5
	shed := 0
	_, err := OpenSession(nil, c.base, ConfigRequest{CW: 5000, TW: 5000}, OpenOptions{
		RetryPolicy: pol,
		OnShed:      func(int, time.Duration) { shed++ },
	})
	if err == nil || errors.Is(err, ErrRetriesExhausted) || shed != 0 {
		t.Fatalf("oversized config: err %v, %d sheds; want an immediate non-retry failure", err, shed)
	}
}

// TestReliableStreamReconnectResume is the extraction proof for the
// streamdetect reconnect loop: connections severed mid-pipeline (and
// mid-drain) are redialed transparently, the summary stays bit-identical
// to the offline pass, and events arrive exactly once across however
// many connections it took.
func TestReliableStreamReconnectResume(t *testing.T) {
	tr := phasedTrace(20000)
	req := ConfigRequest{CW: 400, TW: 600, Skip: 32, Policy: "adaptive", Model: "weighted", Param: 0.5}
	cfg, _ := req.Config()
	want, wantEvents := offline(cfg, tr)
	parts := chunks(tr, []int{777})

	for _, ids := range []bool{true, false} {
		name := "branch"
		if ids {
			name = "ids"
		}
		t.Run(name, func(t *testing.T) {
			_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
			proxy := newKillableProxy(t, streamAddr(c))
			id, status := c.open(req)
			if status != http.StatusCreated {
				t.Fatalf("open: status %d", status)
			}

			var sink eventSink
			var redials int
			rs, err := DialReliable(proxy.addr(), id, ReliableOptions{
				RetryPolicy: fastPolicy(),
				IDs:         ids,
				OnEvent:     sink.add,
				OnReconnect: func(int, error) { redials++ },
			})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer rs.Close()

			for i, p := range parts {
				if err := rs.Send(p); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				switch i {
				case len(parts) / 3:
					proxy.killAll() // mid-pipeline, acks outstanding
				case 2 * len(parts) / 3:
					if err := rs.Drain(); err != nil {
						t.Fatalf("drain: %v", err)
					}
					proxy.killAll() // on a drained boundary
				}
			}
			sum, err := rs.End(true)
			if err != nil {
				t.Fatalf("end: %v", err)
			}
			if rs.Reconnects() < 2 || redials < 2 {
				t.Errorf("severed twice but reconnects=%d redial hooks=%d", rs.Reconnects(), redials)
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

// TestReliableStreamSessionGone pins that a vanished session surfaces
// ErrSessionGone instead of retrying forever.
func TestReliableStreamSessionGone(t *testing.T) {
	_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
	_, err := DialReliable(streamAddr(c), "no-such-session", ReliableOptions{RetryPolicy: fastPolicy()})
	if !errors.Is(err, ErrSessionGone) {
		t.Fatalf("dial to a missing session: %v, want ErrSessionGone", err)
	}
}

// TestWatchEventsResume pins the SSE consumer: severed connections
// resume via Last-Event-ID with no loss or duplication, and the
// terminal end event returns nil.
func TestWatchEventsResume(t *testing.T) {
	tr := phasedTrace(20000)
	req := ConfigRequest{CW: 400, TW: 600, Skip: 32, Policy: "adaptive", Model: "weighted", Param: 0.5}
	cfg, _ := req.Config()
	_, wantEvents := offline(cfg, tr)
	if len(wantEvents) == 0 {
		t.Fatal("trace produces no events; test is vacuous")
	}

	_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
	proxy := newKillableProxy(t, streamAddr(c))
	id, status := c.open(req)
	if status != http.StatusCreated {
		t.Fatalf("open: status %d", status)
	}

	var sink eventSink
	done := make(chan error, 1)
	go func() {
		done <- WatchEvents(nil, "http://"+proxy.addr(), id, WatchOptions{
			RetryPolicy: fastPolicy(),
			OnEvent:     sink.add,
		})
	}()

	parts := chunks(tr, []int{1009})
	for i, p := range parts {
		c.send(id, p)
		if i == len(parts)/2 {
			// Give the watcher a beat to be mid-stream, then sever it.
			time.Sleep(50 * time.Millisecond)
			proxy.killAll()
		}
	}
	// Let the watcher catch back up to the events emitted so far before
	// closing: a watcher still in reconnect backoff when the session is
	// deleted finds a 404 instead of the terminal event (retained events
	// die with the session). The close itself emits the trailing
	// phase_end, which the reconnected watcher receives live.
	_, emitted, _ := c.poll(id, 0)
	catchup := time.Now().Add(10 * time.Second)
	for uint64(len(sink.events())) < emitted && time.Now().Before(catchup) {
		time.Sleep(10 * time.Millisecond)
	}
	if uint64(len(sink.events())) < emitted {
		t.Fatalf("watcher stuck at %d of %d events after reconnect", len(sink.events()), emitted)
	}
	c.closeSession(id)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("watch: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("watcher did not observe the terminal event")
	}
	if got := sink.events(); !equalEvents(got, wantEvents) {
		t.Errorf("resumed event log diverges (%d events, want %d):\n got %v\nwant %v",
			len(got), len(wantEvents), got, wantEvents)
	}
}

// TestWatchEventsGone pins the 404 path.
func TestWatchEventsGone(t *testing.T) {
	_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
	err := WatchEvents(nil, c.base, "no-such-session", WatchOptions{RetryPolicy: fastPolicy()})
	if !errors.Is(err, ErrSessionGone) {
		t.Fatalf("watch on a missing session: %v, want ErrSessionGone", err)
	}
}

// TestParseRetryAfter pins both RFC 9110 Retry-After forms — delta
// seconds and HTTP-date (all three layouts http.ParseTime accepts) —
// plus the malformed fallbacks.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		v    string
		want time.Duration
		ok   bool
	}{
		{"delta", "120", 120 * time.Second, true},
		{"delta zero", "0", 0, true},
		{"delta padded", "  7 ", 7 * time.Second, true},
		{"delta negative", "-5", 0, false},
		{"http-date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{"http-date past", now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"rfc850 future", now.Add(2 * time.Minute).Format("Monday, 02-Jan-06 15:04:05 MST"), 2 * time.Minute, true},
		{"asctime future", now.Add(time.Minute).Format(time.ANSIC), time.Minute, true},
		{"empty", "", 0, false},
		{"garbage", "soon", 0, false},
		{"fractional", "1.5", 0, false},
		{"bad date", "Fri, 99 Aug 2026 12:00:00 GMT", 0, false},
	}
	for _, tc := range cases {
		got, ok := ParseRetryAfter(tc.v, now)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: ParseRetryAfter(%q) = (%v, %v), want (%v, %v)",
				tc.name, tc.v, got, ok, tc.want, tc.ok)
		}
	}
}

// TestRetryAfterDateHonored pins the wire round-trip of the HTTP-date
// form: a server answering 429 with a date Retry-After sees the client
// sleep roughly that long, proving the header survives parsing end to
// end (the delta-seconds form is covered by TestOpenSessionShed).
func TestRetryAfterDateHonored(t *testing.T) {
	hits := make(chan time.Time, 4)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits <- time.Now()
		w.Header().Set("Retry-After", time.Now().Add(1500*time.Millisecond).UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	pol := fastPolicy()
	pol.MaxRetries = 2
	var hinted time.Duration
	_, err := OpenSession(nil, ts.URL, ConfigRequest{CW: 200}, OpenOptions{
		RetryPolicy: pol,
		OnShed:      func(_ int, retryAfter time.Duration) { hinted = retryAfter },
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("open against a shedding server: %v, want ErrRetriesExhausted", err)
	}
	first, second := <-hits, <-hits
	// The date form has one-second resolution, so a date 1.5s ahead
	// yields a hint in (500ms, 1.5s], wherever in its second the clock
	// is, and the observed gap must reflect it (not the 10-50ms fallback
	// backoff).
	if hinted <= 200*time.Millisecond || hinted > 1500*time.Millisecond {
		t.Fatalf("surfaced hint %v, want within (200ms, 1.5s]", hinted)
	}
	if gap := second.Sub(first); gap < 200*time.Millisecond {
		t.Errorf("retry gap %v: HTTP-date Retry-After not honored", gap)
	}
}

// TestReliableStreamReplayBudget pins the bounded replay buffer: under a
// small budget the history is trimmed (only acknowledged chunks), a
// reconnect against a server that kept its state still resumes exactly,
// and a reconnect against a server that LOST its state fails loudly with
// ErrReplayTruncated instead of silently feeding a gapped trace.
func TestReliableStreamReplayBudget(t *testing.T) {
	tr := phasedTrace(20000)
	req := ConfigRequest{CW: 300}
	cfg, _ := req.Config()
	want, _ := offline(cfg, tr)
	parts := chunks(tr, []int{500})
	budget := 4 * chunkCost(parts[0]) // retains only a few chunks once acked

	t.Run("trim and resume", func(t *testing.T) {
		_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
		proxy := newKillableProxy(t, streamAddr(c))
		id, _ := c.open(req)
		rs, err := DialReliable(proxy.addr(), id, ReliableOptions{
			RetryPolicy:       fastPolicy(),
			ReplayBudgetBytes: budget,
		})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer rs.Close()
		for i, p := range parts {
			if err := rs.Send(p); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
			switch i {
			case len(parts) / 2:
				if err := rs.Drain(); err != nil {
					t.Fatalf("drain: %v", err)
				}
				if rs.histStart == 0 {
					t.Fatal("acked history past the budget was not trimmed")
				}
				if rs.histBytes > budget {
					t.Fatalf("retained history %d bytes exceeds budget %d", rs.histBytes, budget)
				}
				// Kill the connection: the reconnect replays only the
				// retained suffix against the surviving server state.
				proxy.killAll()
			case 3 * len(parts) / 4:
				// Drain first so the post-reconnect connection is live,
				// then sever it too.
				if err := rs.Drain(); err != nil {
					t.Fatalf("drain: %v", err)
				}
				proxy.killAll()
			}
		}
		sum, err := rs.End(true)
		if err != nil {
			t.Fatalf("end: %v", err)
		}
		if rs.Reconnects() < 2 {
			t.Errorf("severed twice but reconnects=%d", rs.Reconnects())
		}
		if sum.Consumed != want.Consumed() {
			t.Errorf("consumed %d, want %d", sum.Consumed, want.Consumed())
		}
		if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
			t.Errorf("adjusted phases %v, want %v", sum.AdjustedPhases, want.AdjustedPhases())
		}
	})

	t.Run("truncated on state loss", func(t *testing.T) {
		srv, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
		proxy := newKillableProxy(t, streamAddr(c))
		id, _ := c.open(req)
		rs, err := DialReliable(proxy.addr(), id, ReliableOptions{
			RetryPolicy:       fastPolicy(),
			ReplayBudgetBytes: budget,
		})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer rs.Close()
		for _, p := range parts[:len(parts)/2] {
			if err := rs.Send(p); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		if err := rs.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if rs.histStart == 0 {
			t.Fatal("acked history past the budget was not trimmed")
		}
		// The server loses the session's state (as a non-durable restart
		// or a dead-node re-home would): a fresh adoption restarts the
		// cursor at zero, below the oldest retained chunk.
		if _, ok := srv.manager.Close(id); !ok {
			t.Fatal("close failed")
		}
		if _, err := srv.manager.AdoptFresh(id, cfg); err != nil {
			t.Fatalf("adopt fresh: %v", err)
		}
		proxy.killAll()
		err = rs.Send(parts[len(parts)/2])
		for err == nil {
			// The sever may land between pipelined sends; keep going
			// until the reconnect machinery engages.
			err = rs.Drain()
			if err == nil {
				err = rs.Send(parts[0])
			}
		}
		if !errors.Is(err, ErrReplayTruncated) {
			t.Fatalf("resume against reset state: %v, want ErrReplayTruncated", err)
		}
	})

	t.Run("unlimited keeps everything", func(t *testing.T) {
		_, c := newTestServer(t, Options{Registry: telemetry.NewRegistry()})
		id, _ := c.open(req)
		rs, err := DialReliable(streamAddr(c), id, ReliableOptions{RetryPolicy: fastPolicy()})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer rs.Close()
		for _, p := range parts {
			if err := rs.Send(p); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		if err := rs.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if rs.histStart != 0 || len(rs.chunks) != len(parts) {
			t.Fatalf("default budget trimmed history: start %d, %d of %d chunks",
				rs.histStart, len(rs.chunks), len(parts))
		}
	})
}
