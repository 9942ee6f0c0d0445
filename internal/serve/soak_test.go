package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opd/internal/durable"
	"opd/internal/faultinject"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// soakLog counts the server's log records per session, so a divergent
// soak episode can be named with what its session went through.
type soakLog struct {
	mu     sync.Mutex
	counts map[string]map[string]int // session -> message -> records
}

const (
	soakShedMsg = "stream chunk shed: memory over hard watermark"
	soakTripMsg = "durability breaker tripped; session continues ephemerally"
)

func (h *soakLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *soakLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *soakLog) WithGroup(string) slog.Handler            { return h }

func (h *soakLog) Handle(_ context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if a.Key != "session" {
			return true
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		id := a.Value.String()
		if h.counts[id] == nil {
			h.counts[id] = map[string]int{}
		}
		h.counts[id][r.Message]++
		return false
	})
	return nil
}

func (h *soakLog) count(id, msg string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counts[id][msg]
}

// TestChaosSoak is the overload-resilience soak harness: dozens of
// concurrent workers drive the full HTTP surface — framed streams with
// abrupt connection kills and reconnect-resume, event polls, stalled SSE
// subscribers, stalled stream clients — while disk faults toggle on and
// off underneath the WAL. The assertions are the resilience contract:
// the server never deadlocks (every worker finishes), leaks no
// goroutines, returns the byte accountant to zero, keeps the degraded
// gauge consistent, and every episode that runs to completion is
// bit-identical to the offline pass regardless of how many kills,
// sheds, and degraded spells it survived.
//
// Gated by OPD_SOAK (wall-clock bounded, OPD_SOAK_DURATION overrides the
// default 15s); `make soak-smoke` runs it under -race.
func TestChaosSoak(t *testing.T) {
	if os.Getenv("OPD_SOAK") == "" {
		t.Skip("set OPD_SOAK=1 to run the chaos soak (OPD_SOAK_DURATION to bound it)")
	}
	dur := 15 * time.Second
	if v := os.Getenv("OPD_SOAK_DURATION"); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			dur = d
		}
	}
	baseGoroutines := runtime.NumGoroutine()

	reg := telemetry.NewRegistry()
	chaos := faultinject.NewDiskChaos()
	store, err := durable.Open(durable.Options{Dir: t.TempDir(), Hook: chaos.Hook})
	if err != nil {
		t.Fatal(err)
	}
	const hb = 300 * time.Millisecond
	serverLog := &soakLog{counts: map[string]map[string]int{}}
	srv := NewServer(Options{
		Registry:           reg,
		Logger:             slog.New(serverLog),
		Store:              store,
		Durability:         DurabilityDegraded,
		WALFailureLimit:    2,
		WALProbeInterval:   5 * time.Millisecond,
		WALProbeMax:        50 * time.Millisecond,
		MinDiskFreeBytes:   -1,
		MemBudgetBytes:     2 << 20,
		HeartbeatInterval:  hb,
		SSEWriteTimeout:    300 * time.Millisecond,
		StreamWriteTimeout: 2 * time.Second,
		WatchdogDeadline:   10 * time.Second,
		SweepInterval:      250 * time.Millisecond,
		IdleTimeout:        -1,
	})
	if _, _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	addr := strings.TrimPrefix(ts.URL, "http://")

	// Ground truth, shared by every episode: deterministic chunking is
	// what makes reconnect-resume comparable to offline.
	tr := phasedTrace(24000)
	req := ConfigRequest{CW: 300}
	cfg, _ := req.Config()
	want, _ := offline(cfg, tr)
	parts := chunks(tr, []int{701})

	stop := make(chan struct{})
	time.AfterFunc(dur, func() { close(stop) })
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// Disk chaos: fault spells toggle for the whole run, ending healed so
	// late episodes can finish durably.
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				chaos.Heal()
				return
			case <-time.After(250 * time.Millisecond):
			}
			if i%3 == 2 {
				chaos.Fail(errors.New("soak: injected disk failure"))
			} else {
				chaos.Heal()
			}
		}
	}()

	var episodes, verified, abandoned, stallProbes atomic.Int64
	// Divergent episodes, named with what their session went through.
	var divergedMu sync.Mutex
	var diverged []string
	// Abandonment reasons, sampled: a soak where everything is abandoned
	// for the same reason is a bug, and the reason is the first clue.
	var reasonMu sync.Mutex
	reasons := map[string]int{}
	abandon := func(format string, args ...any) bool {
		r := fmt.Sprintf(format, args...)
		reasonMu.Lock()
		reasons[r]++
		reasonMu.Unlock()
		return false
	}
	openSession := func() (string, int, bool) {
		body := strings.NewReader(`{"cw":300}`)
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", body)
		if err != nil {
			return "", 0, false
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			// Shed: honor the retry hint's spirit without stalling the soak.
			time.Sleep(50 * time.Millisecond)
			return "", resp.StatusCode, false
		}
		if resp.StatusCode != http.StatusCreated {
			return "", resp.StatusCode, false
		}
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return "", resp.StatusCode, false
		}
		return out.ID, resp.StatusCode, true
	}

	// One episode: open a session, stream the whole trace with random
	// connection kills and reconnect-resume, close with finish, compare
	// to offline. Returns false if the episode had to be abandoned
	// (session shed, evicted, or too many failures) — abandonment is an
	// acceptable overload outcome; divergence is not.
	episode := func(rng *rand.Rand) bool {
		id, status, ok := openSession()
		if !ok {
			return abandon("open shed or refused (status %d)", status)
		}
		// Half the episodes get a parasitic SSE subscriber; a third of
		// those stall (never read) to exercise the slow-consumer drop.
		if rng.Intn(2) == 0 {
			stall := rng.Intn(3) == 0
			conn, err := net.Dial("tcp", addr)
			if err == nil {
				fmt.Fprintf(conn, "GET /v1/sessions/%s/events HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n\r\n", id)
				if !stall {
					go func() {
						buf := make([]byte, 4096)
						for {
							if _, err := conn.Read(buf); err != nil {
								return
							}
						}
					}()
				}
				defer conn.Close()
			}
		}
		var sc *StreamClient
		defer func() {
			if sc != nil {
				sc.Close()
			}
		}()
		var lastDialErr error
		dial := func() bool {
			for attempt := 0; attempt < 20; attempt++ {
				var err error
				sc, err = DialStream(addr, id, StreamOptions{NoEvents: rng.Intn(2) == 0})
				if err == nil {
					return true
				}
				lastDialErr = err
				sc = nil
				if stopped() {
					return false
				}
				time.Sleep(time.Duration(10+rng.Intn(40)) * time.Millisecond)
			}
			return false
		}
		if !dial() {
			return abandon("dial: %v", lastDialErr)
		}
		// Kill-and-resume until the whole trace is applied AND the session
		// finishes: deterministic chunking means every reconnect resends
		// from the handshake cursor, and End only runs once all chunks are
		// in — a retryable failure anywhere (injected kill, WAL
		// fail-closed below the breaker limit, shed chunk) costs a redial,
		// never correctness.
		var sum *Summary
		redials := 0
		causes := map[string]int{}
		redial := func(cause string, err error) bool {
			sc.Close()
			causes[cause]++
			if redials++; redials > 60 {
				return abandon("%d redials, last %s: %v", redials-1, cause, err)
			}
			if !dial() {
				return abandon("redial after %s (%v): %v", cause, err, lastDialErr)
			}
			return true
		}
	stream:
		for {
			// Resend every chunk from the start: Send counts calls per
			// connection and itself skips the prefix the handshake cursor
			// says is applied, so the i-th Send must always carry part i.
			sent := 0
			for sent < len(parts) {
				if err := sc.Send(parts[sent]); err != nil {
					if !redial("send error", err) {
						return false
					}
					continue stream
				}
				sent++
				switch rng.Intn(24) {
				case 0: // abrupt connection kill mid-pipeline
					if !redial("injected kill", nil) {
						return false
					}
					continue stream
				case 1: // drain, then poll the event log
					if err := sc.Drain(); err == nil {
						resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%s/events?since=0", ts.URL, id))
						if err == nil {
							resp.Body.Close()
						}
					}
				case 2: // idle pause; the client must answer server pings
					time.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
				}
			}
			var err error
			if sum, err = sc.End(true); err != nil {
				if !redial("end error", err) {
					return false
				}
				continue
			}
			break
		}
		if sum.Consumed != want.Consumed() || !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
			d := fmt.Sprintf("session %s: consumed %d (want %d), %d phases (want %d); %d sheds, %d breaker spells, %d redials %v",
				id, sum.Consumed, want.Consumed(), len(sum.AdjustedPhases), len(want.AdjustedPhases()),
				serverLog.count(id, soakShedMsg), serverLog.count(id, soakTripMsg), redials, causes)
			t.Errorf("soak episode diverged from offline: %s", d)
			divergedMu.Lock()
			diverged = append(diverged, d)
			divergedMu.Unlock()
		}
		verified.Add(1)
		return true
	}

	// A stall probe: a framed connection that completes the handshake and
	// then goes silent must be disconnected via the heartbeat path within
	// ~2x the heartbeat interval even while the server is under full chaos
	// load. The hello frame matters: without it the server closes at the
	// handshake deadline instead, and the ping machinery goes untested.
	stallProbe := func() {
		id, _, ok := openSession()
		if !ok {
			return
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /v1/sessions/%s/stream HTTP/1.1\r\nHost: x\r\nUpgrade: %s\r\nConnection: Upgrade\r\nContent-Length: 0\r\n\r\n", id, streamProtocol)
		if _, err := conn.Write(trace.AppendFrame(nil, trace.FrameHello, []byte(`{"mode":"branch","no_events":true}`))); err != nil {
			return
		}
		start := time.Now()
		_ = conn.SetReadDeadline(time.Now().Add(2*hb + 5*time.Second))
		// Drain until the server hangs up; the bound is generous under
		// -race and full load, but a hung connection fails loudly.
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		if elapsed := time.Since(start); elapsed > 2*hb+5*time.Second {
			t.Errorf("stalled stream client still connected after %v (heartbeat %v)", elapsed, hb)
		}
		stallProbes.Add(1)
	}

	const workers = 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 17))
			for !stopped() {
				episodes.Add(1)
				if w%8 == 7 && rng.Intn(4) == 0 {
					stallProbe()
					continue
				}
				if !episode(rng) {
					abandoned.Add(1)
				}
			}
		}(w)
	}

	// No-deadlock assertion: every worker must come home.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(dur + 2*time.Minute):
		var sb strings.Builder
		_ = pprof.Lookup("goroutine").WriteTo(&sb, 1)
		t.Fatalf("soak workers deadlocked; goroutines:\n%s", sb.String())
	}
	chaosWG.Wait()

	ts.Close()
	srv.Manager().Shutdown()

	// Bounded memory: with every session persisted or closed, the byte
	// accountant must be back to zero — anything else is a charge leak.
	if used := srv.Manager().MemUsed(); used != 0 {
		t.Errorf("byte accountant holds %d bytes after shutdown, want 0", used)
	}
	if n := srv.Manager().DegradedSessions(); n != 0 {
		t.Errorf("degraded gauge = %d after shutdown, want 0", n)
	}
	settleGoroutines(t, baseGoroutines)

	t.Logf("soak: %d episodes (%d verified ≡ offline, %d abandoned under chaos), %d stall probes",
		episodes.Load(), verified.Load(), abandoned.Load(), stallProbes.Load())
	reasonMu.Lock()
	for r, n := range reasons {
		t.Logf("soak: abandoned %d × %s", n, r)
	}
	reasonMu.Unlock()
	t.Logf("soak: %d divergent episodes", len(diverged))
	for _, d := range diverged {
		t.Logf("soak: diverged %s", d)
	}
	for _, m := range []string{
		telemetry.MetricResilienceShedOpens,
		telemetry.MetricResilienceShedChunks,
		telemetry.MetricResiliencePressureEvicts,
		telemetry.MetricResilienceHeartbeatDrops,
		telemetry.MetricResilienceSlowSubDrops,
		telemetry.MetricResilienceWALFailures,
		telemetry.MetricResilienceBreakerTrips,
		telemetry.MetricResilienceResumes,
	} {
		t.Logf("soak: %s = %d", m, reg.Counter(m).Value())
	}
	if chaos.Failures() > 0 && reg.Counter(telemetry.MetricResilienceWALFailures).Value() == 0 {
		t.Error("disk chaos injected failures but no WAL failure was counted")
	}
	if verified.Load() == 0 {
		t.Fatal("soak verified zero episodes; the harness proved nothing")
	}
}
