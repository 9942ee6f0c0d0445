package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opd/internal/serve"
	"opd/internal/telemetry"
)

// Options configures a Gateway.
type Options struct {
	// Nodes is the phased fleet (host:port each). Required, non-empty.
	Nodes []string
	// MaxSessions is the cluster-global session cap: opens beyond it are
	// shed with 429 + Retry-After before any node is contacted. 0 means
	// 4096; negative disables.
	MaxSessions int
	// ProbeInterval / FailThreshold tune the health prober (see
	// ProberOptions).
	ProbeInterval time.Duration
	FailThreshold int
	// IdleTimeout drops routing entries not touched for this long (the
	// nodes' own janitors evict the underlying sessions on a shorter
	// leash). 0 means 10 minutes; negative disables.
	IdleTimeout time.Duration
	// SweepInterval is the routing janitor's period. 0 means 30s.
	SweepInterval time.Duration
	// Registry receives gateway telemetry (mounted at /metrics). nil
	// disables instrumentation.
	Registry *telemetry.Registry
	// Logger receives structured routing/health/migration logs. nil
	// discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxSessions == 0 {
		o.MaxSessions = 4096
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 10 * time.Minute
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = 30 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// An entry is one session's routing record. The lock orders data-plane
// traffic against migration: proxies hold it shared while talking to
// the home node, and a migration (drain hand-off or dead-node re-home)
// holds it exclusively — so no request can race a session mid-flight
// between nodes.
type entry struct {
	mu   sync.RWMutex
	node string
	// cfg is the session's original open request (JSON), kept so a
	// session homed on a dead node can be adopted fresh on a successor —
	// the client's full-history replay then rebuilds the exact state.
	cfg   []byte
	touch atomic.Int64
}

// A Gateway is the cluster's single client-facing endpoint: it mints
// session IDs, places them on nodes via the consistent-hash ring,
// proxies all four wire paths (one-shot ingest, poll, SSE, framed
// stream splice), and re-homes sessions when nodes drain or die.
type Gateway struct {
	opts   Options
	ring   *Ring
	prober *Prober
	probe  *telemetry.GatewayProbe
	logger *slog.Logger
	reg    *telemetry.Registry

	// client is the data-plane proxy client: no global timeout (SSE and
	// long polls are legitimate), connection reuse per node.
	client *http.Client
	// ctl is the control-plane client (export/adopt/admin): bounded,
	// because a migration step that hangs must fail over, not stall the
	// drain.
	ctl *http.Client

	httpSrv *http.Server
	ln      net.Listener
	reqSeq  atomic.Uint64

	mu       sync.RWMutex
	sessions map[string]*entry

	// splices tracks both halves of every live stream splice so
	// Shutdown can sever them (hijacked connections are invisible to
	// http.Server.Shutdown).
	spliceMu sync.Mutex
	splices  map[net.Conn]struct{}
	spliceWG sync.WaitGroup

	stopOnce sync.Once
	janStop  chan struct{}
	janDone  chan struct{}
}

// New builds a gateway over the node fleet.
func New(opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	if len(opts.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	probe := telemetry.NewGatewayProbe(opts.Registry)
	g := &Gateway{
		opts:   opts,
		ring:   NewRing(opts.Nodes),
		probe:  probe,
		logger: opts.Logger,
		reg:    opts.Registry,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		ctl: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
		}},
		sessions: make(map[string]*entry),
		splices:  make(map[net.Conn]struct{}),
		janStop:  make(chan struct{}),
		janDone:  make(chan struct{}),
	}
	g.prober = NewProber(opts.Nodes, ProberOptions{
		Interval:      opts.ProbeInterval,
		FailThreshold: opts.FailThreshold,
		Logger:        opts.Logger,
		Probe:         probe,
	})
	g.httpSrv = &http.Server{Handler: g.Handler()}
	return g, nil
}

// Start binds addr, launches the health prober and routing janitor,
// and serves in the background until Shutdown.
func (g *Gateway) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	g.ln = ln
	g.prober.Start()
	go g.janitor()
	go func() { _ = g.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound address after Start.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Shutdown stops the gateway: the prober and janitor exit, live stream
// splices are severed (clients resume through whatever replaces this
// gateway), and the HTTP server drains ordinary requests up to the
// context deadline.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.stopOnce.Do(func() {
		g.prober.Stop()
		close(g.janStop)
		<-g.janDone
		g.spliceMu.Lock()
		for c := range g.splices {
			_ = c.Close()
		}
		g.spliceMu.Unlock()
		g.spliceWG.Wait()
	})
	err := g.httpSrv.Shutdown(ctx)
	if err != nil {
		// Live proxied SSE subscriptions never go idle; past the grace
		// they are cut, not drained.
		_ = g.httpSrv.Close()
	}
	g.client.CloseIdleConnections()
	g.ctl.CloseIdleConnections()
	return err
}

// janitor sweeps idle routing entries. The nodes' own janitors evict
// the sessions themselves on a shorter leash; this only keeps the
// routing table from accumulating ghosts.
func (g *Gateway) janitor() {
	defer close(g.janDone)
	t := time.NewTicker(g.opts.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-g.janStop:
			return
		case <-t.C:
		}
		if g.opts.IdleTimeout < 0 {
			continue
		}
		cut := time.Now().Add(-g.opts.IdleTimeout).UnixNano()
		g.mu.Lock()
		for id, e := range g.sessions {
			if e.touch.Load() < cut {
				delete(g.sessions, id)
			}
		}
		n := len(g.sessions)
		g.mu.Unlock()
		g.probe.Sessions(n)
	}
}

// lookup returns the session's routing entry, touching it.
func (g *Gateway) lookup(id string) *entry {
	g.mu.RLock()
	e := g.sessions[id]
	g.mu.RUnlock()
	if e != nil {
		e.touch.Store(time.Now().UnixNano())
	}
	return e
}

// register records a freshly placed session.
func (g *Gateway) register(id, node string, cfg []byte) {
	e := &entry{node: node, cfg: cfg}
	e.touch.Store(time.Now().UnixNano())
	g.mu.Lock()
	g.sessions[id] = e
	n := len(g.sessions)
	g.mu.Unlock()
	g.probe.Sessions(n)
}

// unregister drops a session's routing entry (close, or a node that no
// longer knows it).
func (g *Gateway) unregister(id string) {
	g.mu.Lock()
	delete(g.sessions, id)
	n := len(g.sessions)
	g.mu.Unlock()
	g.probe.Sessions(n)
}

// SessionCount returns the routing table size.
func (g *Gateway) SessionCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.sessions)
}

// Handler builds the gateway mux: the phased /v1 client surface (each
// request proxied to the session's home node), the drain admin
// endpoint, and the gateway's own health/metrics.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", g.handleOpen)
	mux.HandleFunc("GET /v1/sessions/{id}", g.proxySession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", g.handleClose)
	mux.HandleFunc("POST /v1/sessions/{id}/elements", g.proxySession)
	mux.HandleFunc("GET /v1/sessions/{id}/events", g.proxySession)
	mux.HandleFunc("GET /v1/sessions/{id}/flight", g.proxySession)
	mux.HandleFunc("POST /v1/sessions/{id}/stream", g.handleStream)
	mux.HandleFunc("POST /admin/drain", g.handleDrain)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if g.reg != nil {
			_ = g.reg.WritePrometheus(w)
		}
	})
	if g.reg != nil {
		// The same live telemetry surface phased exposes, so harnesses
		// snapshot gateway counters the way they snapshot node counters.
		mux.Handle("GET "+telemetry.DebugPath, g.reg.Handler())
		mux.Handle("GET "+telemetry.DebugPath+"/", g.reg.Handler())
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "sessions": g.SessionCount(), "nodes_up": g.prober.UpCount(),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		up := g.prober.UpCount()
		status := http.StatusOK
		state := "ready"
		if up == 0 {
			status, state = http.StatusServiceUnavailable, "no nodes up"
		}
		writeJSON(w, status, map[string]any{
			"status": state, "sessions": g.SessionCount(),
			"nodes_up": up, "nodes": len(g.opts.Nodes),
		})
	})
	return g.logRequests(mux)
}

// writeJSON / writeError mirror the node server's uniform shapes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// gwRecorder captures status/size for the request log and forwards
// Flush/Hijack so SSE proxying and stream splicing work through it.
type gwRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (gr *gwRecorder) WriteHeader(status int) {
	gr.status = status
	gr.ResponseWriter.WriteHeader(status)
}

func (gr *gwRecorder) Write(p []byte) (int, error) {
	n, err := gr.ResponseWriter.Write(p)
	gr.bytes += int64(n)
	return n, err
}

func (gr *gwRecorder) Flush() {
	if f, ok := gr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (gr *gwRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := gr.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, errors.New("cluster: underlying writer does not support hijacking")
	}
	return hj.Hijack()
}

func (g *Gateway) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gr := &gwRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(gr, r)
		level := slog.LevelDebug
		switch {
		case gr.status >= 500:
			level = slog.LevelError
		case gr.status >= 400:
			level = slog.LevelWarn
		}
		g.logger.LogAttrs(r.Context(), level, "request",
			slog.Uint64("req", g.reqSeq.Add(1)),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", gr.status),
			slog.Duration("dur", time.Since(t0)),
			slog.Int64("bytes", gr.bytes),
		)
	})
}

// flushWriter flushes after every write so proxied SSE events reach the
// client as they arrive instead of pooling in the response buffer.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if err == nil && fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// relay copies a backend response to the client: headers (Retry-After
// in either RFC 9110 form passes through untouched), status, and a
// flushed body stream.
func relay(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	f, _ := w.(http.Flusher)
	_, _ = io.Copy(flushWriter{w: w, f: f}, resp.Body)
}

// handleOpen mints the session ID, places it on the ring, and opens it
// on the first healthy node in the preference order via adopt-fresh.
// Overloaded nodes (429/5xx) fail over to the next candidate; config
// errors (4xx) are final on the first node, since every node validates
// identically. The cluster-global cap sheds before any node is dialed.
func (g *Gateway) handleOpen(w http.ResponseWriter, r *http.Request) {
	if cap := g.opts.MaxSessions; cap > 0 && g.SessionCount() >= cap {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("cluster: session cap %d reached", cap))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: reading open request: %w", err))
		return
	}
	id := serve.NewSessionID()
	var lastShed *http.Response
	defer func() {
		if lastShed != nil {
			lastShed.Body.Close()
		}
	}()
	for _, node := range g.ring.Seq(id) {
		if !g.prober.Healthy(node) {
			continue
		}
		resp, err := g.adoptFresh(r.Context(), node, id, body)
		if err != nil {
			g.probe.Request(true)
			g.prober.ReportError(node)
			continue
		}
		g.probe.Request(false)
		g.prober.ReportOK(node)
		switch {
		case resp.StatusCode == http.StatusCreated:
			g.register(id, node, body)
			g.logger.Info("session placed", "session", id, "node", node)
			relay(w, resp)
			resp.Body.Close()
			return
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
			// Node-local capacity problem: remember the shed (its
			// Retry-After is the best hint we have) and try the next node.
			if lastShed != nil {
				lastShed.Body.Close()
			}
			lastShed = resp
		default:
			// Config error: identical on every node, relay and stop.
			relay(w, resp)
			resp.Body.Close()
			return
		}
	}
	if lastShed != nil {
		relay(w, lastShed)
		return
	}
	writeError(w, http.StatusServiceUnavailable, errors.New("cluster: no healthy node"))
}

// adoptFresh opens a brand-new session under the gateway-minted ID.
func (g *Gateway) adoptFresh(ctx context.Context, node, id string, cfg []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+node+"/v1/sessions/"+id+"/adopt", strings.NewReader(string(cfg)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return g.ctl.Do(req)
}

// proxySession forwards a session-scoped request to its home node. A
// home that the prober considers dead answers 404 — for non-stream
// paths the session is unreachable until a stream reconnect re-homes
// it (or the node comes back); clients treat 404 as ErrSessionGone.
//
// Short requests hold the entry lock shared for their duration, so they
// strictly order against migrations. An SSE subscription (events with
// stream=1) lives as long as the session, so it resolves its target
// under the lock and then runs lock-free — a drain ends it donor-side
// (terminated stream, suppressed end marker) and the watcher's
// reconnect queues on the entry lock into the new home.
func (g *Gateway) proxySession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := g.lookup(id)
	if e == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: unknown session %q", id))
		return
	}
	e.mu.RLock()
	node := e.node
	if !g.prober.Up(node) {
		e.mu.RUnlock()
		writeError(w, http.StatusNotFound,
			fmt.Errorf("cluster: session %q homed on unreachable node %s", id, node))
		return
	}
	if r.URL.Query().Get("stream") != "" {
		e.mu.RUnlock()
		g.forwardSSE(w, r, node, id)
		return
	}
	defer e.mu.RUnlock()
	g.forward(w, r, node)
}

// forwardSSE proxies a long-lived SSE request without the entry lock,
// converting a stale 404 — the home moved while the request was in
// flight — into a retryable 503 whenever the gateway still routes the
// session.
func (g *Gateway) forwardSSE(w http.ResponseWriter, r *http.Request, node, id string) {
	resp := g.roundTrip(w, r, node)
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && g.lookup(id) != nil {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("cluster: session %q re-homed mid-subscribe; retry", id))
		return
	}
	relay(w, resp)
}

// handleClose proxies the DELETE and drops the routing entry once the
// node confirms (2xx terminal summary, or 404 — already gone). The entry
// goes before the reply is relayed: a client that has seen its close
// must not find the session still routed.
func (g *Gateway) handleClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := g.lookup(id)
	if e == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: unknown session %q", id))
		return
	}
	e.mu.RLock()
	node := e.node
	up := g.prober.Up(node)
	if !up {
		e.mu.RUnlock()
		writeError(w, http.StatusNotFound,
			fmt.Errorf("cluster: session %q homed on unreachable node %s", id, node))
		return
	}
	defer e.mu.RUnlock()
	resp := g.roundTrip(w, r, node)
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 || resp.StatusCode == http.StatusNotFound {
		g.unregister(id)
	}
	relay(w, resp)
}

// forward proxies one plain HTTP request to a node.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, node string) {
	if resp := g.roundTrip(w, r, node); resp != nil {
		defer resp.Body.Close()
		relay(w, resp)
	}
}

// roundTrip sends r on to node and returns the node's response, whose
// body the caller closes. On failure it answers w itself and returns
// nil.
func (g *Gateway) roundTrip(w http.ResponseWriter, r *http.Request, node string) *http.Response {
	req, err := http.NewRequestWithContext(r.Context(), r.Method,
		"http://"+node+r.URL.RequestURI(), r.Body)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return nil
	}
	req.Header = r.Header.Clone()
	resp, err := g.client.Do(req)
	if err != nil {
		g.probe.Request(true)
		g.prober.ReportError(node)
		// The client context being done is not the node's fault.
		if r.Context().Err() == nil {
			writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: node %s: %w", node, err))
		}
		return nil
	}
	g.probe.Request(false)
	g.prober.ReportOK(node)
	return resp
}
