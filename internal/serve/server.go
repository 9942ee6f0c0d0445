package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opd/internal/core"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// A ConfigRequest is the JSON body of POST /v1/sessions: the session's
// window/model/analyzer policy triple in the same vocabulary as the
// cmd/detect flags. Zero values take the detect defaults (constant TW,
// unweighted model, threshold analyzer with parameter 0.6, RN anchor,
// Slide resize, skip factor 1, TW sized like CW). CW is required.
type ConfigRequest struct {
	CW       int     `json:"cw"`
	TW       int     `json:"tw,omitempty"`
	Skip     int     `json:"skip,omitempty"`
	Policy   string  `json:"policy,omitempty"`   // constant | adaptive | fixedinterval
	Model    string  `json:"model,omitempty"`    // unweighted | weighted
	Analyzer string  `json:"analyzer,omitempty"` // threshold | average
	Param    float64 `json:"param,omitempty"`
	Anchor   string  `json:"anchor,omitempty"` // rn | lnn
	Resize   string  `json:"resize,omitempty"` // slide | move
}

// Config resolves the request into a core configuration. The result
// still goes through core.Config.Validate at session open.
func (r ConfigRequest) Config() (core.Config, error) {
	param := r.Param
	if param == 0 {
		param = 0.6
	}
	cfg := core.Config{CWSize: r.CW, TWSize: r.TW, SkipFactor: r.Skip, Param: param}
	switch r.Policy {
	case "", "constant":
		cfg.TW = core.ConstantTW
	case "adaptive":
		cfg.TW = core.AdaptiveTW
	case "fixedinterval":
		cfg = core.FixedInterval(r.CW, cfg.Model, cfg.Analyzer, param)
	default:
		return cfg, fmt.Errorf("unknown policy %q", r.Policy)
	}
	switch r.Model {
	case "", "unweighted":
		cfg.Model = core.UnweightedModel
	case "weighted":
		cfg.Model = core.WeightedModel
	default:
		return cfg, fmt.Errorf("unknown model %q", r.Model)
	}
	switch r.Analyzer {
	case "", "threshold":
		cfg.Analyzer = core.ThresholdAnalyzer
	case "average":
		cfg.Analyzer = core.AverageAnalyzer
	default:
		return cfg, fmt.Errorf("unknown analyzer %q", r.Analyzer)
	}
	switch r.Anchor {
	case "", "rn":
		cfg.Anchor = core.AnchorRN
	case "lnn":
		cfg.Anchor = core.AnchorLNN
	default:
		return cfg, fmt.Errorf("unknown anchor %q", r.Anchor)
	}
	switch r.Resize {
	case "", "slide":
		cfg.Resize = core.ResizeSlide
	case "move":
		cfg.Resize = core.ResizeMove
	default:
		return cfg, fmt.Errorf("unknown resize %q", r.Resize)
	}
	return cfg, nil
}

// A Server is the streaming phase-detection HTTP service: the session
// manager plus its HTTP surface (sessions API, telemetry, health).
type Server struct {
	manager *Manager
	reg     *telemetry.Registry
	logger  *slog.Logger
	httpSrv *http.Server
	ln      net.Listener
	// reqSeq numbers requests for the structured request log.
	reqSeq atomic.Uint64
	// ready gates the /v1 API. A durable server boots not-ready and
	// flips after Recover replays the data dir; /readyz reports it so an
	// orchestrator can hold traffic during replay while /healthz (pure
	// liveness) already answers.
	ready atomic.Bool
	// hijacked tracks connections the framed-stream handler has taken
	// over from the HTTP server. http.Server.Close deliberately leaves
	// hijacked connections alone, so Abort must sever them itself for a
	// crash to actually look like a crash to live streams.
	hijackMu sync.Mutex
	hijacked map[net.Conn]struct{}
}

// NewServer builds a server (and its session manager) from options. A
// server without a store is ready immediately; one with a store must
// Recover first.
func NewServer(opts Options) *Server {
	telemetry.RegisterRuntimeGauges(opts.Registry)
	s := &Server{manager: NewManager(opts), reg: opts.Registry, hijacked: make(map[net.Conn]struct{})}
	s.logger = s.manager.opts.Logger
	s.httpSrv = &http.Server{Handler: s.Handler()}
	s.ready.Store(opts.Store == nil)
	return s
}

// Manager exposes the session manager (tests and embedding callers).
func (s *Server) Manager() *Manager { return s.manager }

// Recover replays the data dir into live sessions and marks the server
// ready. Call after Start: the listener answers /healthz and 503s API
// traffic while replay runs. A no-op (still flipping ready) without a
// store.
func (s *Server) Recover() (recovered, dropped int, err error) {
	recovered, dropped, err = s.manager.Recover()
	if err != nil {
		return recovered, dropped, err
	}
	s.ready.Store(true)
	return recovered, dropped, nil
}

// requireReady 503s API requests until boot replay has finished.
func (s *Server) requireReady(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			writeError(w, http.StatusServiceUnavailable,
				errors.New("serve: recovering, not ready"))
			return
		}
		h(w, r)
	}
}

// Handler builds the full mux:
//
//	POST   /v1/sessions               open a session (JSON ConfigRequest)
//	GET    /v1/sessions/{id}          session status
//	POST   /v1/sessions/{id}/elements ingest one binary trace chunk
//	POST   /v1/sessions/{id}/stream   upgrade to the persistent framed
//	                                  ingest protocol (see stream.go)
//	GET    /v1/sessions/{id}/events   poll (?since=N) or SSE (Accept:
//	                                  text/event-stream or ?stream=1)
//	POST   /v1/sessions/{id}/adopt    adopt a session under a chosen ID:
//	                                  JSON body opens fresh, octet-stream
//	                                  restores a migration blob
//	POST   /v1/sessions/{id}/export   the session's migration blob;
//	                                  ?remove=1 hands the session off
//	GET    /v1/sessions/{id}/flight   the session's flight recorder: the
//	                                  last N chunk traces with per-stage
//	                                  latencies (post-mortem surface)
//	DELETE /v1/sessions/{id}          finish the session, return summary
//	GET    /metrics                   Prometheus text exposition
//	GET    /debug/phasedet[/events]   live telemetry debug surface
//	GET    /debug/pprof/...           Go runtime profiling
//	GET    /healthz                   liveness + session count
//	GET    /readyz                    503 while boot replay runs, then 200
//
// Every request passes through the structured request log (debug level
// for successes, warn for 4xx, error for 5xx) with a request ID, the
// method, path, status, duration, and response size.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.requireReady(s.handleOpen))
	mux.HandleFunc("GET /v1/sessions/{id}", s.requireReady(s.handleStatus))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.requireReady(s.handleClose))
	mux.HandleFunc("POST /v1/sessions/{id}/elements", s.requireReady(s.handleElements))
	mux.HandleFunc("POST /v1/sessions/{id}/stream", s.requireReady(s.handleStream))
	mux.HandleFunc("POST /v1/sessions/{id}/adopt", s.requireReady(s.handleAdopt))
	mux.HandleFunc("POST /v1/sessions/{id}/export", s.requireReady(s.handleExport))
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.requireReady(s.handleEvents))
	mux.HandleFunc("GET /v1/sessions/{id}/flight", s.requireReady(s.handleFlight))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
	})
	mux.Handle(telemetry.DebugPath, s.reg.Handler())
	mux.Handle(telemetry.DebugPath+"/", s.reg.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "sessions": s.manager.Len()})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.ready.Load() {
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"status": "recovering"})
			return
		}
		if s.manager.Draining() {
			// Draining: live sessions still answer, but no new work should
			// be routed here — the gateway prober treats this as not-ready.
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"status": "draining", "sessions": s.manager.Len()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":            "ready",
			"sessions":          s.manager.Len(),
			"degraded_sessions": s.manager.DegradedSessions(),
			"mem_used_bytes":    s.manager.MemUsed(),
			"mem_budget_bytes":  s.manager.opts.MemBudgetBytes,
		})
	})
	return s.logRequests(mux)
}

// A statusRecorder captures the status code and body size a handler
// writes, for the request log. It forwards Flush so SSE streaming keeps
// working through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer's
// per-write deadline support through the logging wrapper.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// Hijack forwards to the underlying connection so the streaming ingest
// upgrade works through the logging wrapper. The recorder keeps the
// status the handler wrote before hijacking (101 for a successful
// upgrade), and bytes written on the raw connection are not counted.
func (sr *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := sr.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, errors.New("serve: underlying writer does not support hijacking")
	}
	return hj.Hijack()
}

// logRequests is the structured request log: one line per request with
// a server-scoped request ID, at debug for successes so steady-state
// ingest stays quiet, warn for client errors, error for server errors.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sr, r)
		level := slog.LevelDebug
		switch {
		case sr.status >= 500:
			level = slog.LevelError
		case sr.status >= 400:
			level = slog.LevelWarn
		}
		s.logger.LogAttrs(r.Context(), level, "request",
			slog.Uint64("req", s.reqSeq.Add(1)),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sr.status),
			slog.Duration("dur", time.Since(t0)),
			slog.Int64("bytes", sr.bytes),
		)
	})
}

// Start binds addr (":0" picks a free port) and serves in the
// background until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	go func() { _ = s.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound address (host:port) after Start.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Abort closes the HTTP server and listener immediately without
// draining the session manager — the in-process equivalent of a node
// crash, used by cluster tests to kill a node under -race without the
// process-level SIGKILL the load harness uses. Hijacked stream
// connections are severed by hand: http.Server.Close does not touch
// them, and a "crashed" node that keeps serving its live streams is no
// crash at all.
func (s *Server) Abort() error {
	err := s.httpSrv.Close()
	s.hijackMu.Lock()
	for c := range s.hijacked {
		_ = c.Close()
	}
	s.hijackMu.Unlock()
	return err
}

// trackHijacked registers a connection taken over from the HTTP server
// so Abort can sever it; the returned func deregisters it.
func (s *Server) trackHijacked(c net.Conn) func() {
	s.hijackMu.Lock()
	s.hijacked[c] = struct{}{}
	s.hijackMu.Unlock()
	return func() {
		s.hijackMu.Lock()
		delete(s.hijacked, c)
		s.hijackMu.Unlock()
	}
}

// Shutdown drains the server gracefully: the session manager stops
// admitting, finishes every live session — buffered partial groups
// applied and open phases flushed via Detector.Finish, with final events
// delivered to live streams — and then the HTTP server waits for
// in-flight requests up to the context's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.manager.Shutdown()
	return s.httpSrv.Shutdown(ctx)
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the uniform JSON error shape.
type errorBody struct {
	Error string `json:"error"`
	// Kind classifies chunk decode failures: "truncated" or "corrupt".
	Kind string `json:"kind,omitempty"`
	// Offset/Index locate chunk damage (byte offset, element index).
	Offset int64 `json:"offset,omitempty"`
	Index  int64 `json:"index,omitempty"`
}

// writeError writes the uniform error shape.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// ingestStatus is the one error table of both wire paths: it maps an
// ingest error to the one-shot endpoint's HTTP status and to whether the
// framed stream's FrameErr is retryable. Every refused stream frame ends
// its connection, a retryable one included: a client resumes from the
// handshake's chunk cursor, so frames it pipelined behind the refused one
// must not apply.
//
//	decode error (ErrCorrupt, ErrTruncated)   400  retryable
//	ErrPersist, ErrMigrated                   503  retryable
//	ErrClosed, ErrModeConflict                409  fatal
//	ErrFailed (panic or condemned),           500  fatal
//	ErrStaleStream, symbol-table conflicts
func ingestStatus(err error) (status int, retryable bool) {
	switch {
	case errors.Is(err, trace.ErrCorrupt), errors.Is(err, trace.ErrTruncated):
		return http.StatusBadRequest, true
	case errors.Is(err, ErrPersist), errors.Is(err, ErrMigrated):
		// Not applied: the client retries it verbatim, through the gateway
		// to the session's new home for ErrMigrated.
		return http.StatusServiceUnavailable, true
	case errors.Is(err, ErrClosed), errors.Is(err, ErrModeConflict):
		return http.StatusConflict, false
	}
	return http.StatusInternalServerError, false
}

// sessionFor resolves the {id} path value, answering 404 itself when the
// session does not exist (unknown, already closed and removed, or
// evicted).
func (s *Server) sessionFor(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.manager.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown session %q", id))
	}
	return sess, ok
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req ConfigRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding session request: %w", err))
		return
	}
	cfg, err := req.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, err := s.manager.Open(cfg)
	if err != nil {
		s.openErrStatus(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":              sess.ID(),
		"config":          sess.ConfigID(),
		"max_chunk_bytes": s.manager.opts.MaxChunkBytes,
	})
}

// openErrStatus maps a session-admission error onto its HTTP response.
// Shared by handleOpen and the adoption paths so the gateway sees one
// vocabulary: 429 with Retry-After for capacity sheds, 413 for oversized
// windows, 503 for drain and disk faults, 400 for bad configs.
func (s *Server) openErrStatus(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrTooManySessions):
		// Capacity sheds clear as the janitor reclaims memory or sessions
		// close: give the client a retry hint.
		w.Header().Set("Retry-After", strconv.Itoa(s.manager.res.gov.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrWindowTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, err)
	case errors.Is(err, ErrAdoptExists):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrPersist):
		// Creating the session's WAL failed (disk fault): transient, not
		// the client's doing — retryable, unlike a 400.
		writeError(w, http.StatusServiceUnavailable, err)
	default: // config validation, malformed blob
		writeError(w, http.StatusBadRequest, err)
	}
}

// handleAdopt gives a session a new home on this node. Two bodies:
//
//   - application/json: a ConfigRequest — open a brand-new session under
//     the caller-chosen ID (the gateway mints IDs so the consistent-hash
//     placement is decided before any node is contacted).
//   - anything else: an OPDMIGR1 migration blob from a donor node's
//     /export — restore the snapshot, replay any WAL records the blob
//     carries, and serve the session here with state bit-identical to
//     the donor's.
func (s *Server) handleAdopt(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if strings.Contains(r.Header.Get("Content-Type"), "application/json") {
		var req ConfigRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding session request: %w", err))
			return
		}
		cfg, err := req.Config()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		sess, err := s.manager.AdoptFresh(id, cfg)
		if err != nil {
			s.openErrStatus(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{
			"id":              sess.ID(),
			"config":          sess.ConfigID(),
			"max_chunk_bytes": s.manager.opts.MaxChunkBytes,
		})
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxMigrationBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: migration blob exceeds %d bytes", int64(maxMigrationBytes)))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading migration blob: %w", err))
		return
	}
	sess, err := s.manager.Adopt(id, blob)
	if err != nil {
		s.openErrStatus(w, err)
		return
	}
	consumed, inPhase, eventsTotal := sess.Progress()
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":           sess.ID(),
		"config":       sess.ConfigID(),
		"consumed":     consumed,
		"in_phase":     inPhase,
		"events_total": eventsTotal,
	})
}

// maxMigrationBytes caps the adoption body: a migration blob is one
// session's snapshot (plus, from older nodes, the WAL records since its
// last on-disk snapshot), bounded by the per-session memory accounting,
// so 256 MiB is generous.
const maxMigrationBytes = 256 << 20

// handleExport serves the session's migration blob. With ?remove=1 the
// session is atomically marked migrated and removed from this node —
// the blob becomes the only copy, so the caller (the gateway's drain
// path) must deliver it to an adopting node or re-adopt it here.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	remove := r.URL.Query().Get("remove") != ""
	blob, err := s.manager.Export(id, remove)
	if err != nil {
		switch {
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown session %q", id))
		case errors.Is(err, ErrMigrated):
			writeError(w, http.StatusGone, err)
		default:
			writeError(w, http.StatusConflict, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sess.Summary())
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	sum, ok := s.manager.Close(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown session %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

// chunkBufPool recycles chunk body buffers across ingest requests so
// the read stage does not allocate per chunk.
var chunkBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// scratchPool recycles decode scratch across ingest requests and stream
// connections (see ingestScratch).
var scratchPool = sync.Pool{
	New: func() any { return new(ingestScratch) },
}

func (s *Server) handleElements(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionFor(w, r)
	if !ok {
		return
	}
	ct := telemetry.ChunkTrace{Start: time.Now()}
	// Read the whole body first so the trace can attribute network/read
	// time separately from decode time. One chunk is one self-contained
	// OPDBRNC1 stream (magic + count + deltas; the delta baseline
	// restarts per chunk), so buffering it whole is the natural unit.
	buf := chunkBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer chunkBufPool.Put(buf)
	t0 := time.Now()
	body := http.MaxBytesReader(w, r.Body, s.manager.opts.MaxChunkBytes)
	_, rerr := buf.ReadFrom(body)
	ct.StageNS[telemetry.StageRead] = time.Since(t0).Nanoseconds()
	ct.Bytes = int64(buf.Len())
	if rerr != nil {
		sess.recordReadError(&ct, rerr)
		var tooBig *http.MaxBytesError
		if errors.As(rerr, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: chunk exceeds %d bytes", s.manager.opts.MaxChunkBytes))
			return
		}
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: reading chunk: %w", rerr))
		return
	}
	// Hard-watermark shedding: the chunk's transient buffers are charged
	// to the byte accountant for the life of the request; past the hard
	// watermark the chunk is shed with a retryable error — the bytes are
	// already read, but nothing downstream (decode slices, WAL queue,
	// detector work) is spent on it.
	if g := s.manager.res.gov; !g.TryReserve(ct.Bytes) {
		s.manager.res.probe.ShedChunk()
		s.logger.Warn("chunk shed: memory over hard watermark",
			"session", sess.ID(), "chunk_bytes", ct.Bytes, "used_bytes", g.Used())
		w.Header().Set("Retry-After", strconv.Itoa(g.RetryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{
			Error: fmt.Sprintf("serve: chunk shed, accounted memory at %d bytes; retry", g.Used()),
			Kind:  "overloaded",
		})
		return
	}
	defer s.manager.res.gov.Release(ct.Bytes)
	sc := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(sc)
	if err := sess.ingest(0, trace.FrameData, buf.Bytes(), sc, &ct); err != nil {
		status, _ := ingestStatus(err)
		eb := errorBody{Error: err.Error()}
		if status == http.StatusBadRequest {
			// A damaged chunk is classified and located, so the client can
			// repair and resend exactly this chunk.
			eb.Kind = "corrupt"
			if errors.Is(err, trace.ErrTruncated) {
				eb.Kind = "truncated"
			}
			var fe *trace.FormatError
			if errors.As(err, &fe) {
				eb.Offset, eb.Index = fe.Offset, fe.Index
			}
		}
		writeJSON(w, status, eb)
		return
	}
	reply := elementsReply{Elements: ct.Elements}
	reply.Consumed, reply.InPhase, reply.EventsTotal = sess.Progress()
	writeJSON(w, http.StatusOK, reply)
}

// elementsReply is the reply to an applied one-shot chunk. Its fields,
// like eventsReply's, are in sorted key order, so the reply reads as the
// sorted-key map it replaced.
type elementsReply struct {
	Consumed    int64  `json:"consumed"`
	Elements    int64  `json:"elements"`
	EventsTotal uint64 `json:"events_total"`
	InPhase     bool   `json:"in_phase"`
}

// eventsReply is the reply to an event poll.
type eventsReply struct {
	Events     []Event `json:"events"`
	Next       uint64  `json:"next"`
	Terminated bool    `json:"terminated"`
}

// handleFlight serves the session's flight recorder: the last N chunk
// traces with per-stage nanosecond timings, newest last. This is the
// post-mortem surface — after a slow or failed chunk, the recorder shows
// exactly where each recent chunk spent its time.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionFor(w, r)
	if !ok {
		return
	}
	traces, total := sess.Flight()
	if traces == nil {
		traces = []telemetry.ChunkTrace{}
	}
	// stages names the stage_ns array's indices so the dump is
	// self-describing.
	stages := make([]string, telemetry.NumStages)
	for _, st := range telemetry.Stages() {
		stages[st] = st.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":     sess.ID(),
		"config": sess.ConfigID(),
		"state":  sess.State(),
		"stages": stages,
		"total":  total,
		"traces": traces,
	})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionFor(w, r)
	if !ok {
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad since %q: %w", v, err))
			return
		}
		since = n
	}
	// SSE reconnect: the browser-standard Last-Event-ID header carries
	// the Seq of the last event the client saw, so resume just after it.
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad Last-Event-ID %q: %w", v, err))
			return
		}
		if n+1 > since {
			since = n + 1
		}
	}
	if r.URL.Query().Get("stream") != "" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamEvents(w, r, sess, since)
		return
	}
	var reply eventsReply
	reply.Events, reply.Next, reply.Terminated = sess.EventsSince(since)
	if reply.Events == nil {
		reply.Events = []Event{}
	}
	writeJSON(w, http.StatusOK, reply)
}

// streamEvents serves a session's event log as a live SSE stream: every
// retained event with Seq >= since, then new events as they are
// detected, then a final "end" event once the session terminates
// (client close, eviction, shutdown — in every case after the open
// phase was flushed, so the stream always ends with the last phase_end).
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, sess *Session, since uint64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("serve: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Slow-consumer defense: every write batch runs under a write
	// deadline. A subscriber that cannot drain its socket within it is
	// dropped — the event pump must never block behind one client — and
	// resumes from its Last-Event-ID on reconnect.
	rc := http.NewResponseController(w)
	sseTimeout := s.manager.res.sseWrite
	drop := func(cause error) bool {
		s.manager.res.probe.SlowSubscriberDrop()
		s.logger.Warn("slow SSE subscriber dropped",
			"session", sess.ID(), "err", cause.Error(), "write_timeout", sseTimeout.String())
		return false
	}
	sess.followEvents(since, r.Context().Done(), func(evs []Event, next uint64, terminated bool) bool {
		if sseTimeout > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(sseTimeout))
		}
		for _, e := range evs {
			data, _ := json.Marshal(e)
			// The id: line feeds the client's Last-Event-ID on reconnect.
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data); err != nil {
				return drop(err)
			}
		}
		if len(evs) > 0 {
			if err := rc.Flush(); err != nil {
				return drop(err)
			}
		}
		if terminated {
			// A migrated session ends the stream without the terminal
			// marker: the events continue at the session's new home, and
			// suppressing "end" makes SSE watchers (WatchEvents) reconnect
			// through the gateway instead of concluding the session is done.
			if !sess.Migrated() {
				fmt.Fprintf(w, "event: end\ndata: {\"events_total\":%d}\n\n", next)
			}
			_ = rc.Flush()
		}
		return true
	})
}
