// Package serve is the streaming phase-detection service: a long-running
// HTTP server where each client session owns a live core.Detector
// (configurable window/model/analyzer triple per session) fed
// incrementally with profile-element chunks, and phase-change events flow
// back by polling or as a live SSE stream.
//
// The package composes the repository's existing ingredients into a
// service: chunks arrive in the binary trace wire format and are decoded
// with the classified-error readers (a damaged chunk fails one request,
// never the session), each session's detector is fed through the
// chunk-size-agnostic core.ProcessBatch seam (so streamed output is
// bit-identical to an offline pass for any chunking), panics in
// model/detector code are recovered into the sweep engine's *PanicError
// and poison only their own session, and the telemetry registry's
// /metrics and /debug/phasedet surfaces are mounted on the same mux.
package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opd/internal/core"
	"opd/internal/durable"
	"opd/internal/interval"
	"opd/internal/sweep"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// Session lifecycle errors. Handlers map these onto HTTP statuses.
var (
	// ErrClosed reports an operation on a session already finished (by
	// the client, the janitor, or shutdown).
	ErrClosed = errors.New("serve: session closed")
	// ErrFailed reports an operation on a session poisoned by an earlier
	// panic in its detector. The underlying *sweep.PanicError is wrapped.
	ErrFailed = errors.New("serve: session failed")
	// ErrModeConflict reports an ingest path incompatible with the
	// session's negotiated mode: element chunks into a dense-ID session,
	// or a dense-ID handshake on a session that already consumed
	// elements. Handlers map it to HTTP 409.
	ErrModeConflict = errors.New("serve: ingest mode conflict")
	// ErrStaleStream reports a frame from a streaming connection that has
	// been superseded by a newer handshake on the same session. A client
	// that reconnects after a network fault can race its own previous
	// connection, whose buffered frames may still be in flight server-side;
	// fencing them on the handshake generation keeps the resume cursor the
	// new connection saw authoritative, so no chunk is ever applied twice.
	ErrStaleStream = errors.New("serve: stream superseded by a newer connection")
)

// sessionMode is a session's negotiated ingest representation. Sessions
// start in branch mode (chunks carry raw profile elements); a streaming
// client may latch a *fresh* session into dense-ID mode, after which
// elements arrive as IDs into a client-fed symbol table and branch-form
// ingest is refused. The detector would take both, but the latch is wire
// protocol: a client's IDs mean something only against the table it
// negotiated, and a branch chunk would add IDs the client never saw.
type sessionMode uint8

const (
	modeBranch sessionMode = iota
	modeIDs
)

func (m sessionMode) String() string {
	if m == modeIDs {
		return "ids"
	}
	return "branch"
}

// An Event is one phase-lifecycle notification of a session. It carries
// the same fields the telemetry phase-event ring records — Kind, the
// stream position At, and the kind-specific payloads V1/V2 — plus a
// per-session sequence number for resumable polling (?since=seq).
//
// Kinds and payloads:
//
//	phase_start  At = V1 = the anchor-corrected phase start
//	phase_end    At = phase end, V1 = anchor-corrected start, V2 = length
type Event struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	Src  string `json:"src"` // the session's config ID
	At   int64  `json:"at"`
	V1   int64  `json:"v1"`
	V2   int64  `json:"v2"`
}

// State is a session's lifecycle state.
type State string

const (
	// StateActive marks a session accepting chunks.
	StateActive State = "active"
	// StateFailed marks a session poisoned by a detector panic; its event
	// log remains readable but it accepts no further chunks.
	StateFailed State = "failed"
	// StateClosed marks a finished session (client close, idle/TTL
	// eviction, or graceful shutdown), with any open phase flushed.
	StateClosed State = "closed"
)

// A Summary is the terminal result of a session: everything an offline
// run of the same configuration over the same stream would report.
type Summary struct {
	ID              string              `json:"id"`
	Config          string              `json:"config"`
	State           State               `json:"state"`
	Consumed        int64               `json:"consumed"`
	SimComputations int64               `json:"sim_computations"`
	Phases          []interval.Interval `json:"phases"`
	AdjustedPhases  []interval.Interval `json:"adjusted_phases"`
	EventsTotal     uint64              `json:"events_total"`
	Error           string              `json:"error,omitempty"`
	// Degraded marks a durable session whose WAL circuit breaker is
	// open: detection continues but chunks applied during the spell are
	// not crash-safe until durability resumes.
	Degraded bool `json:"degraded,omitempty"`
}

// A subscriber is one live event-stream consumer. It holds no event data
// itself: the session's log is the source of truth, and notify (capacity
// one) only signals "the log grew or the session terminated".
type subscriber struct {
	notify chan struct{}
}

// A Session owns one live detector. All detector access is serialized by
// the session mutex: chunks for the same session apply in arrival order,
// and a slow or panicking session never blocks any other.
type Session struct {
	id       string
	configID string
	cfg      core.Config
	created  time.Time
	lastUsed atomic.Int64 // unix nanoseconds of the last client touch

	mu     sync.Mutex
	det    *core.Detector
	state  State
	failed error // the wrapped *sweep.PanicError when state == StateFailed
	// migrated latches when the session is exported to another node:
	// queued work fails with ErrMigrated (retryable through the gateway)
	// and event streams end without a terminal marker so clients
	// reconnect to the new home instead of completing.
	migrated bool

	// Streaming ingest state. mode latches once (see sessionMode); in
	// dense-ID mode the detector's own symbol table is the client's
	// negotiated table. applied counts successfully applied data chunks
	// on every ingest path — the resume cursor a reconnecting streaming
	// client uses to skip chunks the server already has.
	mode    sessionMode
	applied uint64
	// streamGen is the handshake generation: StreamHello bumps it and
	// every frame from a streaming connection carries the generation it
	// was admitted under, so frames from a superseded connection are
	// fenced (ErrStaleStream) instead of racing the successor's cursor.
	streamGen uint64

	// The event log (eventlog.go): Seq numbers are absolute, and at most
	// maxEvents of the newest events are kept. Each kept event's wall
	// clock feeds the SSE delivery-lag histogram.
	events    eventLog
	maxEvents int
	subs      map[*subscriber]struct{}

	// Durability (nil/zero when the server runs without a data dir).
	// Chunks are WAL-appended before they touch the detector; every
	// snapEvery applied chunks the full session state is snapshotted,
	// compacting the WAL.
	log       *durable.SessionLog
	snapEvery int
	sinceSnap int

	// Overload defense. res is the manager's shared resilience state
	// (nil in bare unit-test sessions); memBytes is what this session
	// has charged to the byte accountant (the pressure-eviction ranking
	// key); brk is the degraded-durability circuit breaker (under mu).
	// detectStart is the unix-nano instant the in-flight chunk acquired
	// the session mutex (zero when none is in flight) — the watchdog's
	// probe, readable without the possibly-stuck mutex. condemned
	// latches when the watchdog gives up on the session: new work
	// fast-fails before trying the mutex.
	res         *resilienceCtl
	memBytes    atomic.Int64
	brk         durabilityBreaker
	detectStart atomic.Int64
	condemned   atomic.Bool

	probe *telemetry.ServeProbe

	// Observability: the flight recorder retains the last N chunk
	// traces (dumped on panic and served by the flight debug endpoint);
	// chunkSeq numbers them; batchPublishNS/batchEvents accumulate
	// event-publish cost inside one ProcessBatch so the detect stage can
	// be reported net of publishing. logger receives lifecycle and
	// post-mortem records (never nil; defaults to discard).
	flight         *telemetry.FlightRecorder
	chunkSeq       int64
	batchPublishNS int64
	batchEvents    int64
	logger         *slog.Logger
}

// newSession wires a detector into a session, registering the phase
// hooks that feed the event log.
func newSession(id string, cfg core.Config, det *core.Detector, maxEvents, flightChunks int, probe *telemetry.ServeProbe, res *resilienceCtl, logger *slog.Logger) *Session {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Session{
		res:       res,
		id:        id,
		configID:  cfg.ID(),
		cfg:       cfg,
		created:   time.Now(),
		det:       det,
		state:     StateActive,
		maxEvents: maxEvents,
		subs:      map[*subscriber]struct{}{},
		probe:     probe,
		flight:    telemetry.NewFlightRecorder(flightChunks),
		logger:    logger,
	}
	s.lastUsed.Store(s.created.UnixNano())
	// The hooks run inside ProcessBatch/Finish, which the session mutex
	// already guards, so appendLocked needs no extra locking.
	det.SetPhaseStartHook(func(adjStart int64, _ []trace.Branch) {
		s.appendLocked(telemetry.EvPhaseStart.String(), adjStart, adjStart, 0)
	})
	det.SetPhaseEndHook(func(iv interval.Interval, _ []trace.Branch) {
		s.appendLocked(telemetry.EvPhaseEnd.String(), iv.End, iv.Start, iv.Len())
	})
	return s
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// ConfigID returns the session's configuration identifier.
func (s *Session) ConfigID() string { return s.configID }

// touch refreshes the idle-eviction clock.
func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// chargeMem debits n bytes against the global accountant on this
// session's tab. No-op without a resilience control (bare test
// sessions).
func (s *Session) chargeMem(n int64) {
	if s.res == nil || n <= 0 {
		return
	}
	s.res.gov.Reserve(n)
	s.memBytes.Add(n)
}

// releaseMem returns n bytes from this session's tab.
func (s *Session) releaseMem(n int64) {
	if s.res == nil || n <= 0 {
		return
	}
	s.res.gov.Release(n)
	s.memBytes.Add(-n)
}

// releaseMemAll zeroes the session's tab when it leaves the manager.
// Idempotent (Swap), since close and evict can race.
func (s *Session) releaseMemAll() {
	if s.res == nil {
		return
	}
	s.res.gov.Release(s.memBytes.Swap(0))
}

// idleSince returns the time of the last client touch.
func (s *Session) idleSince() time.Time { return time.Unix(0, s.lastUsed.Load()) }

// appendLocked adds one event to the log and wakes subscribers. Callers
// must hold s.mu (the detector hooks do, transitively, via ingest/close).
// The time spent here is the "publish" stage of the chunk being applied:
// it accumulates into batchPublishNS so ingest can report detector work
// net of event publishing.
func (s *Session) appendLocked(kind string, at, v1, v2 int64) {
	t0 := time.Now()
	s.events.push(logEventKind(kind), at, v1, v2, t0.UnixNano())
	s.chargeMem(eventLogBytes)
	if s.maxEvents > 0 && s.events.len() > s.maxEvents {
		drop := s.events.len() - s.maxEvents
		// Trimming retires the dropped events' bytes in O(1) each; the log
		// moves the retained bytes only once the slack behind them runs
		// out, so trimming costs amortized O(1) per event.
		s.events.trim(drop)
		// Trimmed events leave the log, so they leave the accountant's
		// books too, and the drop is visible in metrics — a poller whose
		// cursor fell behind the trim point sees a Seq gap.
		s.releaseMem(int64(drop) * eventLogBytes)
		s.probe.EventsDropped(int64(drop))
	}
	s.probe.EventsEmitted(1)
	s.wakeLocked()
	s.batchPublishNS += time.Since(t0).Nanoseconds()
	s.batchEvents++
}

// wakeLocked signals every subscriber that the log (or the session
// state) changed. Non-blocking: notify has capacity one, and a
// subscriber that already has a pending signal needs no second one.
func (s *Session) wakeLocked() {
	for sub := range s.subs {
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
}

// usableLocked reports whether the session can accept chunks.
func (s *Session) usableLocked() error {
	if s.migrated {
		return ErrMigrated
	}
	switch s.state {
	case StateFailed:
		return fmt.Errorf("%w: %w", ErrFailed, s.failed)
	case StateClosed:
		return ErrClosed
	}
	return nil
}

// Feed applies one chunk of elements as if it had arrived as a one-shot
// POST body: the in-process convenience for embedding callers. It
// encodes the chunk to its wire form and runs ingest.
func (s *Session) Feed(elems []trace.Branch) error {
	payload := trace.AppendBranches(nil, elems)
	ct := telemetry.ChunkTrace{Start: time.Now(), Bytes: int64(len(payload))}
	return s.ingest(0, trace.FrameData, payload, new(ingestScratch), &ct)
}

// ingestScratch holds one caller's decode buffers, reused from record to
// record: a pooled one per POST, one per stream connection, one per WAL
// replay. The detector copies what it keeps of a chunk, so the buffers
// are free again the moment ingest returns, and no session holds a
// chunk-sized buffer between chunks.
type ingestScratch struct {
	elems trace.Trace
	ids   []int32
	syms  []trace.Branch
}

// condemnedErr fast-fails new work on a session the watchdog condemned:
// its mutex may never unlock again, so nothing may queue behind it.
func (s *Session) condemnedErr() error {
	if s.condemned.Load() {
		return fmt.Errorf("%w: %w", ErrFailed, ErrCondemned)
	}
	return nil
}

// ingest is the session's one way in. Every record — a one-shot POST
// body, a stream Data, IDs or Syms frame, a replayed WAL record — is
// decoded, checked, logged and applied here, in that order. kind is
// FrameData (an OPDBRNC1 branch chunk), FrameIDs (a dense-ID chunk) or
// FrameSyms (a symbol-table extension), and payload is the record's wire
// bytes, which the WAL stores verbatim behind the kind's record-type
// prefix, so the durable path pays no re-encode. gen is the stream
// handshake generation; zero (the one-shot endpoint and replay) fences
// nothing. sc holds the caller's decode buffers.
//
// ct is a wire chunk's trace, arriving with Start, Bytes and the read
// stage filled; nil marks an untraced record (replay). A traced data
// chunk leaves exactly one flight trace, whether it is applied, refused
// by its decoder or the WAL, or panics. Symbol records and usable,
// generation and mode refusals leave none.
//
// A decode error wraps trace.ErrCorrupt or trace.ErrTruncated, and a
// refused record changes nothing: it is decoded and checked before it is
// WAL-appended, and WAL-appended before it touches the detector, so a
// WAL failure (ErrPersist) rejects it unapplied and the client may retry
// it verbatim. Grouping is chunk-size agnostic (core.ProcessBatch). A
// panic in detector code is recovered into a *sweep.PanicError that
// poisons this session only.
func (s *Session) ingest(gen uint64, kind trace.FrameType, payload []byte, sc *ingestScratch, ct *telemetry.ChunkTrace) (err error) {
	s.touch()
	if err := s.condemnedErr(); err != nil {
		return err
	}
	traced := ct != nil && kind != trace.FrameSyms
	if ct == nil {
		ct = &telemetry.ChunkTrace{}
	}
	s.mu.Lock()
	s.detectStart.Store(time.Now().UnixNano())
	defer func() {
		s.detectStart.Store(0)
		s.mu.Unlock()
	}()
	t0 := time.Now()
	var elements int
	var symStart uint64
	switch kind {
	case trace.FrameData:
		sc.elems, err = trace.DecodeBranchesLenient(sc.elems[:0], payload)
		elements = len(sc.elems)
	case trace.FrameIDs:
		sc.ids, err = trace.DecodeIDsPayload(sc.ids[:0], payload, s.symbolCountLocked())
		elements = len(sc.ids)
	case trace.FrameSyms:
		symStart, sc.syms, err = trace.DecodeSymsPayload(sc.syms[:0], payload)
	default:
		return fmt.Errorf("serve: %s frame is not an ingest record", kind)
	}
	ct.StageNS[telemetry.StageDecode] = time.Since(t0).Nanoseconds()
	if err != nil {
		// Damage rejects the chunk whole: nothing of it reaches the
		// detector, so the client can repair and resend exactly this chunk.
		if traced {
			s.recordBadChunkLocked(ct, err)
		}
		return err
	}
	if err := s.usableLocked(); err != nil {
		return err
	}
	if gen != 0 && gen != s.streamGen {
		return ErrStaleStream
	}
	want := modeIDs
	if kind == trace.FrameData {
		want = modeBranch
	}
	if s.mode != want {
		return fmt.Errorf("%w: %s ingest into a %s-mode session", ErrModeConflict, want, s.mode)
	}
	if kind == trace.FrameSyms {
		if err := s.checkSymsLocked(symStart, sc.syms); err != nil {
			return err
		}
	}
	if traced {
		s.chunkSeq++
		ct.Seq = s.chunkSeq
		ct.Elements = int64(elements)
	}
	panicked := false
	defer func() {
		if v := recover(); v != nil {
			panicked = true
			s.failed = &sweep.PanicError{Value: v, Stack: debug.Stack()}
			s.state = StateFailed
			s.probe.SessionFailed()
			s.wakeLocked()
			err = fmt.Errorf("%w: %w", ErrFailed, s.failed)
		}
		if s.condemned.Load() && s.state == StateActive {
			// The watchdog condemned this session while its apply ran;
			// now that the mutex holder is back, make the poisoning
			// official so pollers and streams see a terminal state.
			s.failed = fmt.Errorf("%w: detect stage exceeded %v", ErrCondemned, s.res.watchdog)
			s.state = StateFailed
			s.probe.SessionFailed()
			s.wakeLocked()
			if err == nil {
				err = fmt.Errorf("%w: %w", ErrFailed, s.failed)
			}
		}
		if traced {
			if err != nil {
				ct.Err = err.Error()
			} else {
				s.probe.Chunk(ct.Elements)
			}
			ct.TotalNS = time.Since(ct.Start).Nanoseconds()
			s.recordChunkLocked(*ct)
		}
		if panicked {
			s.dumpFlightLocked("panic in detector code")
		}
	}()
	if s.log != nil {
		t0 := time.Now()
		stats, perr := s.walAppendLocked(walPrefix(kind), payload)
		// The append stage is everything but the fsync: record framing,
		// segment rotation, and the file write.
		ct.StageNS[telemetry.StageWALFsync] = stats.FsyncNS
		ct.StageNS[telemetry.StageWALAppend] = time.Since(t0).Nanoseconds() - stats.FsyncNS
		if perr != nil {
			return fmt.Errorf("%w: %w", ErrPersist, perr)
		}
	}
	if kind == trace.FrameSyms {
		// Only the frame's tail past the current table is new.
		if have := uint64(len(s.det.Symbols())); symStart+uint64(len(sc.syms)) > have {
			return s.det.ExtendSymbols(sc.syms[have-symStart:])
		}
		return nil
	}
	s.batchPublishNS, s.batchEvents = 0, 0
	t0 = time.Now()
	if kind == trace.FrameData {
		s.det.ProcessBatch(sc.elems)
	} else {
		s.det.ProcessBatchIDs(sc.ids)
	}
	batchNS := time.Since(t0).Nanoseconds()
	ct.StageNS[telemetry.StageDetect] = batchNS - s.batchPublishNS
	ct.StageNS[telemetry.StagePublish] = s.batchPublishNS
	ct.Events = s.batchEvents
	s.applied++
	t0 = time.Now()
	if s.maybeSnapshotLocked() {
		ct.StageNS[telemetry.StageSnapshot] = time.Since(t0).Nanoseconds()
	}
	return nil
}

// walAppendLocked appends one record (prefix + payload) to the WAL under
// the configured durability policy. Strict (or no resilience control at
// all) is today's contract: the append's error fails the chunk. Degraded wraps
// the append in a per-session circuit breaker: after breakerLimit
// consecutive failures the session stops touching the disk and applies
// chunks ephemerally, probing the disk on a capped exponential backoff;
// a successful probe re-snapshots the full session state — the WAL's
// next index never advanced while degraded, so the snapshot supersedes
// the stale tail and durability resumes exactly where detection is.
func (s *Session) walAppendLocked(prefix, payload []byte) (durable.AppendStats, error) {
	if s.res == nil || s.res.policy != DurabilityDegraded {
		stats, err := s.log.Append(prefix, payload)
		if err != nil && s.res != nil {
			s.res.probe.WALFailure()
		}
		return stats, err
	}
	if s.brk.open {
		now := time.Now()
		if now.Before(s.brk.nextProbe) {
			return durable.AppendStats{}, nil // still degraded: apply ephemerally
		}
		s.res.probe.DurabilityProbeAttempt()
		if !s.healDurabilityLocked() {
			s.brk.backoff = min(s.brk.backoff*2, s.res.probeMax)
			s.brk.nextProbe = now.Add(s.brk.backoff)
			return durable.AppendStats{}, nil
		}
		// Healed: fall through and append this chunk durably.
	}
	stats, err := s.log.Append(prefix, payload)
	if err == nil {
		s.brk.failures = 0
		return stats, nil
	}
	s.res.probe.WALFailure()
	s.brk.failures++
	if s.brk.failures < s.res.breakerLimit {
		// Below the trip threshold the chunk still fails closed — a
		// transient disk hiccup should not silently weaken durability.
		return stats, err
	}
	s.brk.open = true
	s.brk.failures = 0
	s.brk.backoff = s.res.probeMin
	s.brk.nextProbe = time.Now().Add(s.brk.backoff)
	s.res.probe.BreakerTrip()
	s.res.degraded.Add(1)
	s.logger.Warn("durability breaker tripped; session continues ephemerally",
		"session", s.id, "config", s.configID, "err", err.Error(),
		"failure_limit", s.res.breakerLimit, "probe_backoff", s.brk.backoff.String())
	return durable.AppendStats{}, nil
}

// healDurabilityLocked tries to end a degraded spell: the disk-free
// watermark must clear and a fresh full-state snapshot must land.
func (s *Session) healDurabilityLocked() bool {
	if !s.res.diskHealthy() {
		return false
	}
	if err := s.snapshotLocked(); err != nil {
		return false
	}
	s.brk.open = false
	s.brk.failures = 0
	s.sinceSnap = 0
	s.res.probe.DurabilityResumed()
	s.res.degraded.Add(-1)
	s.logger.Info("durability resumed after degraded spell",
		"session", s.id, "config", s.configID)
	return true
}

// Degraded reports whether the session is currently running without
// durability (breaker open).
func (s *Session) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.brk.open
}

// checkSymsLocked validates a symbol-extension record against the
// current table without mutating anything: no gaps, the overlap
// (replayed symbols) must match the table exactly, and the new tail must
// give no element a second ID. Symbol records extend the detector's own
// table, which in an ID-mode session is the client's negotiated table.
// Extension is idempotent over replayed frames — a reconnecting client
// resends the symbols of chunks the server already applied — so a frame
// entirely inside the current table is verified and dropped, and an
// overlapping frame appends only its tail.
func (s *Session) checkSymsLocked(start uint64, syms []trace.Branch) error {
	table := s.det.Symbols()
	have := uint64(len(table))
	if start > have {
		return fmt.Errorf("serve: symbol frame leaves a gap: table has %d symbols, frame starts at %d", have, start)
	}
	for i, sym := range syms {
		idx := start + uint64(i)
		if idx >= have {
			if err := s.det.CheckSymbols(syms[i:]); err != nil {
				return fmt.Errorf("serve: symbol frame at index %d: %w", idx, err)
			}
			break
		}
		if table[idx] != sym {
			return fmt.Errorf("serve: symbol frame contradicts table at index %d", idx)
		}
	}
	return nil
}

// symbolCountLocked returns the size of the session's negotiated symbol
// table (zero in branch mode) — the validation bound for incoming ID
// frames.
func (s *Session) symbolCountLocked() int {
	if s.mode != modeIDs {
		return 0
	}
	return len(s.det.Symbols())
}

// streamState is the session state a streaming handshake reports back to
// the client: the negotiated mode and the resume cursors.
type streamState struct {
	Mode        sessionMode
	Gen         uint64
	Applied     uint64
	Consumed    int64
	EventsTotal uint64
	Symbols     int
	Degraded    bool
}

// StreamHello negotiates a streaming connection's ingest mode and
// returns the resume cursors. A dense-ID request latches a *fresh*
// session (nothing applied, nothing consumed, built-in model) into ID
// mode; a session already latched stays latched across reconnects; any
// other combination is a mode conflict. A branch-mode request on an ID
// session is likewise refused — the client must resume in the mode the
// session speaks.
func (s *Session) StreamHello(wantIDs bool) (streamState, error) {
	s.touch()
	var st streamState
	if err := s.condemnedErr(); err != nil {
		return st, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return st, err
	}
	switch {
	case wantIDs && s.mode != modeIDs:
		if s.applied != 0 || s.det.Consumed() != 0 {
			return st, fmt.Errorf("%w: dense-ID handshake on a session that already consumed elements", ErrModeConflict)
		}
		s.mode = modeIDs
	case !wantIDs && s.mode == modeIDs:
		return st, fmt.Errorf("%w: branch-mode handshake on a dense-ID session", ErrModeConflict)
	}
	s.streamGen++
	st.Mode = s.mode
	st.Gen = s.streamGen
	st.Applied = s.applied
	st.Consumed = s.det.Consumed()
	st.EventsTotal = s.events.next
	st.Symbols = s.symbolCountLocked()
	st.Degraded = s.brk.open
	return st, nil
}

// recordChunkLocked files one finished chunk trace: into the session's
// flight recorder and the server-wide stage/chunk latency histograms.
func (s *Session) recordChunkLocked(ct telemetry.ChunkTrace) {
	s.flight.Record(ct)
	s.probe.ChunkLatency(ct.TotalNS)
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		s.probe.StageLatency(st, ct.StageNS[st])
	}
}

// recordBadChunkLocked counts and files the flight trace of a wire chunk
// that never reached the detector (unreadable or undecodable): the
// poisoning request itself is often the most interesting entry in a
// post-mortem. Bad chunks stay out of the latency histograms so
// percentiles describe successful ingest only.
func (s *Session) recordBadChunkLocked(ct *telemetry.ChunkTrace, cause error) {
	s.probe.ChunkError()
	s.chunkSeq++
	ct.Seq = s.chunkSeq
	ct.Err = cause.Error()
	ct.TotalNS = time.Since(ct.Start).Nanoseconds()
	s.flight.Record(*ct)
}

// recordReadError files a one-shot chunk whose body could not be read. A
// condemned session's chunk is counted but not traced: its mutex may
// never unlock again.
func (s *Session) recordReadError(ct *telemetry.ChunkTrace, cause error) {
	if s.condemnedErr() != nil {
		s.probe.ChunkError()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recordBadChunkLocked(ct, cause)
}

// Flight returns the session's retained chunk traces (oldest first) and
// the total number of chunks ever traced.
func (s *Session) Flight() ([]telemetry.ChunkTrace, int64) {
	return s.flight.Traces(), s.flight.Total()
}

// State returns the session's lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// dumpFlightLocked logs the flight recorder's contents — the session's
// final moments — when the session is poisoned.
func (s *Session) dumpFlightLocked(cause string) {
	var sb strings.Builder
	_ = s.flight.WriteDump(&sb)
	errText := ""
	if s.failed != nil {
		errText = s.failed.Error()
	}
	s.logger.Error("session poisoned; dumping flight recorder",
		"session", s.id,
		"config", s.configID,
		"cause", cause,
		"err", errText,
		"consumed", s.det.Consumed(),
		"flight", sb.String(),
	)
}

// maybeSnapshotLocked persists a full session snapshot every snapEvery
// applied chunks, compacting the WAL, and reports whether this call hit
// a cadence point (so the caller can attribute the time). A snapshot
// failure is not fatal: the WAL still holds everything since the last
// snapshot, so the session stays recoverable and the next cadence point
// retries.
func (s *Session) maybeSnapshotLocked() bool {
	if s.log == nil || s.brk.open {
		// A degraded session's snapshots go through the heal probe, not
		// the cadence — pointless disk writes while the breaker is open.
		return false
	}
	s.sinceSnap++
	if s.sinceSnap < s.snapEvery {
		return false
	}
	if s.snapshotLocked() == nil {
		s.sinceSnap = 0
	}
	return true
}

// snapshotLocked persists the session's full state to its log.
func (s *Session) snapshotLocked() error {
	sb := snapBufPool.Get().(*snapBuf)
	defer snapBufPool.Put(sb)
	payload, err := s.encodeSnapshotLocked(sb)
	if err != nil {
		return err
	}
	return s.log.Snapshot(payload)
}

// persistClose is the graceful-shutdown path for durable sessions: the
// state is snapshotted as-is — the detector is NOT finished, so its
// buffered partial group and open phase survive into the next process —
// and the WAL is fsynced and closed. The in-memory session is abandoned
// (the process is exiting); clients see their connections drop and
// resume against the recovered session after restart.
func (s *Session) persistClose() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return
	}
	if s.state == StateActive {
		_ = s.snapshotLocked()
	}
	s.dropDegradedLocked()
	_ = s.log.Close()
}

// dropDegradedLocked settles the degraded-sessions gauge when a
// degraded session terminates without healing.
func (s *Session) dropDegradedLocked() {
	if !s.brk.open {
		return
	}
	s.brk.open = false
	if s.res != nil {
		s.res.probe.DegradedGone()
		s.res.degraded.Add(-1)
	}
}

// close finishes the session: the detector flushes its buffered partial
// group and closes any open phase (emitting its final phase_end event),
// the state moves to StateClosed, and subscribers are woken so live
// streams can drain and end. Idempotent; a failed session keeps its
// failure state (Finish on a half-mutated model could panic again, so it
// is skipped — its phases were already unusable). A migrated session is
// not finished either: its detector now lives on another node, and
// events emitted here would charge a byte-accountant tab the hand-off
// already released.
func (s *Session) close() *Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateActive && !s.migrated {
		func() {
			defer func() {
				if v := recover(); v != nil {
					s.failed = &sweep.PanicError{Value: v, Stack: debug.Stack()}
					s.state = StateFailed
					s.probe.SessionFailed()
				}
			}()
			s.det.Finish()
			s.state = StateClosed
		}()
	}
	sum := s.summaryLocked() // capture degraded:true before settling the gauge
	s.dropDegradedLocked()
	if s.log != nil {
		// Terminal close: the session's durable state is about to be
		// removed by the manager, so just release the file handle.
		_ = s.log.Close()
	}
	s.wakeLocked()
	return sum
}

// summaryLocked snapshots the terminal (or current) results.
func (s *Session) summaryLocked() *Summary {
	sum := &Summary{
		ID:              s.id,
		Config:          s.configID,
		State:           s.state,
		Consumed:        s.det.Consumed(),
		SimComputations: s.det.SimilarityComputations(),
		EventsTotal:     s.events.next,
		Degraded:        s.brk.open,
	}
	if s.state == StateClosed {
		sum.Phases = append([]interval.Interval{}, s.det.Phases()...)
		sum.AdjustedPhases = append([]interval.Interval{}, s.det.AdjustedPhases()...)
	}
	if s.failed != nil {
		sum.Error = s.failed.Error()
	}
	return sum
}

// Summary snapshots the session's current results.
func (s *Session) Summary() *Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.summaryLocked()
}

// Progress returns the elements consumed so far, whether the detector
// currently reports being in a phase, and the total events emitted.
func (s *Session) Progress() (consumed int64, inPhase bool, eventsTotal uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.det.Consumed(), s.det.State().IsPhase(), s.events.next
}

// StreamProgress is Progress keyed by the streaming resume cursor: the
// applied-chunk count a per-chunk ack reports back to the client.
func (s *Session) StreamProgress() (applied uint64, inPhase bool, eventsTotal uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied, s.det.State().IsPhase(), s.events.next
}

// EventsSince returns the retained events with Seq >= since, the next
// cursor value, and whether the session has terminated (closed or
// failed). Events older than the retention window are silently skipped;
// the returned next cursor always advances past everything returned.
func (s *Session) EventsSince(since uint64) (evs []Event, next uint64, terminated bool) {
	evs, _, next, terminated = s.eventsSinceWall(since)
	return evs, next, terminated
}

// eventsSinceWall is EventsSince also returning each event's log-entry
// wall clock (unix nanoseconds, zero for snapshot-restored events), for
// the SSE path's delivery-lag measurement.
func (s *Session) eventsSinceWall(since uint64) (evs []Event, wall []int64, next uint64, terminated bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs, wall, next = s.events.read(since, s.configID)
	return evs, wall, next, s.state != StateActive || s.migrated
}

// followEvents is the one event-follow loop behind both live event
// surfaces, SSE and the framed stream's pump. It hands write every
// retained event with Seq >= since, then each batch of new events as the
// log grows, and returns once the session has terminated, stop has
// closed, or write reports the stream dead. The last batch carries
// terminated (and may be empty); next is the cursor past the batch.
// Delivery lag, from log entry to write, is recorded for every event
// written except snapshot-restored ones, which carry no wall time.
func (s *Session) followEvents(since uint64, stop <-chan struct{}, write func(evs []Event, next uint64, terminated bool) bool) {
	sub := s.subscribe()
	defer s.unsubscribe(sub)
	for {
		evs, wall, next, terminated := s.eventsSinceWall(since)
		now := time.Now().UnixNano()
		if (len(evs) > 0 || terminated) && !write(evs, next, terminated) {
			return
		}
		for _, w := range wall {
			if w > 0 {
				s.probe.SSELag(now - w)
			}
		}
		if terminated {
			return
		}
		since = next
		select {
		case <-stop:
			return
		case <-sub.notify:
		}
	}
}

// subscribe registers a live event consumer.
func (s *Session) subscribe() *subscriber {
	sub := &subscriber{notify: make(chan struct{}, 1)}
	s.mu.Lock()
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	return sub
}

// unsubscribe removes a live event consumer.
func (s *Session) unsubscribe(sub *subscriber) {
	s.mu.Lock()
	delete(s.subs, sub)
	s.mu.Unlock()
}
