package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opd/internal/core"
	"opd/internal/durable"
	"opd/internal/telemetry"
)

// Admission errors. Handlers map these onto HTTP statuses (429, 413).
var (
	// ErrTooManySessions reports the session-count cap.
	ErrTooManySessions = errors.New("serve: too many sessions")
	// ErrWindowTooLarge reports the per-session window-memory cap.
	ErrWindowTooLarge = errors.New("serve: window memory over limit")
	// ErrDraining reports a manager that is shutting down.
	ErrDraining = errors.New("serve: server shutting down")
)

// Options tunes the session manager and the HTTP surface built on it.
// The zero value gets production-ish defaults (see the field docs).
type Options struct {
	// MaxSessions caps live sessions; opens beyond it are rejected with
	// ErrTooManySessions (HTTP 429). 0 means 1024.
	MaxSessions int
	// MaxWindowElems caps a session's window memory, measured in profile
	// elements across the current and trailing windows (CW + TW); opens
	// beyond it are rejected with ErrWindowTooLarge (HTTP 413).
	// 0 means 1<<20.
	MaxWindowElems int
	// MaxChunkBytes caps one ingest request's body (HTTP 413 beyond).
	// 0 means 8 MiB.
	MaxChunkBytes int64
	// IdleTimeout evicts sessions not touched for this long, flushing
	// their open phases. 0 means 5 minutes; negative disables.
	IdleTimeout time.Duration
	// MaxAge evicts sessions older than this regardless of activity
	// (the hard TTL). 0 or negative disables.
	MaxAge time.Duration
	// SweepInterval is the eviction janitor's period. 0 means 15s.
	SweepInterval time.Duration
	// MaxEventsRetained bounds a session's in-memory event log; older
	// events are dropped (pollers see a gap, counted by Seq). 0 means
	// 65536.
	MaxEventsRetained int
	// NewDetector overrides detector construction — the fault-injection
	// seam, mirroring sweep.Options.NewDetector. nil means cfg.New().
	NewDetector func(cfg core.Config) (*core.Detector, error)
	// Registry receives server telemetry and is mounted at /metrics and
	// /debug/phasedet. nil disables instrumentation and those endpoints
	// serve empty output.
	Registry *telemetry.Registry
	// Store persists sessions when non-nil: every chunk is WAL-appended
	// before it is applied, the full session state is snapshotted every
	// SnapshotEvery chunks, and Manager.Recover rebuilds live sessions
	// from disk after a crash or restart. nil runs in-memory only.
	Store *durable.Store
	// SnapshotEvery is the snapshot cadence in applied chunks. 0 means 64.
	SnapshotEvery int
	// FlightChunks is how many recent chunk traces each session's flight
	// recorder retains for post-mortems. 0 means 64.
	FlightChunks int
	// Logger receives structured lifecycle and post-mortem logs (session
	// open/close/evict/fail, flight-recorder dumps, request logs). nil
	// discards them.
	Logger *slog.Logger

	// MemBudgetBytes caps the serving layer's accounted memory (session
	// base cost, window memory, retained events, stream buffers,
	// in-flight ingest chunks). Past 80% of the budget new session opens
	// are shed (429 + Retry-After) and the janitor pressure-evicts
	// idle/largest sessions; past the budget ingest chunks are shed with
	// a retryable error. 0 means 512 MiB; negative disables shedding
	// (accounting still runs).
	MemBudgetBytes int64
	// Durability selects the WAL-failure policy for durable sessions:
	// DurabilityStrict (default) fails chunks closed with 503,
	// DurabilityDegraded trips a per-session breaker and continues
	// detection ephemerally. Ignored without a Store.
	Durability DurabilityPolicy
	// WALFailureLimit is the degraded policy's breaker threshold:
	// consecutive WAL failures before a session stops writing to disk.
	// 0 means 3.
	WALFailureLimit int
	// WALProbeInterval is the tripped breaker's initial probe backoff;
	// it doubles per failed probe up to WALProbeMax. 0 means 1s.
	WALProbeInterval time.Duration
	// WALProbeMax caps the probe backoff. 0 means 30s.
	WALProbeMax time.Duration
	// MinDiskFreeBytes is the disk-free watermark: durability does not
	// start (at boot) or resume (after a degraded spell) unless the data
	// directory's filesystem has at least this many bytes free. 0 means
	// 128 MiB; negative disables the check.
	MinDiskFreeBytes int64
	// HeartbeatInterval bounds a framed stream connection's read
	// silence: after one interval with no client frames the server sends
	// a Ping, after a second it disconnects. 0 means 30s; negative
	// disables.
	HeartbeatInterval time.Duration
	// StreamWriteTimeout bounds one write on a framed stream connection
	// (acks, events, pings); a slower peer is disconnected and resumes
	// via its cursor. 0 means 15s; negative disables.
	StreamWriteTimeout time.Duration
	// SSEWriteTimeout bounds one SSE event write; a slower subscriber is
	// dropped (it resumes via Last-Event-ID) instead of blocking the
	// event pump. 0 means 15s; negative disables.
	SSEWriteTimeout time.Duration
	// WatchdogDeadline bounds how long one chunk may hold a session's
	// detect mutex. A session past it is condemned: its flight recorder
	// is dumped, new work fast-fails, and it transitions to failed when
	// the stuck apply returns. 0 means 60s; negative disables.
	WatchdogDeadline time.Duration
}

// withDefaults resolves the zero-value conventions.
func (o Options) withDefaults() Options {
	if o.MaxSessions == 0 {
		o.MaxSessions = 1024
	}
	if o.MaxWindowElems == 0 {
		o.MaxWindowElems = 1 << 20
	}
	if o.MaxChunkBytes == 0 {
		o.MaxChunkBytes = 8 << 20
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.SweepInterval == 0 {
		o.SweepInterval = 15 * time.Second
	}
	if o.MaxEventsRetained == 0 {
		o.MaxEventsRetained = 65536
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 64
	}
	if o.FlightChunks == 0 {
		o.FlightChunks = 64
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.NewDetector == nil {
		o.NewDetector = func(cfg core.Config) (*core.Detector, error) { return cfg.New() }
	}
	if o.MemBudgetBytes == 0 {
		o.MemBudgetBytes = 512 << 20
	}
	if o.WALFailureLimit == 0 {
		o.WALFailureLimit = 3
	}
	if o.WALProbeInterval == 0 {
		o.WALProbeInterval = time.Second
	}
	if o.WALProbeMax == 0 {
		o.WALProbeMax = 30 * time.Second
	}
	if o.MinDiskFreeBytes == 0 {
		o.MinDiskFreeBytes = 128 << 20
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 30 * time.Second
	}
	if o.StreamWriteTimeout == 0 {
		o.StreamWriteTimeout = 15 * time.Second
	}
	if o.SSEWriteTimeout == 0 {
		o.SSEWriteTimeout = 15 * time.Second
	}
	if o.WatchdogDeadline == 0 {
		o.WatchdogDeadline = 60 * time.Second
	}
	return o
}

// shardCount is the session map's shard fan-out. Sixteen shards keep
// map contention negligible against thousands of concurrent sessions
// while the janitor scans.
const shardCount = 16

type shard struct {
	mu       sync.RWMutex
	sessions map[string]*Session
}

// A Manager owns the live sessions: admission (caps), lookup (sharded),
// and reclamation (idle/TTL janitor, shutdown flush).
type Manager struct {
	opts   Options
	shards [shardCount]*shard
	active atomic.Int64
	drain  atomic.Bool
	probe  *telemetry.ServeProbe
	dprobe *telemetry.DurableProbe
	res    *resilienceCtl

	stopOnce sync.Once
	stop     chan struct{}
	stopped  chan struct{}
	wdDone   chan struct{}
}

// NewManager builds a manager and starts its eviction janitor (and,
// when a watchdog deadline is configured, the stuck-session watchdog).
func NewManager(opts Options) *Manager {
	m := &Manager{
		opts:    opts.withDefaults(),
		probe:   telemetry.NewServeProbe(opts.Registry),
		dprobe:  telemetry.NewDurableProbe(opts.Registry),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
		wdDone:  make(chan struct{}),
	}
	rprobe := telemetry.NewResilienceProbe(opts.Registry)
	dataDir := ""
	if m.opts.Store != nil {
		dataDir = m.opts.Store.Dir()
	}
	m.res = &resilienceCtl{
		gov:          newGovernor(m.opts.MemBudgetBytes, rprobe),
		probe:        rprobe,
		logger:       m.opts.Logger,
		policy:       m.opts.Durability,
		breakerLimit: m.opts.WALFailureLimit,
		probeMin:     m.opts.WALProbeInterval,
		probeMax:     m.opts.WALProbeMax,
		minDiskFree:  m.opts.MinDiskFreeBytes,
		dataDir:      dataDir,
		heartbeat:    m.opts.HeartbeatInterval,
		streamWrite:  m.opts.StreamWriteTimeout,
		sseWrite:     m.opts.SSEWriteTimeout,
		watchdog:     m.opts.WatchdogDeadline,
	}
	for i := range m.shards {
		m.shards[i] = &shard{sessions: map[string]*Session{}}
	}
	go m.janitor()
	if m.res.watchdog > 0 {
		go m.watchdog()
	} else {
		close(m.wdDone)
	}
	return m
}

// shardFor picks the shard owning a session ID.
func (m *Manager) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return m.shards[h.Sum32()%shardCount]
}

// newID mints a 128-bit random session identifier.
func newID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: reading random session id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Open validates the configuration, checks the admission caps, and
// creates a live session under a freshly minted ID.
func (m *Manager) Open(cfg core.Config) (*Session, error) {
	if m.drain.Load() {
		return nil, ErrDraining
	}
	return m.openAs(newID(), cfg)
}

// admit runs the shared admission gauntlet: config validity, the
// window-memory cap, the byte governor's soft watermark, and the
// session-count cap. On success the active-count slot is held; every
// caller failure path must release it with active.Add(-1).
func (m *Manager) admit(cfg core.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	// The window-memory cap: CW + TW elements is the session's dominant
	// steady-state footprint (counter slices scale with trace
	// cardinality, bounded by window size).
	tw := cfg.TWSize
	if tw == 0 {
		tw = cfg.CWSize
	}
	if windowElems := cfg.CWSize + tw; windowElems > m.opts.MaxWindowElems {
		m.probe.SessionRejected()
		return fmt.Errorf("%w: cw+tw = %d elements, limit %d",
			ErrWindowTooLarge, windowElems, m.opts.MaxWindowElems)
	}
	if g := m.res.gov; g.OverSoft() {
		// Soft-watermark shedding: protect existing sessions by turning
		// away new ones until eviction brings occupancy back down.
		m.probe.SessionRejected()
		m.res.probe.ShedOpen()
		m.opts.Logger.Warn("session open shed: memory over soft watermark",
			"used_bytes", g.Used(), "budget_bytes", m.opts.MemBudgetBytes)
		return fmt.Errorf("%w: accounted memory at %d of %d bytes",
			ErrOverloaded, g.Used(), m.opts.MemBudgetBytes)
	}
	if n := m.active.Add(1); n > int64(m.opts.MaxSessions) {
		m.active.Add(-1)
		m.probe.SessionRejected()
		m.res.probe.ShedOpen()
		return fmt.Errorf("%w: %d live, limit %d",
			ErrTooManySessions, n-1, m.opts.MaxSessions)
	}
	return nil
}

// openAs admits and creates a live session under the given ID (minted
// by Open, or caller-chosen on the adoption path, where a duplicate is
// refused rather than overwritten).
func (m *Manager) openAs(id string, cfg core.Config) (*Session, error) {
	if err := m.admit(cfg); err != nil {
		return nil, err
	}
	det, err := m.opts.NewDetector(cfg)
	if err != nil {
		m.active.Add(-1)
		return nil, err
	}
	s := newSession(id, cfg, det, m.opts.MaxEventsRetained, m.opts.FlightChunks, m.probe, m.res, m.opts.Logger)
	s.chargeMem(sessionBaseCost(cfg))
	if m.opts.Store != nil {
		if err := m.attachDurable(s); err != nil {
			s.releaseMemAll()
			m.active.Add(-1)
			if errors.Is(err, fs.ErrExist) {
				return nil, ErrAdoptExists
			}
			return nil, fmt.Errorf("%w: %w", ErrPersist, err)
		}
	}
	sh := m.shardFor(s.id)
	sh.mu.Lock()
	if _, dup := sh.sessions[s.id]; dup {
		sh.mu.Unlock()
		if s.log != nil {
			_ = s.log.Close()
			_ = m.opts.Store.Remove(s.id)
		}
		s.releaseMemAll()
		m.active.Add(-1)
		return nil, ErrAdoptExists
	}
	sh.sessions[s.id] = s
	sh.mu.Unlock()
	m.probe.SessionOpened()
	m.opts.Logger.Info("session opened", "session", s.id, "config", s.configID, "durable", m.opts.Store != nil)
	return s, nil
}

// attachDurable gives a new session its log and writes the initial
// snapshot. The initial snapshot is what makes the session recoverable
// at all — the WAL holds only elements, so the configuration must land
// on disk before the first chunk is acknowledged.
func (m *Manager) attachDurable(s *Session) error {
	log, err := m.opts.Store.Create(s.id)
	if err != nil {
		return err
	}
	s.log = log
	s.snapEvery = m.opts.SnapshotEvery
	if err := s.snapshotLocked(); err != nil {
		log.Close()
		_ = m.opts.Store.Remove(s.id)
		s.log = nil
		return err
	}
	return nil
}

// removeDurable deletes a terminal session's on-disk state.
func (m *Manager) removeDurable(id string) {
	if m.opts.Store != nil {
		_ = m.opts.Store.Remove(id)
	}
}

// sessionBaseCost is what one session charges the byte accountant at
// open: fixed overhead plus its window memory (the detector's dominant
// steady-state footprint).
func sessionBaseCost(cfg core.Config) int64 {
	tw := cfg.TWSize
	if tw == 0 {
		tw = cfg.CWSize
	}
	return sessionBaseBytes + int64(cfg.CWSize+tw)*windowElemBytes
}

// MemUsed reports the byte accountant's current occupancy.
func (m *Manager) MemUsed() int64 { return m.res.gov.Used() }

// DegradedSessions reports how many sessions are currently running
// without durability (WAL breaker open).
func (m *Manager) DegradedSessions() int64 { return m.res.degraded.Load() }

// Get looks a live session up by ID.
func (m *Manager) Get(id string) (*Session, bool) {
	sh := m.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	sh.mu.RUnlock()
	return s, ok
}

// Len returns the number of live sessions.
func (m *Manager) Len() int { return int(m.active.Load()) }

// remove unlinks a session from its shard; it reports whether this call
// was the one that removed it (losers of a close/evict race do nothing).
func (m *Manager) remove(id string) bool {
	sh := m.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	delete(sh.sessions, id)
	sh.mu.Unlock()
	if ok {
		m.active.Add(-1)
		s.releaseMemAll()
	}
	return ok
}

// Close finishes a session (flushing its open phase) and removes it,
// returning the terminal summary.
func (m *Manager) Close(id string) (*Summary, bool) {
	s, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	sum := s.close()
	if m.remove(id) {
		m.probe.SessionClosed(false)
		m.removeDurable(id)
		m.opts.Logger.Info("session closed", "session", id,
			"consumed", sum.Consumed, "events", sum.EventsTotal, "state", string(sum.State))
	}
	return sum, true
}

// janitor periodically reclaims idle and over-age sessions.
func (m *Manager) janitor() {
	defer close(m.stopped)
	t := time.NewTicker(m.opts.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			now := time.Now()
			m.evictExpired(now)
			m.shedPressure(now)
		}
	}
}

// evictExpired finishes and removes every session idle past IdleTimeout
// or older than MaxAge. Open phases are flushed, so a straggling SSE
// consumer still receives the final phase_end before its stream ends.
func (m *Manager) evictExpired(now time.Time) {
	for _, sh := range m.shards {
		sh.mu.RLock()
		var expired []*Session
		for _, s := range sh.sessions {
			idle := m.opts.IdleTimeout > 0 && now.Sub(s.idleSince()) > m.opts.IdleTimeout
			aged := m.opts.MaxAge > 0 && now.Sub(s.created) > m.opts.MaxAge
			if idle || aged {
				expired = append(expired, s)
			}
		}
		sh.mu.RUnlock()
		for _, s := range expired {
			s.close()
			if m.remove(s.id) {
				m.probe.SessionClosed(true)
				m.removeDurable(s.id)
				m.opts.Logger.Info("session evicted", "session", s.id,
					"idle_since", s.idleSince(), "created", s.created)
			}
		}
	}
}

// shedPressure reclaims memory while the accountant is over the soft
// watermark: sessions are evicted — idle ones first (no client touch
// within one sweep interval), largest tab first within a tier — until
// occupancy drops below the watermark. Evicted sessions get the same
// flush as an idle eviction, so their open phases still reach any live
// stream before it ends.
func (m *Manager) shedPressure(now time.Time) {
	g := m.res.gov
	if !g.OverSoft() {
		return
	}
	type cand struct {
		s     *Session
		idle  time.Duration
		bytes int64
	}
	var cands []cand
	for _, sh := range m.shards {
		sh.mu.RLock()
		for _, s := range sh.sessions {
			cands = append(cands, cand{s, now.Sub(s.idleSince()), s.memBytes.Load()})
		}
		sh.mu.RUnlock()
	}
	idleGrace := m.opts.SweepInterval
	sort.Slice(cands, func(i, j int) bool {
		ii, ji := cands[i].idle >= idleGrace, cands[j].idle >= idleGrace
		if ii != ji {
			return ii
		}
		if cands[i].bytes != cands[j].bytes {
			return cands[i].bytes > cands[j].bytes
		}
		return cands[i].idle > cands[j].idle
	})
	for _, c := range cands {
		if !g.OverSoft() {
			return
		}
		c.s.close()
		if m.remove(c.s.id) {
			m.probe.SessionClosed(true)
			m.res.probe.PressureEvict()
			m.removeDurable(c.s.id)
			m.opts.Logger.Warn("session pressure-evicted: memory over soft watermark",
				"session", c.s.id, "session_bytes", c.bytes, "idle", c.idle.String(),
				"used_bytes", g.Used(), "budget_bytes", m.opts.MemBudgetBytes)
		}
	}
}

// watchdog periodically scans for sessions whose in-flight chunk has
// held the session mutex past the configured deadline and condemns
// them: the flight recorder (independently locked, so readable without
// the stuck mutex) is dumped, new work against the session fast-fails,
// and the session transitions to failed when (if) the stuck apply
// returns.
func (m *Manager) watchdog() {
	defer close(m.wdDone)
	period := m.res.watchdog / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.scanStuck(time.Now())
		}
	}
}

// scanStuck condemns every session whose detect stage has overrun the
// watchdog deadline.
func (m *Manager) scanStuck(now time.Time) {
	dl := m.res.watchdog.Nanoseconds()
	for _, sh := range m.shards {
		sh.mu.RLock()
		var stuck []*Session
		for _, s := range sh.sessions {
			if st := s.detectStart.Load(); st != 0 && now.UnixNano()-st > dl && !s.condemned.Load() {
				stuck = append(stuck, s)
			}
		}
		sh.mu.RUnlock()
		for _, s := range stuck {
			if !s.condemned.CompareAndSwap(false, true) {
				continue
			}
			m.res.probe.WatchdogTrip()
			var sb strings.Builder
			_ = s.flight.WriteDump(&sb)
			m.opts.Logger.Error("watchdog condemned session: detect deadline exceeded",
				"session", s.id, "config", s.configID,
				"deadline", m.res.watchdog.String(), "flight", sb.String())
		}
	}
}

// Shutdown drains the manager: new opens are refused and the janitor
// stops. Without a store, every live session is finished — buffered
// partial groups applied, open phases flushed and their final events
// delivered to any live streams — before it returns. With a store,
// sessions are instead persisted as-is (detectors are NOT finished, so
// open phases and partial groups survive) and come back on the next
// boot's Recover; clients resume after restart.
func (m *Manager) Shutdown() {
	m.drain.Store(true)
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.stopped
	<-m.wdDone
	for _, sh := range m.shards {
		sh.mu.RLock()
		all := make([]*Session, 0, len(sh.sessions))
		for _, s := range sh.sessions {
			all = append(all, s)
		}
		sh.mu.RUnlock()
		for _, s := range all {
			if m.opts.Store != nil {
				s.persistClose()
			} else {
				s.close()
			}
			if m.remove(s.id) {
				m.probe.SessionClosed(false)
			}
		}
	}
}

// Recover rebuilds live sessions from the store's surviving state: for
// each recoverable session the snapshot restores the detector and event
// log, and the post-snapshot WAL records replay through the ordinary
// detector path — phase events regenerate with their original sequence
// numbers, and a chunk that deterministically panics re-poisons exactly
// its own session. Sessions with no usable snapshot (crashed before
// their first snapshot landed) or an undecodable one are dropped and
// their directories removed.
//
// Call once at boot, before admitting traffic.
func (m *Manager) Recover() (recovered, dropped int, err error) {
	if m.opts.Store == nil {
		return 0, 0, nil
	}
	m.dprobe.Recovery()
	recs, err := m.opts.Store.Recover()
	if err != nil {
		return 0, 0, err
	}
	for _, rec := range recs {
		s, rerr := m.recoverSession(rec)
		if rerr != nil {
			if rec.Log() != nil {
				rec.Log().Close()
			}
			_ = m.opts.Store.Remove(rec.ID)
			m.dprobe.SessionDropped()
			m.opts.Logger.Warn("session unrecoverable, dropping", "session", rec.ID, "err", rerr)
			dropped++
			continue
		}
		m.opts.Logger.Info("session recovered", "session", s.id, "config", s.configID,
			"replayed_chunks", len(rec.Records), "state", string(s.State()))
		sh := m.shardFor(s.id)
		sh.mu.Lock()
		sh.sessions[s.id] = s
		sh.mu.Unlock()
		m.active.Add(1)
		m.dprobe.SessionRecovered()
		recovered++
	}
	return recovered, dropped, nil
}

// restoredSession wraps a decoded snapshot in a session, charging its
// base cost and event log: the restored detector, the event log with its
// base, and the streaming-protocol state. WAL replay comes after.
func (m *Manager) restoredSession(id string, rs restoredSnapshot) *Session {
	s := newSession(id, rs.cfg, rs.det, m.opts.MaxEventsRetained, m.opts.FlightChunks, m.probe, m.res, m.opts.Logger)
	s.chargeMem(sessionBaseCost(rs.cfg) + int64(len(rs.events))*eventLogBytes)
	s.events = append(s.events, rs.events...)
	// Restored events get no wall time: SSE lag across a restart or a
	// migration is meaningless, and a zero entry tells the stream path to
	// skip them.
	s.wall = make([]int64, len(rs.events))
	s.base = rs.base
	s.mode = rs.mode
	s.applied = rs.applied
	return s
}

// recoverSession rebuilds one session from its snapshot + WAL tail.
func (m *Manager) recoverSession(rec *durable.Recovered) (*Session, error) {
	if rec.Snapshot == nil {
		return nil, errors.New("serve: no usable snapshot")
	}
	rs, err := decodeSessionSnapshot(rec.Snapshot)
	if err != nil {
		return nil, err
	}
	s := m.restoredSession(rec.ID, rs)
	s.log = rec.Log()
	s.snapEvery = m.opts.SnapshotEvery
	// The durable prefix ends at the first record that does not decode;
	// a record that re-poisons the session, exactly as it did before the
	// crash, leaves the failed session inspectable.
	_ = s.replayWAL(rec.Records, true)
	if s.state == StateActive {
		// Compact: the next crash recovers from here instead of replaying
		// the whole tail again. Failure is fine — the WAL still covers it.
		s.mu.Lock()
		_ = s.snapshotLocked()
		s.mu.Unlock()
	}
	return s, nil
}
