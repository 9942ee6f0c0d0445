package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"

	"opd/internal/core"
)

// Migration errors. Handlers map these onto HTTP statuses.
var (
	// ErrMigrated reports an operation on a session this node has handed
	// off to another node. Streaming clients treat it as retryable — the
	// gateway re-routes the reconnect to the session's new home.
	ErrMigrated = errors.New("serve: session migrated to another node")
	// ErrAdoptExists reports an adoption refused because a session with
	// that ID is already live on this node (HTTP 409).
	ErrAdoptExists = errors.New("serve: session already exists")
)

// Migration blob wire format — the payload POST /v1/sessions/{id}/adopt
// consumes and /export produces:
//
//	magic   "OPDMIGR1"
//	u8      version (1)
//	uvarint snapshot length, then that many bytes (OPDSESS1 payload)
//	uvarint WAL record count, then per record:
//	  uvarint payload length, then that many bytes
//
// The snapshot plus replayed records reproduce the source session's
// exact state (the same invariant crash recovery relies on), so the
// adopting node's detector is bit-identical to the donor's.
const (
	migrMagic   = "OPDMIGR1"
	migrVersion = 1
)

// NewSessionID mints a session identifier in the server's format. The
// cluster gateway mints IDs itself so the consistent-hash placement is
// decided before any node is contacted.
func NewSessionID() string { return newID() }

// ValidSessionID reports whether id is acceptable as a caller-supplied
// session identifier (adoption paths): non-empty, bounded, and free of
// path metacharacters, matching what the durable store accepts as a
// directory name.
func ValidSessionID(id string) bool {
	return id != "" && len(id) <= 128 && !strings.ContainsAny(id, "/\\.")
}

// encodeMigration assembles a migration blob.
func encodeMigration(snapshot []byte, records [][]byte) []byte {
	size := len(migrMagic) + 1 + binary.MaxVarintLen64*2 + len(snapshot)
	for _, r := range records {
		size += binary.MaxVarintLen64 + len(r)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, migrMagic...)
	buf = append(buf, migrVersion)
	buf = binary.AppendUvarint(buf, uint64(len(snapshot)))
	buf = append(buf, snapshot...)
	buf = binary.AppendUvarint(buf, uint64(len(records)))
	for _, r := range records {
		buf = binary.AppendUvarint(buf, uint64(len(r)))
		buf = append(buf, r...)
	}
	return buf
}

// decodeMigration parses a migration blob defensively (it crosses the
// wire between nodes, so it is untrusted input).
func decodeMigration(data []byte) (snapshot []byte, records [][]byte, err error) {
	fail := func(msg string) ([]byte, [][]byte, error) {
		return nil, nil, fmt.Errorf("serve: migration blob: %s", msg)
	}
	if len(data) < len(migrMagic)+1 || string(data[:len(migrMagic)]) != migrMagic {
		return fail("bad magic")
	}
	if v := data[len(migrMagic)]; v != migrVersion {
		return fail(fmt.Sprintf("unsupported version %d", v))
	}
	r := bytes.NewReader(data[len(migrMagic)+1:])
	snapLen, err := binary.ReadUvarint(r)
	if err != nil || snapLen > uint64(r.Len()) {
		return fail("snapshot length")
	}
	snapshot = make([]byte, snapLen)
	if _, err := io.ReadFull(r, snapshot); err != nil {
		return fail("snapshot truncated")
	}
	count, err := binary.ReadUvarint(r)
	// Every record costs at least one length byte, bounding the count by
	// the remaining input — reject absurd counts before allocating.
	if err != nil || count > uint64(r.Len())+1 {
		return fail("record count")
	}
	records = make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		recLen, err := binary.ReadUvarint(r)
		if err != nil || recLen > uint64(r.Len()) {
			return fail("record length")
		}
		rec := make([]byte, recLen)
		if _, err := io.ReadFull(r, rec); err != nil {
			return fail("record truncated")
		}
		records = append(records, rec)
	}
	if r.Len() != 0 {
		return fail("trailing bytes")
	}
	return snapshot, records, nil
}

// Migrated reports whether this session has been handed off to another
// node by a completed export.
func (s *Session) Migrated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.migrated
}

// exportMigrate builds the session's migration blob under the session
// mutex, so no chunk can land between the export and (with remove) the
// hand-off mark. Durable sessions with a clean breaker export their
// on-disk snapshot + WAL tail — bit-identical to memory, because every
// applied chunk was WAL-appended first under this same mutex. Everything
// else (in-memory sessions, degraded spells, a disk the export walk
// cannot trust) falls back to encoding a fresh snapshot with an empty
// tail, which is the complete current state by construction.
//
// With remove set the session is marked migrated before the mutex drops:
// queued feeds and stream frames fail with ErrMigrated (retryable — the
// client redials through the gateway to the new home), event streams are
// woken so they end without a terminal marker, and the log is closed.
// The caller owns removing the session from the manager afterwards.
func (s *Session) exportMigrate(remove bool) ([]byte, error) {
	s.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return nil, err
	}
	var blob []byte
	if s.log != nil && !s.brk.open {
		if snap, recs, err := s.log.ExportState(); err == nil {
			blob = encodeMigration(snap, recs)
		}
	}
	if blob == nil {
		snap, err := s.encodeSnapshotLocked()
		if err != nil {
			return nil, err
		}
		blob = encodeMigration(snap, nil)
	}
	if remove {
		s.migrated = true
		s.dropDegradedLocked()
		if s.log != nil {
			_ = s.log.Close()
		}
		s.wakeLocked()
	}
	return blob, nil
}

// Export builds the migration blob for a live session. With remove set
// the session is atomically marked migrated and taken out of the
// manager: its durable directory is deleted (the blob is the hand-off;
// the adopting node re-persists it), its admission capacity is released,
// and clients redialing through the gateway land on the new home.
func (m *Manager) Export(id string, remove bool) ([]byte, error) {
	s, ok := m.Get(id)
	if !ok {
		return nil, ErrClosed
	}
	blob, err := s.exportMigrate(remove)
	if err != nil {
		return nil, err
	}
	if remove && m.remove(id) {
		m.probe.SessionClosed(false)
		m.removeDurable(id)
		m.opts.Logger.Info("session exported for migration", "session", id,
			"config", s.configID, "blob_bytes", len(blob))
	}
	return blob, nil
}

// Adopt rebuilds a migrated session from its blob and admits it as a
// live session under the given ID: the snapshot restores the detector
// and event log, the WAL tail replays through the ordinary detector
// path (phase events regenerate with their original sequence numbers),
// and — when this node is durable — the state is re-persisted with a
// fresh compact snapshot, so the adoptee is as crash-safe here as it
// was at home.
func (m *Manager) Adopt(id string, blob []byte) (*Session, error) {
	if m.drain.Load() {
		return nil, ErrDraining
	}
	if !ValidSessionID(id) {
		return nil, fmt.Errorf("serve: invalid session id %q", id)
	}
	if _, ok := m.Get(id); ok {
		return nil, ErrAdoptExists
	}
	snapBytes, records, err := decodeMigration(blob)
	if err != nil {
		return nil, err
	}
	rs, err := decodeSessionSnapshot(snapBytes)
	if err != nil {
		return nil, err
	}
	if err := m.admit(rs.cfg); err != nil {
		return nil, err
	}
	// Admission slot held from here; every failure path must release it.
	release := func(s *Session) {
		if s != nil {
			s.releaseMemAll()
		}
		m.active.Add(-1)
	}
	s := m.restoredSession(id, rs)
	// Unlike boot recovery, which keeps a poisoned session inspectable,
	// adoption fails outright on the first bad record: the donor's copy
	// still exists (or the gateway holds the blob), so refusing a bad
	// import is safe and a half-replayed adoptee is not.
	if err := s.replayWAL(records, false); err != nil {
		release(s)
		return nil, fmt.Errorf("serve: adopt %s: %w", id, err)
	}
	if m.opts.Store != nil {
		if err := m.attachDurable(s); err != nil {
			release(s)
			if errors.Is(err, fs.ErrExist) {
				return nil, ErrAdoptExists
			}
			return nil, fmt.Errorf("%w: %w", ErrPersist, err)
		}
	}
	sh := m.shardFor(id)
	sh.mu.Lock()
	if _, dup := sh.sessions[id]; dup {
		sh.mu.Unlock()
		if s.log != nil {
			_ = s.log.Close()
			_ = m.opts.Store.Remove(id)
		}
		release(s)
		return nil, ErrAdoptExists
	}
	sh.sessions[id] = s
	sh.mu.Unlock()
	m.probe.SessionOpened()
	m.opts.Logger.Info("session adopted", "session", id, "config", s.configID,
		"replayed_chunks", len(records), "applied", s.applied, "durable", m.opts.Store != nil)
	return s, nil
}

// AdoptFresh creates a brand-new session under a caller-chosen ID — the
// gateway's open path, where the ID must be minted (and hashed to a
// node) before any node is contacted.
func (m *Manager) AdoptFresh(id string, cfg core.Config) (*Session, error) {
	if m.drain.Load() {
		return nil, ErrDraining
	}
	if !ValidSessionID(id) {
		return nil, fmt.Errorf("serve: invalid session id %q", id)
	}
	if _, ok := m.Get(id); ok {
		return nil, ErrAdoptExists
	}
	return m.openAs(id, cfg)
}

// Draining reports whether the manager has begun shutting down (or was
// put into drain by a cluster hand-off); /readyz surfaces it so the
// gateway's health prober stops routing new sessions here.
func (m *Manager) Draining() bool { return m.drain.Load() }
