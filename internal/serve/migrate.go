package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// Exports carry an empty record list: the snapshot is the session's
// complete current state. Blobs written by older nodes carry the WAL
// records after an on-disk snapshot, and adoption still replays them.
// Either way the adopting node's detector is bit-identical to the
// donor's.
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

// encodeMigration assembles a migration blob from a session snapshot,
// with no WAL records.
func encodeMigration(snapshot []byte) []byte {
	buf := make([]byte, 0, len(migrMagic)+1+binary.MaxVarintLen64+len(snapshot)+1)
	buf = append(buf, migrMagic...)
	buf = append(buf, migrVersion)
	buf = binary.AppendUvarint(buf, uint64(len(snapshot)))
	buf = append(buf, snapshot...)
	return binary.AppendUvarint(buf, 0)
}

// decodeMigration parses a migration blob defensively (it crosses the
// wire between nodes, so it is untrusted input). The snapshot and the
// records are sub-slices of data, each capped at its own end; restore
// decodes out of them and keeps none.
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
	rest := data[len(migrMagic)+1:]
	snapLen, n := binary.Uvarint(rest)
	if n <= 0 || snapLen > uint64(len(rest)-n) {
		return fail("snapshot length")
	}
	rest = rest[n:]
	snapshot, rest = rest[:snapLen:snapLen], rest[snapLen:]
	count, n := binary.Uvarint(rest)
	// Every record costs at least one length byte, bounding the count by
	// the remaining input — reject absurd counts before allocating.
	if n <= 0 || count > uint64(len(rest)-n)+1 {
		return fail("record count")
	}
	rest = rest[n:]
	records = make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		recLen, n := binary.Uvarint(rest)
		if n <= 0 || recLen > uint64(len(rest)-n) {
			return fail("record length")
		}
		rest = rest[n:]
		records = append(records, rest[:recLen:recLen])
		rest = rest[recLen:]
	}
	if len(rest) != 0 {
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

// exportMigrate builds the session's migration blob — a fresh snapshot
// of its complete state — under the session mutex, so no chunk can land
// between the export and (with remove) the hand-off mark.
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
	sb := snapBufPool.Get().(*snapBuf)
	defer snapBufPool.Put(sb)
	snap, err := s.encodeSnapshotLocked(sb)
	if err != nil {
		return nil, err
	}
	if remove {
		s.migrated = true
		s.dropDegradedLocked()
		if s.log != nil {
			_ = s.log.Close()
		}
		s.wakeLocked()
	}
	return encodeMigration(snap), nil
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

// Adopt rebuilds a migrated session from its blob through restore and
// links it as a live session under the given ID. The blob's snapshot
// restores the detector and event log, and any WAL records it carries
// replay on top. On a durable node the adoptee is re-persisted with a
// fresh compact snapshot, so it is as crash-safe here as it was at home.
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
	snapshot, records, err := decodeMigration(blob)
	if err != nil {
		return nil, err
	}
	s, err := m.restore(id, snapshot, records, nil)
	if err != nil {
		return nil, err
	}
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
