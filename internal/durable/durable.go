// Package durable is the streaming server's crash-safety layer: a
// per-session write-ahead log plus periodic snapshot store, built so a
// kill -9 at any byte offset recovers to a prefix-consistent state.
//
// Layout under the data directory:
//
//	<dir>/sessions/<session-id>/
//	    snap-<idx>.snap   session snapshot covering records [0, idx)
//	    wal-<idx>.seg     CRC-framed records starting at index <idx>
//
// Every record and snapshot is CRC-32C framed (see record.go). On open,
// the recovery scan walks each session's segments from the newest valid
// snapshot forward; the first torn or corrupt record ends the durable
// prefix — the tail is physically truncated, later segments are deleted,
// and everything before the damage replays exactly. A record is applied
// either whole or not at all, never torn.
//
// The layer stores opaque payloads: what a "session snapshot" or a "WAL
// record" contains is the serve layer's contract (internal/serve
// encodes the detector checkpoint, event-log state, and chunk elements).
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"opd/internal/telemetry"
)

// SyncPolicy selects when WAL appends are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs every append before acknowledging it: an
	// acknowledged chunk survives any crash. The slowest and safest
	// policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on the first append after the configured
	// interval has elapsed: a crash loses at most the last interval's
	// acknowledged appends (plus any idle tail not yet followed by an
	// append or Close).
	SyncInterval
	// SyncNever leaves flushing to the operating system: a process crash
	// loses nothing (the page cache survives), a machine crash may lose
	// everything since the last snapshot.
	SyncNever
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy resolves a -fsync flag value: "always", "never", or a
// Go duration (e.g. "100ms") selecting SyncInterval with that interval.
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch s {
	case "always":
		return SyncAlways, 0, nil
	case "never":
		return SyncNever, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("durable: fsync policy %q is not \"always\", \"never\", or a positive duration", s)
	}
	return SyncInterval, d, nil
}

// Options configures a Store.
type Options struct {
	// Dir is the data directory root. Created if missing.
	Dir string
	// Policy selects the WAL fsync policy. Default SyncAlways.
	Policy SyncPolicy
	// SyncInterval is the SyncInterval policy's flush period. 0 means
	// 100ms.
	SyncInterval time.Duration
	// SegmentBytes caps one WAL segment file. 0 means 4 MiB.
	SegmentBytes int64
	// Registry receives opd_durable_* telemetry. nil disables it.
	Registry *telemetry.Registry
	// Hook, when non-nil, runs before each disk operation with the
	// operation name ("append", "fsync", "snapshot", and "truncate" for
	// cutting a failed append back out of its segment); a non-nil return
	// fails the operation with that error. It exists as a fault-injection
	// seam — chaos tests arm it to simulate a failing disk without
	// filesystem tricks. nil (the default) costs one branch.
	Hook func(op string) error
}

func (o Options) withDefaults() Options {
	if o.SyncInterval == 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// A Store owns a data directory of per-session logs.
type Store struct {
	opts  Options
	root  string // <dir>/sessions
	probe *telemetry.DurableProbe
}

// Open prepares the data directory and returns the store. It does not
// read existing state — call Recover for that.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	root := filepath.Join(opts.Dir, "sessions")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("durable: preparing data dir: %w", err)
	}
	return &Store{opts: opts, root: root, probe: telemetry.NewDurableProbe(opts.Registry)}, nil
}

// Dir returns the store's data directory root.
func (s *Store) Dir() string { return s.opts.Dir }

// sessionDir validates an id and returns its directory path. IDs come
// from the session manager (hex), but recovery also reads directory
// names back, so path metacharacters are rejected defensively.
func (s *Store) sessionDir(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\.") {
		return "", fmt.Errorf("durable: invalid session id %q", id)
	}
	return filepath.Join(s.root, id), nil
}

// Create makes the session's directory and opens its log positioned at
// record index zero.
func (s *Store) Create(id string) (*SessionLog, error) {
	dir, err := s.sessionDir(id)
	if err != nil {
		return nil, err
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating session dir: %w", err)
	}
	return &SessionLog{dir: dir, opts: s.opts, probe: s.probe}, nil
}

// Remove deletes a session's durable state entirely (client close,
// eviction, or an unrecoverable directory).
func (s *Store) Remove(id string) error {
	dir, err := s.sessionDir(id)
	if err != nil {
		return err
	}
	return os.RemoveAll(dir)
}
