package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"opd/internal/telemetry"
)

// A SessionLog is one session's durable state on disk: a sequence of
// CRC-framed WAL segment files plus periodic snapshot files, all inside
// the session's own directory.
//
// Naming encodes replay positions: wal-<idx>.seg holds records starting
// at record index <idx> (16 hex digits), and snap-<idx>.snap captures
// the session state after every record below <idx> was applied — replay
// restores the newest valid snapshot and applies records from <idx> on.
// Snapshot writes are atomic (temp file, fsync, rename, directory fsync)
// and compact the log by deleting segments and snapshots the new
// snapshot fully covers.
//
// Callers serialize access per log (the serve layer's session mutex);
// the internal mutex only guards against a concurrent Close.
type SessionLog struct {
	dir   string
	opts  Options
	probe *telemetry.DurableProbe

	mu        sync.Mutex
	f         *os.File
	segSize   int64
	nextIdx   uint64   // record index of the next append
	segStarts []uint64 // first record index of each live segment, ascending
	lastSync  time.Time
	closed    bool
	// broken latches when a failed append could not be cut back out of
	// its segment: the log then refuses every append and snapshot, since
	// replay would apply the record its caller was told failed.
	broken error
	// frameBuf is the reusable record-assembly buffer: header plus
	// payload parts gather here so an append is one file write and zero
	// allocations in steady state.
	frameBuf []byte
}

func segName(idx uint64) string  { return fmt.Sprintf("wal-%016x.seg", idx) }
func snapName(idx uint64) string { return fmt.Sprintf("snap-%016x.snap", idx) }

// parseIdx extracts the record index from a segment or snapshot name.
func parseIdx(name, prefix, suffix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, suffix)
	if !ok || len(rest) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(rest, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// syncFile fsyncs f per the log's accounting, returning the fsync's
// duration in nanoseconds.
func (l *SessionLog) syncFile(f *os.File) (int64, error) {
	t0 := time.Now()
	if l.opts.Hook != nil {
		if err := l.opts.Hook("fsync"); err != nil {
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	ns := time.Since(t0).Nanoseconds()
	l.probe.Fsync(ns)
	return ns, nil
}

// syncDir fsyncs the session directory so file creations and renames are
// durable.
func (l *SessionLog) syncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_, err = l.syncFile(d)
	return err
}

// rotate closes the open segment and starts a new one whose first record
// is nextIdx.
func (l *SessionLog) rotate() error {
	if l.f != nil {
		if _, err := l.syncFile(l.f); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.nextIdx)),
		os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.segSize = 0
	l.segStarts = append(l.segStarts, l.nextIdx)
	return l.syncDir()
}

// NextIndex returns the record index the next Append will receive.
func (l *SessionLog) NextIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextIdx
}

// AppendStats attributes one Append's latency: the record write
// (framing + file write, plus any segment rotation) versus the fsync the
// policy issued, if any.
type AppendStats struct {
	WriteNS int64
	FsyncNS int64
}

// Append writes one record to the WAL and makes it as durable as the
// configured fsync policy promises: SyncAlways fsyncs before returning,
// SyncInterval fsyncs when at least the configured interval has passed
// since the last fsync, SyncNever leaves flushing to the OS. A failed
// append leaves no record behind: a write or fsync error cuts the
// segment back to its size before the append, and the record index does
// not advance, so the caller's retry takes the same index. The record's
// payload is the concatenation of parts: the streaming ingest path hands
// the record-type prefix and the wire payload as separate parts and pays
// no intermediate copy or allocation (the record assembles in the log's
// reused frame buffer; the checksum runs incrementally across the
// parts). The returned stats split the latency into write and fsync, for
// the serve layer's stage timers.
func (l *SessionLog) Append(parts ...[]byte) (AppendStats, error) {
	var stats AppendStats
	t0 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return stats, fmt.Errorf("durable: append to closed log %s", l.dir)
	}
	if l.broken != nil {
		return stats, l.broken
	}
	if l.opts.Hook != nil {
		if err := l.opts.Hook("append"); err != nil {
			return stats, fmt.Errorf("durable: appending record %d: %w", l.nextIdx, err)
		}
	}
	if l.f == nil || l.segSize >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return stats, fmt.Errorf("durable: rotating segment: %w", err)
		}
	}
	frame := appendRecordMulti(l.frameBuf[:0], parts)
	l.frameBuf = frame[:0]
	if _, err := l.f.Write(frame); err != nil {
		return stats, l.cutBack(fmt.Errorf("durable: appending record %d: %w", l.nextIdx, err))
	}
	stats.WriteNS = time.Since(t0).Nanoseconds()
	l.probe.Append(int64(len(frame)), stats.WriteNS)
	switch l.opts.Policy {
	case SyncAlways:
		ns, err := l.syncFile(l.f)
		if err != nil {
			return stats, l.cutBack(fmt.Errorf("durable: fsync after record %d: %w", l.nextIdx, err))
		}
		stats.FsyncNS = ns
	case SyncInterval:
		if now := time.Now(); now.Sub(l.lastSync) >= l.opts.SyncInterval {
			ns, err := l.syncFile(l.f)
			if err != nil {
				return stats, l.cutBack(fmt.Errorf("durable: fsync after record %d: %w", l.nextIdx, err))
			}
			stats.FsyncNS = ns
			l.lastSync = now
		}
	}
	l.segSize += int64(len(frame))
	l.nextIdx++
	return stats, nil
}

// cutBack undoes a failed append by truncating the open segment to its
// size before the append and moving the write offset back there, and
// returns err. If either step fails, the log is broken.
func (l *SessionLog) cutBack(err error) error {
	var cerr error
	if l.opts.Hook != nil {
		cerr = l.opts.Hook("truncate")
	}
	if cerr == nil {
		cerr = l.f.Truncate(l.segSize)
	}
	if cerr == nil {
		_, cerr = l.f.Seek(l.segSize, io.SeekStart)
	}
	if cerr != nil {
		l.broken = fmt.Errorf("durable: log %s refuses appends: cutting back record %d failed: %w (after %w)",
			l.dir, l.nextIdx, cerr, err)
	}
	return err
}

// Snapshot atomically persists a session snapshot covering every record
// appended so far, then compacts: segments and snapshots the new
// snapshot fully covers are deleted. On any error the previous snapshot
// and all WAL segments survive, so the session stays recoverable.
func (l *SessionLog) Snapshot(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("durable: snapshot on closed log %s", l.dir)
	}
	if l.broken != nil {
		return l.broken
	}
	idx := l.nextIdx
	t0 := time.Now()
	err := l.writeSnapshot(idx, payload)
	l.probe.Snapshot(time.Since(t0).Nanoseconds(), err != nil)
	if err != nil {
		return err
	}
	l.compact(idx)
	return nil
}

func (l *SessionLog) writeSnapshot(idx uint64, payload []byte) error {
	if l.opts.Hook != nil {
		if err := l.opts.Hook("snapshot"); err != nil {
			return fmt.Errorf("durable: writing snapshot: %w", err)
		}
	}
	tmp := filepath.Join(l.dir, "snap.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: creating snapshot temp: %w", err)
	}
	// The header and the payload go out as two writes, so the payload is
	// never copied into a framed buffer.
	h := recordHeader(payload)
	if _, err := f.Write(h[:]); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing snapshot: %w", err)
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing snapshot: %w", err)
	}
	if _, err := l.syncFile(f); err != nil {
		f.Close()
		return fmt.Errorf("durable: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName(idx))); err != nil {
		return fmt.Errorf("durable: publishing snapshot: %w", err)
	}
	return l.syncDir()
}

// compact deletes WAL segments whose every record index is below idx and
// snapshots older than idx. The open segment is never deleted.
func (l *SessionLog) compact(idx uint64) {
	for len(l.segStarts) >= 2 && l.segStarts[1] <= idx {
		os.Remove(filepath.Join(l.dir, segName(l.segStarts[0])))
		l.segStarts = l.segStarts[1:]
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if v, ok := parseIdx(e.Name(), "snap-", ".snap"); ok && v < idx {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
}

// Close fsyncs and closes the open segment. The log must not be used
// afterwards; it is safe to call twice.
func (l *SessionLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	_, err := l.syncFile(l.f)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// sortedIdx lists the indices parsed from directory entries matching
// prefix/suffix, ascending.
func sortedIdx(entries []os.DirEntry, prefix, suffix string) []uint64 {
	var out []uint64
	for _, e := range entries {
		if v, ok := parseIdx(e.Name(), prefix, suffix); ok {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
