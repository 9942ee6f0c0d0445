package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"opd/internal/core"
	"opd/internal/trace"
)

// ErrPersist reports that a session's durable state could not be written
// (or a session could not be admitted durably). Handlers map it to HTTP
// 503: the chunk was NOT applied, so the client may retry it verbatim.
var ErrPersist = errors.New("serve: session persistence failed")

// Session snapshot wire format (the payload handed to durable.SessionLog
// snapshots; the durable layer adds CRC framing on top):
//
//	magic   "OPDSESS1"
//	u8      version (2; version-1 payloads still decode)
//	uvarint detector snapshot length, then that many bytes (core format)
//	uvarint event-log base (Seq of the first retained event)
//	uvarint retained event count, then per event:
//	  u8     kind (0 = phase_start, 1 = phase_end)
//	  varint At, V1, V2
//	u8      ingest mode (version ≥ 2; 0 = branch, 1 = dense-ID)
//	uvarint applied chunk count (version ≥ 2; the resume cursor)
//
// The event log is part of the snapshot so Seq numbers stay absolute
// across restarts: WAL replay regenerates the post-snapshot events
// through the detector hooks, continuing the sequence exactly. The mode
// and cursor restore the streaming-protocol state: a version-1 snapshot
// (written before the streaming protocol existed) implies branch mode
// with a zero cursor. The dense-ID symbol table is NOT stored here: the
// detector snapshot carries the detector's own symbol table, which in an
// ID-mode session is the negotiated table.
const (
	sessSnapMagic   = "OPDSESS1"
	sessSnapVersion = 2
)

// WAL record-type prefixes for the dense-ID streaming protocol. A
// branch-mode chunk record is a raw OPDBRNC1 stream and is recognized by
// its magic's first byte 'O' (0x4F); symbol-extension and ID-chunk
// records carry one of these prefix bytes ahead of the wire payload.
// Replay dispatches on the first byte, so pre-protocol logs (all raw
// OPDBRNC1) replay unchanged.
const (
	walRecSyms byte = 0x01
	walRecIDs  byte = 0x02
)

// Single-byte prefix slices for zero-allocation multi-part WAL appends.
var (
	walPrefixSyms = []byte{walRecSyms}
	walPrefixIDs  = []byte{walRecIDs}
)

// walPrefix is an ingest record kind's WAL record-type prefix: none for a
// branch chunk, whose OPDBRNC1 magic identifies it.
func walPrefix(kind trace.FrameType) []byte {
	switch kind {
	case trace.FrameSyms:
		return walPrefixSyms
	case trace.FrameIDs:
		return walPrefixIDs
	}
	return nil
}

// snapHeadRoom is the room a checkpoint buffer leaves ahead of the
// detector snapshot for the header in front of it: the magic, the version
// and the snapshot's uvarint length.
const snapHeadRoom = len(sessSnapMagic) + 1 + binary.MaxVarintLen64

// A snapBuf is one checkpoint's buffer. snapBufPool recycles them across
// sessions: a checkpoint is built and written (or, for an export, copied
// into its blob) under one hold of the session mutex, and the buffer goes
// back to the pool afterwards.
type snapBuf struct{ b []byte }

var snapBufPool = sync.Pool{New: func() any { return new(snapBuf) }}

// encodeSnapshotLocked serializes the session's durable state into sb and
// returns the payload, which aliases sb's buffer. The detector writes its
// snapshot straight into the buffer behind snapHeadRoom bytes, and the
// header, once the snapshot's length is known, goes into the tail of that
// room, so the payload is written once. The retained events are copied in
// their stored encoding. Callers hold s.mu.
func (s *Session) encodeSnapshotLocked(sb *snapBuf) ([]byte, error) {
	buf, err := s.det.AppendSnapshot(append(sb.b[:0], make([]byte, snapHeadRoom)...))
	sb.b = buf
	if err != nil {
		return nil, err
	}
	var head [snapHeadRoom]byte
	h := append(head[:0], sessSnapMagic...)
	h = append(h, sessSnapVersion)
	h = binary.AppendUvarint(h, uint64(len(buf)-snapHeadRoom))
	start := snapHeadRoom - len(h)
	copy(buf[start:], h)
	buf = binary.AppendUvarint(buf, s.events.base())
	buf = binary.AppendUvarint(buf, uint64(s.events.len()))
	buf = s.events.appendEncoded(buf)
	buf = append(buf, byte(s.mode))
	buf = binary.AppendUvarint(buf, s.applied)
	sb.b = buf
	return buf[start:], nil
}

// restoredSnapshot carries a decoded session snapshot: the restored
// detector, its configuration, the retained event log, and (version ≥ 2)
// the streaming-protocol state.
type restoredSnapshot struct {
	det     *core.Detector
	cfg     core.Config
	events  eventLog
	mode    sessionMode
	applied uint64
}

// decodeSessionSnapshot parses a session snapshot back into a restored
// detector, its configuration, and the retained event log, which adopts
// the snapshot's event section once every event in it decodes. The input
// is CRC-verified by the durable layer but still decoded defensively.
func decodeSessionSnapshot(data []byte) (restoredSnapshot, error) {
	var rs restoredSnapshot
	fail := func(msg string) (restoredSnapshot, error) {
		return rs, fmt.Errorf("serve: session snapshot: %s", msg)
	}
	if len(data) < len(sessSnapMagic)+1 || string(data[:len(sessSnapMagic)]) != sessSnapMagic {
		return fail("bad magic")
	}
	version := data[len(sessSnapMagic)]
	if version < 1 || version > sessSnapVersion {
		return fail(fmt.Sprintf("unsupported version %d", version))
	}
	r := bytes.NewReader(data[len(sessSnapMagic)+1:])
	detLen, err := binary.ReadUvarint(r)
	if err != nil || detLen > uint64(r.Len()) {
		return fail("detector snapshot length")
	}
	off := len(data) - r.Len()
	rs.det, rs.cfg, err = core.RestoreDetector(data[off : off+int(detLen) : off+int(detLen)])
	if err != nil {
		return rs, fmt.Errorf("serve: session snapshot: %w", err)
	}
	r.Reset(data[off+int(detLen):])
	base, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("event base")
	}
	count, err := binary.ReadUvarint(r)
	// Every encoded event takes at least 4 bytes, so count is bounded by
	// the remaining input — reject absurd counts before allocating.
	if err != nil || count > uint64(r.Len())/4+1 {
		return fail("event count")
	}
	rest := data[len(data)-r.Len():]
	rs.events, rest, err = restoreEventLog(base, count, rest)
	if err != nil {
		return fail(err.Error())
	}
	r.Reset(rest)
	if version >= 2 {
		mode, err := r.ReadByte()
		if err != nil || mode > byte(modeIDs) {
			return fail("ingest mode")
		}
		rs.mode = sessionMode(mode)
		rs.applied, err = binary.ReadUvarint(r)
		if err != nil {
			return fail("applied cursor")
		}
	}
	if r.Len() != 0 {
		return fail("trailing bytes")
	}
	return rs, nil
}

// replayWAL replays WAL records into a freshly restored session through
// ingest, the path every live record took: the record-type byte names
// the record's kind, and the payload behind it decodes with ingest's own
// decoders into one scratch reused from record to record, so replay
// accepts exactly the records ingest accepts. Raw branch chunks go
// through ProcessBatch, which re-interns them to the IDs they had;
// symbol extensions and dense-ID chunks rebuild an ID-mode session's
// table and stream. Replay runs before restore attaches the log, so it
// appends nothing. keepPrefix selects boot recovery's policy: replay
// stops without error at the first record ingest refuses (the durable
// prefix ends there) or that re-poisons the session. Otherwise
// (adoption) that record fails the replay.
func (s *Session) replayWAL(records [][]byte, keepPrefix bool) error {
	var sc ingestScratch
	for i, rec := range records {
		kind, payload := trace.FrameData, rec
		if len(rec) > 0 {
			switch rec[0] {
			case walRecSyms:
				kind, payload = trace.FrameSyms, rec[1:]
			case walRecIDs:
				kind, payload = trace.FrameIDs, rec[1:]
			}
		}
		if kind != trace.FrameData {
			// Symbol and ID records only ever come from an ID-mode
			// session, so the mode re-latches here when the snapshot
			// predates the latch (the latch is not a WAL record).
			s.mode = modeIDs
		}
		if err := s.ingest(0, kind, payload, &sc, nil); err != nil {
			if keepPrefix {
				return nil
			}
			return fmt.Errorf("WAL record %d: %w", i, err)
		}
	}
	return nil
}
