package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"opd/internal/core"
	"opd/internal/telemetry"
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

// encodeSnapshotLocked serializes the session's durable state. Callers
// hold s.mu.
func (s *Session) encodeSnapshotLocked() ([]byte, error) {
	detSnap, err := s.det.Snapshot()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(sessSnapMagic)+1+len(detSnap)+16*len(s.events)+32)
	buf = append(buf, sessSnapMagic...)
	buf = append(buf, sessSnapVersion)
	buf = binary.AppendUvarint(buf, uint64(len(detSnap)))
	buf = append(buf, detSnap...)
	buf = binary.AppendUvarint(buf, s.base)
	buf = binary.AppendUvarint(buf, uint64(len(s.events)))
	for _, e := range s.events {
		var kind byte
		switch e.Kind {
		case telemetry.EvPhaseStart.String():
			kind = 0
		case telemetry.EvPhaseEnd.String():
			kind = 1
		default:
			return nil, fmt.Errorf("serve: unencodable event kind %q", e.Kind)
		}
		buf = append(buf, kind)
		buf = binary.AppendVarint(buf, e.At)
		buf = binary.AppendVarint(buf, e.V1)
		buf = binary.AppendVarint(buf, e.V2)
	}
	buf = append(buf, byte(s.mode))
	buf = binary.AppendUvarint(buf, s.applied)
	return buf, nil
}

// restoredSnapshot carries a decoded session snapshot: the restored
// detector, its configuration, the retained event log, and (version ≥ 2)
// the streaming-protocol state.
type restoredSnapshot struct {
	det     *core.Detector
	cfg     core.Config
	events  []Event
	base    uint64
	mode    sessionMode
	applied uint64
}

// decodeSessionSnapshot parses a session snapshot back into a restored
// detector, its configuration, and the retained event log. The input is
// CRC-verified by the durable layer but still decoded defensively.
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
	detSnap := make([]byte, detLen)
	if _, err := io.ReadFull(r, detSnap); err != nil {
		return fail("detector snapshot truncated")
	}
	rs.det, rs.cfg, err = core.RestoreDetector(detSnap)
	if err != nil {
		return rs, fmt.Errorf("serve: session snapshot: %w", err)
	}
	rs.base, err = binary.ReadUvarint(r)
	if err != nil {
		return fail("event base")
	}
	count, err := binary.ReadUvarint(r)
	// Every encoded event takes at least 4 bytes, so count is bounded by
	// the remaining input — reject absurd counts before allocating.
	if err != nil || count > uint64(r.Len())/4+1 {
		return fail("event count")
	}
	src := rs.cfg.ID()
	rs.events = make([]Event, 0, count)
	for i := uint64(0); i < count; i++ {
		kind, err := r.ReadByte()
		if err != nil || kind > 1 {
			return fail("event kind")
		}
		name := telemetry.EvPhaseStart.String()
		if kind == 1 {
			name = telemetry.EvPhaseEnd.String()
		}
		at, err1 := binary.ReadVarint(r)
		v1, err2 := binary.ReadVarint(r)
		v2, err3 := binary.ReadVarint(r)
		if err1 != nil || err2 != nil || err3 != nil {
			return fail("event payload")
		}
		rs.events = append(rs.events, Event{Seq: rs.base + i, Kind: name, Src: src, At: at, V1: v1, V2: v2})
	}
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
