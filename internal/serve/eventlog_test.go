package serve

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"opd/internal/core"
	"opd/internal/telemetry"
)

// logTestEvent is the i-th event the seek tests append: kinds alternate,
// and the payloads mix one-byte and ten-byte varints, negatives included.
func logTestEvent(i int) (kind string, at, v1, v2 int64) {
	at = int64(i)*977 + 3
	if i%7 == 3 {
		at = -at << 40
	}
	if i%2 == 0 {
		return "phase_start", at, at, 0
	}
	return "phase_end", at, at - 500, int64(i % 5)
}

// TestEventLogSeek reads a capped session's log from every interesting
// cursor after each append: before the base, at it, just past it,
// mid-log, at the newest event, at the end and past it. The cap trims
// the log at every append once it fills, and the log's bytes move many
// times; every read must return exactly the kept tail, consecutive Seqs
// ending at the total, each event with a wall clock.
func TestEventLogSeek(t *testing.T) {
	const keep = 40
	s := newSession("seek", resilienceConfig, resilienceConfig.MustNew(), keep, 1, nil, nil, nil)
	var all []Event
	for i := range 1000 {
		kind, at, v1, v2 := logTestEvent(i)
		s.mu.Lock()
		s.appendLocked(kind, at, v1, v2)
		s.mu.Unlock()
		all = append(all, Event{Seq: uint64(i), Kind: kind, Src: s.configID, At: at, V1: v1, V2: v2})
		end := uint64(len(all))
		base := end - uint64(min(len(all), keep))
		if got := s.events.len(); got != int(end-base) {
			t.Fatalf("after %d events: %d kept, want %d", end, got, end-base)
		}
		for _, since := range []uint64{0, base - 1, base, base + 1, (base + end) / 2, end - 1, end, end + 3} {
			evs, wall, next, _ := s.eventsSinceWall(since)
			want := all[min(max(since, base), end):]
			if next != end || !equalEvents(evs, want) {
				t.Fatalf("after %d events, since %d: next %d, events\n got %v\nwant %v", end, since, next, evs, want)
			}
			if len(wall) != len(evs) {
				t.Fatalf("after %d events, since %d: %d walls for %d events", end, since, len(wall), len(evs))
			}
			for j, w := range wall {
				if w <= 0 {
					t.Fatalf("after %d events: event %d has wall %d", end, evs[j].Seq, w)
				}
			}
		}
	}
	if s.events.enc.off == 0 || s.events.walls.off == 0 || s.events.marks.off == 0 {
		t.Errorf("the log's bytes never moved past a trimmed prefix (offsets %d, %d, %d)",
			s.events.enc.off, s.events.walls.off, s.events.marks.off)
	}
}

// TestEventLogWalls pins the wall clocks a log hands back: none for the
// events a restore adopted, and exactly the pushed value, backward steps
// included, for every later one, from every cursor and across trims.
func TestEventLogWalls(t *testing.T) {
	var restored []byte
	for i := range 21 {
		restored = appendLogEvent(restored, byte(i%2), int64(i), int64(i), 0)
	}
	l, rest, err := restoreEventLog(5, 21, restored)
	if err != nil || len(rest) != 0 {
		t.Fatalf("restore: %v, %d bytes left", err, len(rest))
	}
	walls := make([]int64, 21) // restored events read back no wall
	for i := range 200 {
		w := int64(1_700_000_000_000_000_000) + int64(i)*1_000_003
		if i%9 == 4 {
			w -= 5_000_000_000 // a clock stepped backward
		}
		l.push(byte(i%2), int64(21+i), int64(21+i), 0, w)
		walls = append(walls, w)
		if l.len() > 50 {
			l.trim(l.len() - 50)
		}
		base := l.base()
		for since := base; since <= l.next; since++ {
			evs, got, next := l.read(since, "x")
			if next != l.next || len(evs) != int(l.next-since) {
				t.Fatalf("after push %d, since %d: %d events, next %d", i, since, len(evs), next)
			}
			for j, e := range evs {
				if k := e.Seq - 5; e.At != int64(k) || got[j] != walls[k] {
					t.Fatalf("after push %d, since %d: seq %d has at %d wall %d, want %d, %d",
						i, since, e.Seq, e.At, got[j], k, walls[k])
				}
			}
		}
	}
}

// parentSnapshot is the session snapshot encoder of the event log that
// kept an Event per entry: the reference a checkpoint must still match
// byte for byte.
func parentSnapshot(t *testing.T, det *core.Detector, base uint64, evs []Event, mode sessionMode, applied uint64) []byte {
	t.Helper()
	detSnap, err := det.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(sessSnapMagic), sessSnapVersion)
	buf = binary.AppendUvarint(buf, uint64(len(detSnap)))
	buf = append(buf, detSnap...)
	buf = binary.AppendUvarint(buf, base)
	buf = binary.AppendUvarint(buf, uint64(len(evs)))
	for _, e := range evs {
		var kind byte
		switch e.Kind {
		case telemetry.EvPhaseStart.String():
			kind = 0
		case telemetry.EvPhaseEnd.String():
			kind = 1
		default:
			t.Fatalf("unencodable event kind %q", e.Kind)
		}
		buf = append(buf, kind)
		buf = binary.AppendVarint(buf, e.At)
		buf = binary.AppendVarint(buf, e.V1)
		buf = binary.AppendVarint(buf, e.V2)
	}
	buf = append(buf, byte(mode))
	return binary.AppendUvarint(buf, applied)
}

// checkpoint encodes s's snapshot as a checkpoint does.
func checkpoint(t *testing.T, s *Session) []byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	payload, err := s.encodeSnapshotLocked(new(snapBuf))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestCheckpointMatchesParentEncoder checkpoints a session whose log was
// trimmed and moved, mid-stream, and compares the whole payload with
// what the per-event encoder writes for the same detector and events.
func TestCheckpointMatchesParentEncoder(t *testing.T) {
	s := newSession("ckpt", resilienceConfig, resilienceConfig.MustNew(), 24, 1, nil, nil, nil)
	for _, c := range chunks(phasedTrace(200_000), []int{1000, 333}) {
		if err := s.Feed(c); err != nil {
			t.Fatal(err)
		}
	}
	evs, next, _ := s.EventsSince(0)
	if len(evs) != 24 || next <= 24 {
		t.Fatalf("%d events kept of %d; the cap never trimmed", len(evs), next)
	}
	got := checkpoint(t, s)
	s.mu.Lock()
	want := parentSnapshot(t, s.det, evs[0].Seq, evs, s.mode, s.applied)
	s.mu.Unlock()
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint of %d bytes differs from the per-event encoding of %d bytes", len(got), len(want))
	}
}

// snapshotTail returns what follows the detector snapshot in a session
// snapshot: the event section and the streaming-protocol state.
func snapshotTail(t *testing.T, snap []byte) []byte {
	t.Helper()
	detLen, n := binary.Uvarint(snap[len(sessSnapMagic)+1:])
	if n <= 0 {
		t.Fatal("bad detector snapshot length")
	}
	return snap[len(sessSnapMagic)+1+n+int(detLen):]
}

// TestRestoreCheckpointByteIdentical restores session snapshots through
// the manager's restore and checkpoints them straight away. A version-2
// snapshot must come back byte for byte, and a version-1 one as version
// 2 in branch mode at cursor 0. The snapshots inside both checked-in
// migration blobs were written by an older detector encoder, so their
// detector sections come back re-encoded (as they did before the event
// log kept its events encoded): for them the event section and the
// streaming state must come back byte for byte, and the whole checkpoint
// must equal the per-event encoding of the restored session.
func TestRestoreCheckpointByteIdentical(t *testing.T) {
	s := newSession("v2", resilienceConfig, resilienceConfig.MustNew(), 24, 1, nil, nil, nil)
	for _, c := range chunks(phasedTrace(100_000), []int{1000}) {
		if err := s.Feed(c); err != nil {
			t.Fatal(err)
		}
	}
	v2 := checkpoint(t, s)
	// A version-1 snapshot is a version-2 one without the mode byte and
	// the cursor; a branch-mode session's are one byte each at a cursor
	// below 128.
	if s.applied >= 128 {
		t.Fatalf("cursor %d takes more than one byte", s.applied)
	}
	v1 := bytes.Clone(v2[:len(v2)-2])
	v1[len(sessSnapMagic)] = 1
	v1Back := append(bytes.Clone(v2[:len(v2)-2]), byte(modeBranch), 0)
	m := NewManager(Options{Registry: telemetry.NewRegistry()})
	defer m.Shutdown()
	restore := func(name string, snap []byte) []byte {
		t.Helper()
		r, err := m.restore("restored-"+name, snap, nil, nil)
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		return checkpoint(t, r)
	}
	if got := restore("v2", v2); !bytes.Equal(got, v2) {
		t.Errorf("v2: checkpoint after restore differs: %d bytes, want %d", len(got), len(v2))
	}
	if got := restore("v1", v1); !bytes.Equal(got, v1Back) {
		t.Errorf("v1: checkpoint after restore differs: %d bytes, want %d", len(got), len(v1Back))
	}
	for _, name := range []string{"parent-branch.migr", "parent-ids.migr"} {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		snap, _, err := decodeMigration(blob)
		if err != nil {
			t.Fatal(err)
		}
		got := restore(name, snap)
		if !bytes.Equal(snapshotTail(t, got), snapshotTail(t, snap)) {
			t.Errorf("%s: event section and stream state differ after restore", name)
		}
		r, _ := m.Get("restored-" + name)
		evs, _, _ := r.EventsSince(0)
		r.mu.Lock()
		base := r.events.base()
		want := parentSnapshot(t, r.det, base, evs, r.mode, r.applied)
		r.mu.Unlock()
		if len(evs) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s: checkpoint of %d bytes differs from the per-event encoding of %d bytes (%d events)",
				name, len(got), len(want), len(evs))
		}
	}
}

// TestEventLogBytesWithinCharge fills sessions past their cap and checks,
// at every event past it, that the log's slices (capacities, so slack
// included) hold at most eventLogBytes per kept event: one fed by a
// detector, and one whose positions take five-byte varints, as a stream
// past 2^33 elements does.
func TestEventLogBytesWithinCharge(t *testing.T) {
	check := func(name string, s *Session, keep int) {
		t.Helper()
		if s.events.len() != keep {
			t.Fatalf("%s: %d events kept, want the cap %d", name, s.events.len(), keep)
		}
		if per := float64(s.events.bytes()) / float64(keep); per > eventLogBytes {
			t.Fatalf("%s: log holds %d bytes for %d events, %.1f per event, over the %d charged",
				name, s.events.bytes(), keep, per, eventLogBytes)
		}
	}

	const fedKeep = 256
	fed := newSession("fed", resilienceConfig, resilienceConfig.MustNew(), fedKeep, 1, nil, nil, nil)
	for _, c := range chunks(phasedTrace(1_200_000), []int{4096}) {
		if err := fed.Feed(c); err != nil {
			t.Fatal(err)
		}
		if fed.events.next > fedKeep {
			check("detector-fed", fed, fedKeep)
		}
	}
	if fed.events.next < 2*fedKeep {
		t.Fatalf("detector-fed: %d events in all; the log never turned over", fed.events.next)
	}

	const farKeep = 4096
	far := newSession("far", resilienceConfig, resilienceConfig.MustNew(), farKeep, 1, nil, nil, nil)
	far.mu.Lock()
	defer far.mu.Unlock()
	at := int64(1) << 33
	for i := range 4 * farKeep {
		if i%2 == 0 {
			far.appendLocked("phase_start", at, at, 0)
			continue
		}
		end := at + 2400 + int64(i%700)
		far.appendLocked("phase_end", end, at, end-at)
		at = end + 600
		if i >= farKeep {
			check("five-byte positions", far, farKeep)
		}
	}
}
