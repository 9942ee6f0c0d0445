package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"opd/internal/faultinject"
	"opd/internal/telemetry"
)

func testStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// payloads builds n distinct record payloads of uneven sizes.
func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := []byte(fmt.Sprintf("record-%04d|", i))
		for len(p) < 13+(i*7)%97 {
			p = append(p, byte('a'+i%26))
		}
		out[i] = p
	}
	return out
}

func recoverOne(t *testing.T, s *Store, id string) *Recovered {
	t.Helper()
	recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("session %s not in recovery set (%d sessions)", id, len(recs))
	return nil
}

// appendRecord frames payload onto dst as the log frames a record.
func appendRecord(dst, payload []byte) []byte {
	h := recordHeader(payload)
	return append(append(dst, h[:]...), payload...)
}

func wantRecords(t *testing.T, got [][]byte, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestAppendRecoverRoundTrip pins the basic contract: snapshot + appended
// records come back exactly, and the recovered log continues appending
// where the durable prefix ends.
func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir, SegmentBytes: 256}) // force rotations
	log, err := s.Create("sess1")
	if err != nil {
		t.Fatal(err)
	}
	snap := []byte("initial-session-state")
	if err := log.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	recs := payloads(40)
	for _, p := range recs {
		if _, err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := log.NextIndex(); got != 40 {
		t.Fatalf("NextIndex = %d, want 40", got)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := testStore(t, Options{Dir: dir, SegmentBytes: 256})
	r := recoverOne(t, s2, "sess1")
	if !bytes.Equal(r.Snapshot, snap) {
		t.Fatalf("snapshot = %q, want %q", r.Snapshot, snap)
	}
	wantRecords(t, r.Records, recs)

	// The recovered log must continue the sequence seamlessly.
	log2 := r.Log()
	if got := log2.NextIndex(); got != 40 {
		t.Fatalf("recovered NextIndex = %d, want 40", got)
	}
	more := payloads(50)[40:]
	for _, p := range more {
		if _, err := log2.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	log2.Close()

	s3 := testStore(t, Options{Dir: dir, SegmentBytes: 256})
	r3 := recoverOne(t, s3, "sess1")
	wantRecords(t, r3.Records, payloads(50))
}

// TestSnapshotCompaction pins that a snapshot deletes the segments and
// snapshots it covers, and recovery afterwards replays only the tail.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	chaos := faultinject.NewDiskChaos()
	s := testStore(t, Options{Dir: dir, SegmentBytes: 128, Registry: reg, Hook: chaos.Hook})
	log, err := s.Create("c")
	if err != nil {
		t.Fatal(err)
	}
	recs := payloads(60)
	log.Snapshot([]byte("s0"))
	for _, p := range recs[:50] {
		if _, err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Snapshot([]byte("s1")); err != nil {
		t.Fatal(err)
	}
	for _, p := range recs[50:] {
		if _, err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	// A failed snapshot counts as an error, not a snapshot, and leaves
	// the previous one in place.
	chaos.Fail(fmt.Errorf("injected: disk full"), "snapshot")
	if err := log.Snapshot([]byte("s2")); err == nil {
		t.Fatal("snapshot with a failing disk succeeded")
	}
	chaos.Heal()
	if got := reg.Counter(telemetry.MetricDurableSnapshotErrors).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.MetricDurableSnapshotErrors, got)
	}
	if got := reg.Counter(telemetry.MetricDurableSnapshots).Value(); got != 2 {
		t.Errorf("%s = %d, want 2 (s0, s1)", telemetry.MetricDurableSnapshots, got)
	}
	log.Close()

	sessDir := filepath.Join(dir, "sessions", "c")
	entries, err := os.ReadDir(sessDir)
	if err != nil {
		t.Fatal(err)
	}
	if snaps := sortedIdx(entries, "snap-", ".snap"); len(snaps) != 1 || snaps[0] != 50 {
		t.Fatalf("snapshots after compaction: %v, want [50]", snaps)
	}
	// All fully-covered segments are gone: at most one segment may start
	// at or below the snapshot index (the one holding record 50).
	covered := 0
	for _, seg := range sortedIdx(entries, "wal-", ".seg") {
		if seg <= 50 {
			covered++
		}
	}
	if covered > 1 {
		t.Fatalf("%d segments still start at or below snapshot index 50", covered)
	}

	r := recoverOne(t, testStore(t, Options{Dir: dir}), "c")
	if !bytes.Equal(r.Snapshot, []byte("s1")) {
		t.Fatalf("snapshot = %q, want s1", r.Snapshot)
	}
	wantRecords(t, r.Records, recs[50:])
}

// TestCrashAtEveryByteOffset is the disk-chaos core: simulate kill -9 by
// truncating the session's newest segment at every possible byte offset.
// Recovery must never error and must always return a strict prefix of
// the appended records — all of them before the cut, none invented.
func TestCrashAtEveryByteOffset(t *testing.T) {
	srcDir := t.TempDir()
	s := testStore(t, Options{Dir: srcDir, SegmentBytes: 1 << 20}) // one segment
	log, err := s.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Snapshot([]byte("base")); err != nil {
		t.Fatal(err)
	}
	recs := payloads(24)
	frameEnd := []int{} // cumulative framed size after each record
	size := 0
	for _, p := range recs {
		if _, err := log.Append(p); err != nil {
			t.Fatal(err)
		}
		size += recordHeaderSize + len(p)
		frameEnd = append(frameEnd, size)
	}
	log.Close()
	segPath := filepath.Join(srcDir, "sessions", "x", segName(0))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != size {
		t.Fatalf("segment is %d bytes, expected %d", len(full), size)
	}

	// complete(cut) = how many records fit entirely below the cut.
	complete := func(cut int) int {
		n := 0
		for n < len(frameEnd) && frameEnd[n] <= cut {
			n++
		}
		return n
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(t.TempDir(), "crash")
		if err := faultinject.CopyTree(dir, srcDir); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.TruncateFile(filepath.Join(dir, "sessions", "x", segName(0)), int64(cut)); err != nil {
			t.Fatal(err)
		}

		r := recoverOne(t, testStore(t, Options{Dir: dir}), "x")
		if !bytes.Equal(r.Snapshot, []byte("base")) {
			t.Fatalf("cut %d: snapshot lost", cut)
		}
		want := complete(cut)
		wantRecords(t, r.Records, recs[:want])

		// The repaired log must keep working: append one more record and
		// recover again.
		if _, err := r.Log().Append([]byte("after-crash")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		r.Log().Close()
		r2 := recoverOne(t, testStore(t, Options{Dir: dir}), "x")
		wantRecords(t, r2.Records, append(append([][]byte{}, recs[:want]...), []byte("after-crash")))
	}
}

// TestBitFlipNeverInvents flips every byte of a segment in turn: recovery
// must stay error-free and only ever return a prefix of the real records.
func TestBitFlipNeverInvents(t *testing.T) {
	srcDir := t.TempDir()
	s := testStore(t, Options{Dir: srcDir})
	log, err := s.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	log.Snapshot([]byte("base"))
	recs := payloads(12)
	for _, p := range recs {
		log.Append(p)
	}
	log.Close()
	full, err := os.ReadFile(filepath.Join(srcDir, "sessions", "x", segName(0)))
	if err != nil {
		t.Fatal(err)
	}

	for off := range full {
		dir := filepath.Join(t.TempDir(), "crash")
		if err := faultinject.CopyTree(dir, srcDir); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.FlipByte(filepath.Join(dir, "sessions", "x", segName(0)), int64(off), 0x20); err != nil {
			t.Fatal(err)
		}

		r := recoverOne(t, testStore(t, Options{Dir: dir}), "x")
		if len(r.Records) > len(recs) {
			t.Fatalf("flip at %d: recovered %d records from %d", off, len(r.Records), len(recs))
		}
		for i, got := range r.Records {
			if !bytes.Equal(got, recs[i]) {
				t.Fatalf("flip at %d: record %d = %q, not a prefix", off, i, got)
			}
		}
	}
}

// TestRecoverNoSnapshot pins that a session that crashed before its first
// snapshot landed is reported unrecoverable, and that a damaged snapshot
// falls back to an older valid one.
func TestRecoverNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir})
	log, err := s.Create("nosnap")
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]byte("orphan"))
	log.Close()

	r := recoverOne(t, testStore(t, Options{Dir: dir}), "nosnap")
	if r.Snapshot != nil || r.Log() != nil {
		t.Fatalf("session without snapshot reported recoverable")
	}
	if err := s.Remove("nosnap"); err != nil {
		t.Fatal(err)
	}
	if recs, _ := s.Recover(); len(recs) != 0 {
		t.Fatalf("removed session still recovered: %d", len(recs))
	}
}

func TestRecoverDamagedSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir, SegmentBytes: 1 << 20})
	log, err := s.Create("fb")
	if err != nil {
		t.Fatal(err)
	}
	log.Snapshot([]byte("old"))
	recs := payloads(6)
	for _, p := range recs {
		log.Append(p)
	}
	// Write a newer snapshot, then corrupt it on disk. Compaction already
	// removed "old"? No: Snapshot(idx=6) deletes snapshots with idx<6,
	// so re-create the old one afterwards to model a crash between the
	// rename and the compaction unlink.
	log.Snapshot([]byte("new"))
	log.Close()
	sess := filepath.Join(dir, "sessions", "fb")
	oldFrame := appendRecord(nil, []byte("old"))
	if err := os.WriteFile(filepath.Join(sess, snapName(0)), oldFrame, 0o644); err != nil {
		t.Fatal(err)
	}
	newPath := filepath.Join(sess, snapName(6))
	buf, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	os.WriteFile(newPath, buf, 0o644)

	r := recoverOne(t, testStore(t, Options{Dir: dir}), "fb")
	if !bytes.Equal(r.Snapshot, []byte("old")) {
		t.Fatalf("snapshot = %q, want fallback to old", r.Snapshot)
	}
	wantRecords(t, r.Records, recs)
	if _, err := os.Stat(newPath); !os.IsNotExist(err) {
		t.Fatalf("damaged snapshot not deleted: %v", err)
	}
}

// TestRecoverSegmentGap pins that a missing middle segment ends the
// durable prefix: later segments are unreachable and deleted.
func TestRecoverSegmentGap(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir, SegmentBytes: 64})
	log, err := s.Create("gap")
	if err != nil {
		t.Fatal(err)
	}
	log.Snapshot([]byte("base"))
	recs := payloads(30)
	for _, p := range recs {
		log.Append(p)
	}
	log.Close()
	sess := filepath.Join(dir, "sessions", "gap")
	entries, _ := os.ReadDir(sess)
	segs := sortedIdx(entries, "wal-", ".seg")
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %v", segs)
	}
	os.Remove(filepath.Join(sess, segName(segs[1])))

	r := recoverOne(t, testStore(t, Options{Dir: dir}), "gap")
	wantRecords(t, r.Records, recs[:segs[1]])
	entries, _ = os.ReadDir(sess)
	if left := sortedIdx(entries, "wal-", ".seg"); len(left) != 1 || left[0] != segs[0] {
		t.Fatalf("unreachable segments not deleted: %v", left)
	}
}

// TestFsyncPolicies exercises each policy and checks the count of the
// fsync latency histogram moves (or doesn't) accordingly.
func TestFsyncPolicies(t *testing.T) {
	fsyncs := func(opts Options, n int) int64 {
		reg := telemetry.NewRegistry()
		opts.Dir = t.TempDir()
		opts.Registry = reg
		s := testStore(t, opts)
		log, err := s.Create("p")
		if err != nil {
			t.Fatal(err)
		}
		before := reg.Latency(telemetry.MetricDurableFsyncLatency).Count()
		for _, p := range payloads(n) {
			if _, err := log.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		return reg.Latency(telemetry.MetricDurableFsyncLatency).Count() - before
	}
	// Segment rotation fsyncs the directory once under every policy, so
	// the data-fsync distinction shows up as: always >= one per append,
	// never = just the rotation, interval = rotation plus at most one.
	if got := fsyncs(Options{Policy: SyncAlways}, 10); got < 10 {
		t.Errorf("SyncAlways: %d fsyncs for 10 appends", got)
	}
	if got := fsyncs(Options{Policy: SyncNever}, 10); got > 1 {
		t.Errorf("SyncNever: %d fsyncs, want <=1", got)
	}
	if got := fsyncs(Options{Policy: SyncInterval, SyncInterval: time.Hour}, 10); got > 2 {
		t.Errorf("SyncInterval(1h): %d fsyncs for 10 appends, want <=2", got)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		p    SyncPolicy
		d    time.Duration
		fail bool
	}{
		{in: "always", p: SyncAlways},
		{in: "never", p: SyncNever},
		{in: "250ms", p: SyncInterval, d: 250 * time.Millisecond},
		{in: "2s", p: SyncInterval, d: 2 * time.Second},
		{in: "sometimes", fail: true},
		{in: "-1s", fail: true},
		{in: "0", fail: true},
	}
	for _, c := range cases {
		p, d, err := ParseSyncPolicy(c.in)
		if c.fail != (err != nil) {
			t.Errorf("ParseSyncPolicy(%q): err = %v", c.in, err)
			continue
		}
		if !c.fail && (p != c.p || d != c.d) {
			t.Errorf("ParseSyncPolicy(%q) = %v/%v, want %v/%v", c.in, p, d, c.p, c.d)
		}
	}
}

// TestStoreRejectsHostileIDs pins the path-traversal guard.
func TestStoreRejectsHostileIDs(t *testing.T) {
	s := testStore(t, Options{})
	for _, id := range []string{"", "..", "a/b", `a\b`, "a.b", "../../etc"} {
		if _, err := s.Create(id); err == nil {
			t.Errorf("Create(%q) accepted", id)
		}
		if err := s.Remove(id); err == nil {
			t.Errorf("Remove(%q) accepted", id)
		}
	}
}

// TestOversizedRecordEndsPrefix pins that an absurd length field reads as
// damage, not as an allocation request.
func TestOversizedRecordEndsPrefix(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir})
	log, err := s.Create("big")
	if err != nil {
		t.Fatal(err)
	}
	log.Snapshot([]byte("base"))
	log.Append([]byte("fine"))
	log.Close()
	sess := filepath.Join(dir, "sessions", "big")
	// A crash mid-append can leave a garbage header: length 4 GiB here.
	if err := faultinject.AppendBytes(filepath.Join(sess, segName(0)),
		[]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}

	r := recoverOne(t, testStore(t, Options{Dir: dir}), "big")
	wantRecords(t, r.Records, [][]byte{[]byte("fine")})
}

// TestFailedAppendLeavesNoRecord pins that a refused append is not on
// disk: the record is written before its fsync, so a failed fsync must
// cut it back out. Otherwise the caller's retry appends it a second time
// and recovery replays the chunk twice. If the cut itself fails, the log
// refuses every later append and snapshot.
func TestFailedAppendLeavesNoRecord(t *testing.T) {
	dir := t.TempDir()
	chaos := faultinject.NewDiskChaos()
	s := testStore(t, Options{Dir: dir, Hook: chaos.Hook})
	log, err := s.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Snapshot([]byte("base")); err != nil {
		t.Fatal(err)
	}
	recs := payloads(3)
	if _, err := log.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	chaos.Fail(fmt.Errorf("injected"), "fsync")
	if _, err := log.Append(recs[1]); err == nil {
		t.Fatal("append with a failing fsync succeeded")
	}
	if got := log.NextIndex(); got != 1 {
		t.Fatalf("NextIndex after a failed append = %d, want 1", got)
	}
	chaos.Heal()
	if _, err := log.Append(recs[1]); err != nil {
		t.Fatal(err)
	}

	// A failed append whose cut-back fails too breaks the log.
	chaos.Fail(fmt.Errorf("injected"), "fsync", "truncate")
	if _, err := log.Append(recs[2]); err == nil {
		t.Fatal("append with a failing fsync succeeded")
	}
	chaos.Heal()
	if _, err := log.Append(recs[2]); err == nil {
		t.Error("a log that could not cut back a failed append accepted another")
	}
	if err := log.Snapshot([]byte("state")); err == nil {
		t.Error("a log that could not cut back a failed append took a snapshot")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	r := recoverOne(t, testStore(t, Options{Dir: dir}), "x")
	// The stray record 2 stays in the segment of the broken log; only
	// the cut-back path keeps record 1 from appearing twice.
	wantRecords(t, r.Records, recs)
}
