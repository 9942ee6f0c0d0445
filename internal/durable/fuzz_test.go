package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes as a WAL segment: recovery must
// never panic, never error, and never produce records that a valid
// sequential parse of the same bytes would not — i.e. replay is exactly
// the longest valid record prefix.
func FuzzWALReplay(f *testing.F) {
	var seed []byte
	for _, p := range [][]byte{[]byte("alpha"), []byte("beta-record"), {}} {
		seed = appendRecord(seed, p)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	damaged := append([]byte(nil), seed...)
	damaged[9] ^= 0x80
	f.Add(damaged)

	f.Fuzz(func(t *testing.T, segBytes []byte) {
		// Reference: walk the bytes record by record until first damage.
		var want [][]byte
		for buf := segBytes; len(buf) > 0; {
			payload, n, err := parseRecord(buf)
			if err != nil {
				break
			}
			want = append(want, append([]byte(nil), payload...))
			buf = buf[n:]
		}

		dir := t.TempDir()
		sess := filepath.Join(dir, "sessions", "x")
		if err := os.MkdirAll(sess, 0o755); err != nil {
			t.Fatal(err)
		}
		snapFrame := appendRecord(nil, []byte("snap"))
		if err := os.WriteFile(filepath.Join(sess, snapName(0)), snapFrame, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sess, segName(0)), segBytes, 0o644); err != nil {
			t.Fatal(err)
		}

		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := s.Recover()
		if err != nil {
			t.Fatalf("recover errored on fuzzed segment: %v", err)
		}
		if len(recs) != 1 {
			t.Fatalf("recovered %d sessions, want 1", len(recs))
		}
		r := recs[0]
		if !bytes.Equal(r.Snapshot, []byte("snap")) {
			t.Fatalf("snapshot = %q", r.Snapshot)
		}
		if len(r.Records) != len(want) {
			t.Fatalf("recovered %d records, reference parse has %d", len(r.Records), len(want))
		}
		for i := range want {
			if !bytes.Equal(r.Records[i], want[i]) {
				t.Fatalf("record %d = %q, want %q", i, r.Records[i], want[i])
			}
		}

		// The repaired log must accept further appends and round-trip.
		if _, err := r.Log().Append([]byte("tail")); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		r.Log().Close()
		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		recs2, err := s2.Recover()
		if err != nil || len(recs2) != 1 {
			t.Fatalf("second recover: %v (%d sessions)", err, len(recs2))
		}
		if n := len(recs2[0].Records); n != len(want)+1 {
			t.Fatalf("after append: %d records, want %d", n, len(want)+1)
		}
	})
}
