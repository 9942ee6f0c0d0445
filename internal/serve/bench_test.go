package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"opd/internal/core"
	"opd/internal/durable"
	"opd/internal/faultinject"
	"opd/internal/synth"
	"opd/internal/trace"
)

// benchConfig is the serving benchmark's detector: the adaptive default
// from the paper's recommended region.
var benchConfig = core.Config{CWSize: 500, SkipFactor: 1, TW: core.AdaptiveTW,
	Anchor: core.AnchorRN, Resize: core.ResizeSlide,
	Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.6}

// benchChunks pre-encodes tr as wire-format chunks of the given element
// count, so encode cost stays out of the ingest measurement.
func benchChunks(b *testing.B, tr trace.Trace, chunk int) [][]byte {
	b.Helper()
	var out [][]byte
	for i := 0; i < len(tr); i += chunk {
		end := i + chunk
		if end > len(tr) {
			end = len(tr)
		}
		var buf bytes.Buffer
		if err := trace.WriteBranches(&buf, tr[i:end]); err != nil {
			b.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// BenchmarkServeIngest measures the full HTTP ingest path — request,
// chunk decode, session feed — per trace element, across chunk sizes.
// Compare against BenchmarkDirectIngest for the serving stack's overhead
// over the bare detector.
func BenchmarkServeIngest(b *testing.B) {
	tr := phasedTrace(1 << 16)
	for _, chunk := range []int{1024, 16384, 65536} {
		b.Run(fmt.Sprintf("chunk%d", chunk), func(b *testing.B) {
			srv := NewServer(Options{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.manager.Shutdown()
			client := ts.Client()
			payload := benchChunks(b, tr, chunk)

			body, _ := json.Marshal(ConfigRequest{CW: benchConfig.CWSize, Policy: "adaptive"})
			resp, err := client.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var opened struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			url := ts.URL + "/v1/sessions/" + opened.ID + "/elements"

			b.SetBytes(int64(len(tr)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range payload {
					cresp, err := client.Post(url, "application/octet-stream", bytes.NewReader(p))
					if err != nil {
						b.Fatal(err)
					}
					if cresp.StatusCode != http.StatusOK {
						b.Fatalf("chunk: status %d", cresp.StatusCode)
					}
					cresp.Body.Close()
				}
			}
		})
	}
}

// BenchmarkDirectIngest is the same workload fed straight into the
// detector through the batch seam — the serving benchmark's baseline.
func BenchmarkDirectIngest(b *testing.B) {
	tr := phasedTrace(1 << 16)
	for _, chunk := range []int{1024, 16384, 65536} {
		b.Run(fmt.Sprintf("chunk%d", chunk), func(b *testing.B) {
			b.SetBytes(int64(len(tr)))
			for i := 0; i < b.N; i++ {
				d := benchConfig.MustNew()
				for j := 0; j < len(tr); j += chunk {
					end := j + chunk
					if end > len(tr) {
						end = len(tr)
					}
					d.ProcessBatch(tr[j:end])
				}
				d.Finish()
			}
		})
	}
}

// BenchmarkEventLogPastCap appends to an event log already at its
// retention cap, so every append also trims the oldest event: the cost a
// session past -max-events pays per event. It must not grow with the
// cap.
func BenchmarkEventLogPastCap(b *testing.B) {
	for _, max := range []int{1024, 65536} {
		b.Run(fmt.Sprintf("max%d", max), func(b *testing.B) {
			s := newSession("bench", benchConfig, benchConfig.MustNew(), max, 1, nil, nil, nil)
			s.mu.Lock()
			defer s.mu.Unlock()
			for i := 0; i < max; i++ {
				s.appendLocked("phase_start", int64(i), int64(i), 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.appendLocked("phase_start", int64(i), int64(i), 0)
			}
		})
	}
}

const (
	recoverSessions  = 2
	recoverChunks    = 232
	recoverChunk     = 4096
	recoverSnapEvery = 64
	// recoverTail is the elements boot replays: each session's records
	// after its last cadence snapshot.
	recoverTail = recoverSessions * (recoverChunks % recoverSnapEvery) * recoverChunk
)

// recoverSource is the eight synth traces at scale 1, concatenated.
var recoverSource = sync.OnceValues(func() (trace.Trace, error) {
	var base trace.Trace
	for _, name := range synth.Names() {
		tr, _, err := synth.Run(name, 1)
		if err != nil {
			return nil, err
		}
		base = append(base, tr...)
	}
	return base, nil
})

// buildCrashDir leaves in dir what a kill -9 leaves of a durable-branch
// benchmark server: two branch-mode sessions of the stream workloads'
// detector, each fed 232 chunks of 4096 elements of recoverSource (the
// second starting halfway through) with a snapshot every 64 chunks and
// fsync on every append, abandoned without shutdown. It returns the
// sessions' IDs.
func buildCrashDir(b *testing.B, dir string) []string {
	b.Helper()
	base, err := recoverSource()
	if err != nil {
		b.Fatal(err)
	}
	store, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	m := NewManager(Options{Store: store, SnapshotEvery: recoverSnapEvery})
	var ids []string
	chunk := make(trace.Trace, recoverChunk)
	for k := 0; k < recoverSessions; k++ {
		s, err := m.Open(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		off := k * len(base) / recoverSessions
		for c := 0; c < recoverChunks; c++ {
			for i := range chunk {
				chunk[i] = base[(off+c*recoverChunk+i)%len(base)]
			}
			if err := s.Feed(chunk); err != nil {
				b.Fatal(err)
			}
		}
		ids = append(ids, s.ID())
	}
	abandon(m)
	return ids
}

// BenchmarkRecover times boot recovery — opening the store, NewManager
// and Manager.Recover, which replays each session's WAL tail through its
// detector — over a fresh copy of a durable-branch-shaped crash dir per
// iteration, and reports the cost per replayed element.
func BenchmarkRecover(b *testing.B) {
	src := b.TempDir()
	ids := buildCrashDir(b, src)
	b.ReportAllocs()
	b.ResetTimer()
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		if err := faultinject.CopyTree(dir, src); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		store, err := durable.Open(durable.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		m := NewManager(Options{Store: store, SnapshotEvery: recoverSnapEvery})
		recovered, dropped, err := m.Recover()
		elapsed += time.Since(start)
		b.StopTimer()
		if err != nil || recovered != recoverSessions || dropped != 0 {
			b.Fatalf("recovered %d dropped %d: %v", recovered, dropped, err)
		}
		for _, id := range ids {
			s, ok := m.Get(id)
			if !ok {
				b.Fatalf("session %s not recovered", id)
			}
			if c, _, _ := s.Progress(); c != recoverChunks*recoverChunk {
				b.Fatalf("session %s recovered %d elements, want %d", id, c, recoverChunks*recoverChunk)
			}
		}
		m.Shutdown()
		b.StartTimer()
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N)/recoverTail, "ns/replayed-elem")
}
