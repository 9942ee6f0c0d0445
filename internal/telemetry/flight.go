package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// A Stage identifies one step of a chunk's life through the serving
// path. Stage latencies feed per-stage histograms
// (opd_serve_stage_latency_ns{stage=...}) and the per-session flight
// recorder, so a slow or failing ingest can be attributed to HTTP read,
// wire decode, WAL persistence, detector work, or event publish.
type Stage uint8

const (
	// StageRead is reading the HTTP request body off the wire.
	StageRead Stage = iota
	// StageDecode is decoding the binary trace chunk into elements.
	StageDecode
	// StageWALAppend is the WAL record write (excluding fsync).
	StageWALAppend
	// StageWALFsync is the WAL fsync, when the policy issued one.
	StageWALFsync
	// StageDetect is the detector feed (ProcessBatch minus publish).
	StageDetect
	// StagePublish is appending phase events to the session log and
	// waking subscribers, accumulated over the chunk's events.
	StagePublish
	// StageSnapshot is the periodic durable session snapshot, when this
	// chunk's cadence point wrote one.
	StageSnapshot

	// NumStages is the number of per-chunk stages.
	NumStages
)

// String names the stage as it appears in metric labels and dumps.
func (s Stage) String() string {
	switch s {
	case StageRead:
		return "read"
	case StageDecode:
		return "decode"
	case StageWALAppend:
		return "wal_append"
	case StageWALFsync:
		return "wal_fsync"
	case StageDetect:
		return "detect"
	case StagePublish:
		return "publish"
	case StageSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// Stages lists every per-chunk stage in pipeline order.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// A ChunkTrace is the complete latency record of one ingested chunk:
// when it arrived, how big it was, how long each stage took, and how it
// ended. It is fixed size and the recorder stores it by value, so
// recording one allocates only while the recorder's ring is still
// growing.
type ChunkTrace struct {
	// Seq is the chunk's ordinal within its session (first chunk = 1).
	Seq int64 `json:"seq"`
	// Start is the chunk's arrival time.
	Start time.Time `json:"start"`
	// Bytes and Elements size the chunk (wire bytes, decoded elements).
	Bytes    int64 `json:"bytes"`
	Elements int64 `json:"elements"`
	// StageNS holds nanoseconds per Stage, indexed by the Stage consts.
	StageNS [NumStages]int64 `json:"stage_ns"`
	// TotalNS is the chunk's end-to-end server-side latency.
	TotalNS int64 `json:"total_ns"`
	// Events is the number of phase events this chunk published.
	Events int64 `json:"events"`
	// Err is empty for a clean chunk; otherwise the decode error, WAL
	// failure, or recovered panic that ended it.
	Err string `json:"err,omitempty"`
}

// A FlightRecorder retains the last N chunk traces of one session, so a
// poisoned or misbehaving session's final moments stay inspectable after
// the fact: the ring is dumped into the log on panic and served raw by
// the session flight debug endpoint.
//
// The ring is allocated on the first Record and grows by doubling up to
// its capacity, so a session that never takes a chunk holds no ring.
//
// Appends are mutex-guarded: chunks within a session are already
// serialized, so the lock is uncontended in steady state and only
// matters against concurrent debug reads.
type FlightRecorder struct {
	mu       sync.Mutex
	capacity int
	buf      []ChunkTrace // the ring; shorter than capacity until it fills
	next     int64        // total traces ever recorded
}

// NewFlightRecorder builds a recorder holding the most recent capacity
// traces. Capacity must be positive.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		panic(fmt.Sprintf("telemetry: flight recorder capacity must be positive, got %d", capacity))
	}
	return &FlightRecorder{capacity: capacity}
}

// Record appends one chunk trace, evicting the oldest when full. Safe on
// a nil receiver (no-op).
func (f *FlightRecorder) Record(ct ChunkTrace) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if n := len(f.buf); n < f.capacity {
		// Still filling: traces sit in arrival order at buf[:next].
		if n == cap(f.buf) {
			f.buf = append(make([]ChunkTrace, 0, min(max(2*n, 1), f.capacity)), f.buf...)
		}
		f.buf = append(f.buf, ct)
	} else {
		f.buf[f.next%int64(len(f.buf))] = ct
	}
	f.next++
	f.mu.Unlock()
}

// Total returns the number of traces ever recorded (zero on nil).
func (f *FlightRecorder) Total() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Traces returns the retained traces, oldest first (nil on a nil
// receiver).
func (f *FlightRecorder) Traces() []ChunkTrace {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := int64(len(f.buf))
	if f.next <= n {
		out := make([]ChunkTrace, f.next)
		copy(out, f.buf[:f.next])
		return out
	}
	out := make([]ChunkTrace, n)
	start := f.next % n
	copy(out, f.buf[start:])
	copy(out[n-start:], f.buf[:start])
	return out
}

// WriteDump renders the retained traces human-readably, newest last —
// the post-mortem body logged when a session is poisoned.
func (f *FlightRecorder) WriteDump(w io.Writer) error {
	traces := f.Traces()
	if _, err := fmt.Fprintf(w, "flight recorder: last %d of %d chunks\n", len(traces), f.Total()); err != nil {
		return err
	}
	for _, ct := range traces {
		status := "ok"
		if ct.Err != "" {
			status = "ERR " + ct.Err
		}
		if _, err := fmt.Fprintf(w, "  chunk %-6d %s  %6dB %6d elems  total %s  [", ct.Seq,
			ct.Start.Format("15:04:05.000"), ct.Bytes, ct.Elements,
			time.Duration(ct.TotalNS)); err != nil {
			return err
		}
		for st := Stage(0); st < NumStages; st++ {
			if ct.StageNS[st] == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, " %s=%s", st, time.Duration(ct.StageNS[st])); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, " ] events=%d %s\n", ct.Events, status); err != nil {
			return err
		}
	}
	return nil
}
