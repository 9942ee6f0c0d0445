package serve

import (
	"sync/atomic"

	"opd/internal/telemetry"
)

// Byte-cost constants for the accountant. These are deliberately coarse
// estimates — the governor bounds growth and ranks sessions for
// eviction; it is not a heap profiler. Each is the steady-state cost of
// one unit, rounded up so the accountant errs toward shedding early.
const (
	// eventLogBytes covers one retained event in the session's event log
	// (eventlog.go): its OPDSESS1 encoding, its wall-clock delta, its
	// share of the Seq marks, and the log's slack of up to half again
	// its live bytes. A capped log measures 20–24 bytes per kept event on
	// detector-fed streams and up to 26 once positions take five-byte
	// varints (TestEventLogBytesWithinCharge).
	eventLogBytes = 32
	// sessionBaseBytes covers a session's fixed overhead: the struct,
	// flight recorder ring, subscriber map, and durable log buffers.
	sessionBaseBytes = 16 << 10
	// windowElemBytes covers one profile element held in the detector's
	// current/trailing windows (ring slot plus its share of the model's
	// counters).
	windowElemBytes = 8
	// streamConnBytes covers one persistent framed connection's read and
	// write buffers.
	streamConnBytes = 64 << 10
)

// A Governor is the serving layer's byte accountant: every long-lived
// allocation the server makes on a client's behalf (session base cost,
// window memory, retained events, stream-connection buffers) and every
// transient ingest buffer is charged here, against one global budget
// with two watermarks.
//
// Crossing the soft watermark sheds *new session opens* (429 +
// Retry-After: existing clients keep working, new load waits) and makes
// the janitor start pressure-evicting idle/large sessions. Crossing the
// hard watermark sheds *ingest chunks* with a retryable error — the
// point where protecting the process outranks serving existing
// sessions. Charges themselves never block: accounting must stay exact
// even while shedding, so Reserve is unconditional and the shed
// decisions read the level.
type Governor struct {
	hard  int64 // budget; <= 0 means unlimited
	soft  int64
	used  atomic.Int64
	probe *telemetry.ResilienceProbe
}

// newGovernor builds the accountant. hard <= 0 disables both
// watermarks (accounting still runs, for observability). The soft
// watermark sits at 80% of hard.
func newGovernor(hard int64, probe *telemetry.ResilienceProbe) *Governor {
	g := &Governor{hard: hard, probe: probe}
	if hard > 0 {
		g.soft = hard - hard/5
	}
	probe.Mem(0, hard)
	return g
}

// Reserve charges n bytes unconditionally.
func (g *Governor) Reserve(n int64) {
	if n <= 0 {
		return
	}
	g.probe.Mem(g.used.Add(n), g.hard)
}

// Release returns n bytes to the budget.
func (g *Governor) Release(n int64) {
	if n <= 0 {
		return
	}
	g.probe.Mem(g.used.Add(-n), g.hard)
}

// TryReserve charges n bytes unless doing so would cross the hard
// watermark, reporting whether the charge landed. Ingest paths use it:
// a refused chunk is shed with a retryable error and costs nothing.
func (g *Governor) TryReserve(n int64) bool {
	if n <= 0 {
		return true
	}
	if g.hard > 0 && g.used.Load()+n > g.hard {
		return false
	}
	g.probe.Mem(g.used.Add(n), g.hard)
	return true
}

// Used returns the bytes currently charged.
func (g *Governor) Used() int64 { return g.used.Load() }

// OverSoft reports whether the accountant is past the soft watermark.
func (g *Governor) OverSoft() bool {
	return g.hard > 0 && g.used.Load() > g.soft
}

// RetryAfterSeconds is the backoff hint attached to shed responses:
// modest under soft pressure, longer once the hard watermark is the
// problem — the caller's retry is pointless until eviction catches up.
func (g *Governor) RetryAfterSeconds() int {
	if g.hard > 0 && g.used.Load() > g.hard {
		return 5
	}
	return 2
}
