// Package telemetry is the repository's instrumentation substrate: a
// dependency-free, allocation-conscious layer of lock-free counters,
// gauges, and log-linear histograms, a bounded ring buffer of phase
// lifecycle events, and a registry that snapshots everything on demand and
// exposes it as Prometheus text, JSON, or a live /debug/phasedet HTTP
// endpoint.
//
// Everything in the package is nil-receiver safe: a disabled probe is a
// nil pointer, and every instrument method starts with a nil check, so
// uninstrumented runs pay one predictable branch per call site and no
// allocation, locking, or time syscalls. Probes cache instrument pointers
// at construction, so the hot paths never touch the registry maps.
package telemetry

import (
	"math"
	"sync/atomic"
)

// A Counter is a monotonically increasing lock-free counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (zero on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is a lock-free instantaneous float64 value (stored as IEEE bits
// in an atomic word).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d via a CAS loop. Safe on a nil receiver (no-op).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (zero on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
