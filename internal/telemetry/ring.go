package telemetry

import (
	"fmt"
	"sync"
)

// EventKind classifies a phase lifecycle event.
type EventKind uint8

const (
	// EvPhaseStart marks a detector entering a phase. At is the group
	// start; V1 is the anchor-corrected start, which is below At when
	// the model moved the start back to its anchor.
	EvPhaseStart EventKind = iota
	// EvPhaseEnd marks a detector leaving a phase. At is the phase end;
	// V1 is the anchor-corrected start, V2 the phase length in elements.
	EvPhaseEnd
	// EvStateFlip records an analyzer state change. At is the stream
	// position; V1 is the new state (0 = T, 1 = P), V2 the dwell length
	// of the state just left.
	EvStateFlip
	// EvJITCompile records a fresh compilation. V1 is the behaviour ID
	// (-1 while unassigned).
	EvJITCompile
	// EvJITReuse records a recognized recurring phase (a guard hit). V1
	// is the behaviour ID reused.
	EvJITReuse
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvPhaseStart:
		return "phase_start"
	case EvPhaseEnd:
		return "phase_end"
	case EvStateFlip:
		return "state_flip"
	case EvJITCompile:
		return "jit_compile"
	case EvJITReuse:
		return "jit_reuse"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// An Event is one entry of the lifecycle trace. Events are fixed-size
// values; Src is a label string shared across all events of a probe, so
// recording an event never allocates.
type Event struct {
	Seq  uint64    `json:"seq"`
	Kind EventKind `json:"-"`
	Src  string    `json:"src"`
	// At is the event's position in the profile-element stream.
	At int64 `json:"at"`
	// V1, V2 are kind-specific payloads (see the EventKind docs).
	V1 int64 `json:"v1"`
	V2 int64 `json:"v2"`
}

// A Ring is a bounded event trace: the most recent capacity events, in
// order. Appends are mutex-guarded — lifecycle events are orders of
// magnitude rarer than profile elements, so contention is negligible —
// and never allocate after construction.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever appended
}

// NewRing builds a ring holding the most recent capacity events.
// Capacity must be positive.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("telemetry: ring capacity must be positive, got %d", capacity))
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record appends an event, evicting the oldest when full. Safe on a nil
// receiver (no-op).
func (r *Ring) Record(kind EventKind, src string, at, v1, v2 int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = Event{Seq: r.next, Kind: kind, Src: src, At: at, V1: v1, V2: v2}
	r.next++
	r.mu.Unlock()
}

// Len returns the number of events currently held (zero on nil).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Total returns the number of events ever recorded, including evicted
// ones (zero on nil).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Events returns the retained events, oldest first (nil on a nil
// receiver).
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.next <= n {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, n)
	start := r.next % n
	copy(out, r.buf[start:])
	copy(out[n-start:], r.buf[:start])
	return out
}
