package faultinject

import (
	"time"

	"opd/internal/core"
	"opd/internal/trace"
)

// modelShim is the shared delegating base of the chaos models: it wraps a
// real core.Model, forwards every call, and gives each wrapper one hook
// (beforeUpdate) invoked with the 1-based group number before the window
// update runs.
type modelShim struct {
	inner core.Model
	calls int
	hook  func(call int)
}

func (m *modelShim) tick() int {
	m.calls++
	if m.hook != nil {
		m.hook(m.calls)
	}
	return m.calls
}

func (m *modelShim) UpdateWindowsIDs(ids []int32) {
	m.tick()
	m.inner.UpdateWindowsIDs(ids)
}

func (m *modelShim) BindSymbols(syms []trace.Branch)    { m.inner.BindSymbols(syms) }
func (m *modelShim) ComputeSimilarity() (float64, bool) { return m.inner.ComputeSimilarity() }
func (m *modelShim) AnchorTrailingWindow() int64        { return m.inner.AnchorTrailingWindow() }
func (m *modelShim) ClearWindows()                      { m.inner.ClearWindows() }

var _ core.Model = (*modelShim)(nil)

// NewHookModel wraps inner so hook runs with the 1-based group number
// before every window update — the general observation/chaos primitive
// the named shims specialize. Hooks compose by nesting wrappers; the
// outermost hook fires first.
func NewHookModel(inner core.Model, hook func(call int)) core.Model {
	return &modelShim{inner: inner, hook: hook}
}

// NewPanicModel wraps inner so the detector panics with msg on the
// after-th consumed group (1-based) — a deterministic stand-in for a bug
// in model/detector code, used to prove the sweep engine isolates the
// blast radius to one Run.
func NewPanicModel(inner core.Model, after int, msg string) core.Model {
	s := &modelShim{inner: inner}
	s.hook = func(call int) {
		if call == after {
			panic(msg)
		}
	}
	return s
}

// NewStallModel wraps inner so the detector blocks on the at-th consumed
// group (1-based) until gate is closed, then proceeds normally — a hung
// dependency for exercising sweep cancellation: cancel the sweep's
// context, close the gate, and the engine must mark the stalled run
// aborted and return the rest.
func NewStallModel(inner core.Model, at int, gate <-chan struct{}) core.Model {
	s := &modelShim{inner: inner}
	s.hook = func(call int) {
		if call == at {
			<-gate
		}
	}
	return s
}

// NewSlowModel wraps inner so every consumed group costs an extra
// perGroup of wall clock — a uniformly slow detector for making
// mid-sweep cancellation windows wide enough to hit in tests.
func NewSlowModel(inner core.Model, perGroup time.Duration) core.Model {
	s := &modelShim{inner: inner}
	s.hook = func(int) { time.Sleep(perGroup) }
	return s
}
