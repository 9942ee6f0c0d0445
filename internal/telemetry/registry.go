package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// A Label is one name/value dimension of a metric (e.g. detector ID).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DefaultRingCapacity is the event-trace bound used by NewRegistry.
const DefaultRingCapacity = 4096

// A Registry owns a namespace of instruments plus the lifecycle event
// ring. Get-or-create lookups are mutex-guarded; the instruments
// themselves are lock-free, and probes cache instrument pointers so
// steady-state instrumentation never locks. All methods are safe on a
// nil receiver, returning nil instruments that are themselves no-ops.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry // keyed by full name (family + labels)
	order   []*entry
	help    map[string]string
	ring    *Ring
	collect []func()
	// runtimeRegistered dedups RegisterRuntimeGauges per registry.
	runtimeRegistered bool
}

type entry struct {
	family string
	labels []Label
	full   string // family plus rendered label set

	counter *Counter
	gauge   *Gauge
	lat     *LatencyHistogram
}

// kind is the entry's Prometheus metric type.
func (e *entry) kind() string {
	switch {
	case e.gauge != nil:
		return "gauge"
	case e.lat != nil:
		return "summary"
	}
	return "counter"
}

// NewRegistry builds an empty registry with a DefaultRingCapacity event
// ring.
func NewRegistry() *Registry {
	return &Registry{
		entries: map[string]*entry{},
		help:    map[string]string{},
		ring:    NewRing(DefaultRingCapacity),
	}
}

// Ring returns the registry's event ring (nil on a nil registry).
func (r *Registry) Ring() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}

// OnCollect registers a hook run at the start of every Snapshot and
// exposition write — the seam that lets sampled values (Go runtime
// stats, pool sizes) refresh their gauges exactly when someone looks.
// Safe on a nil registry (no-op).
func (r *Registry) OnCollect(f func()) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.collect = append(r.collect, f)
	r.mu.Unlock()
}

// runCollectors fires the registered collect hooks.
func (r *Registry) runCollectors() {
	if r == nil {
		return
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.collect...)
	r.mu.Unlock()
	for _, f := range hooks {
		f()
	}
}

// Help sets the help text rendered for a metric family.
func (r *Registry) Help(family, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[family] = text
	r.mu.Unlock()
}

// lookup returns the entry for family+labels, creating it with mk on
// first use. It panics if the name is already registered as a different
// instrument kind (a programming error, like Prometheus client libraries
// treat it).
func (r *Registry) lookup(family string, labels []Label, mk func(*entry)) *entry {
	full := family + promLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[full]; ok {
		return e
	}
	e := &entry{family: family, labels: append([]Label(nil), labels...), full: full}
	mk(e)
	r.entries[full] = e
	r.order = append(r.order, e)
	return e
}

// Counter returns (creating on first use) the counter with the given
// family name and labels. Nil-registry safe: returns a nil Counter.
func (r *Registry) Counter(family string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	e := r.lookup(family, labels, func(e *entry) { e.counter = &Counter{} })
	if e.counter == nil {
		panic(fmt.Sprintf("telemetry: %s already registered as a non-counter", e.full))
	}
	return e.counter
}

// Gauge returns (creating on first use) the gauge with the given family
// name and labels. Nil-registry safe: returns a nil Gauge.
func (r *Registry) Gauge(family string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	e := r.lookup(family, labels, func(e *entry) { e.gauge = &Gauge{} })
	if e.gauge == nil {
		panic(fmt.Sprintf("telemetry: %s already registered as a non-gauge", e.full))
	}
	return e.gauge
}

// Latency returns (creating on first use) the histogram with the given
// family name and labels. Nil-registry safe: returns a nil
// LatencyHistogram.
func (r *Registry) Latency(family string, labels ...Label) *LatencyHistogram {
	if r == nil {
		return nil
	}
	e := r.lookup(family, labels, func(e *entry) { e.lat = NewLatencyHistogram() })
	if e.lat == nil {
		panic(fmt.Sprintf("telemetry: %s already registered as a non-histogram", e.full))
	}
	return e.lat
}

// A Point is one scalar metric sample in a snapshot.
type Point struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// A LatencyPoint is one histogram's percentile readout in a snapshot.
type LatencyPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	LatencySummary
}

// An EventPoint is one ring event in a snapshot, with the kind rendered
// as its name.
type EventPoint struct {
	Event
	Kind string `json:"kind"`
}

// A Snapshot is a point-in-time copy of every instrument and the retained
// event trace. Instruments are read individually with atomic loads; the
// snapshot is not a cross-metric transaction, which observability reads
// do not need.
type Snapshot struct {
	Counters    []Point        `json:"counters"`
	Gauges      []Point        `json:"gauges"`
	Latencies   []LatencyPoint `json:"latencies,omitempty"`
	Events      []EventPoint   `json:"events"`
	EventsTotal uint64         `json:"events_total"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot copies the registry's current state. Safe on a nil registry
// (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.runCollectors()
	r.mu.Lock()
	order := append([]*entry(nil), r.order...)
	r.mu.Unlock()
	for _, e := range order {
		switch {
		case e.counter != nil:
			s.Counters = append(s.Counters, Point{Name: e.family, Labels: labelMap(e.labels), Value: float64(e.counter.Value())})
		case e.gauge != nil:
			s.Gauges = append(s.Gauges, Point{Name: e.family, Labels: labelMap(e.labels), Value: e.gauge.Value()})
		case e.lat != nil:
			s.Latencies = append(s.Latencies, LatencyPoint{
				Name: e.family, Labels: labelMap(e.labels),
				LatencySummary: e.lat.Summary(),
			})
		}
	}
	for _, ev := range r.ring.Events() {
		s.Events = append(s.Events, EventPoint{Event: ev, Kind: ev.Kind.String()})
	}
	s.EventsTotal = r.ring.Total()
	return s
}

// families returns the registry's entries grouped by family, families
// sorted by name, entries within a family in registration order.
func (r *Registry) families() [][]*entry {
	r.mu.Lock()
	order := append([]*entry(nil), r.order...)
	r.mu.Unlock()
	byFamily := map[string][]*entry{}
	var names []string
	for _, e := range order {
		if _, ok := byFamily[e.family]; !ok {
			names = append(names, e.family)
		}
		byFamily[e.family] = append(byFamily[e.family], e)
	}
	sort.Strings(names)
	out := make([][]*entry, 0, len(names))
	for _, n := range names {
		out = append(out, byFamily[n])
	}
	return out
}
