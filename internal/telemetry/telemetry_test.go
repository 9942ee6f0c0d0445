package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	var nilC *Counter
	nilC.Inc()
	nilC.Add(7)
	if got := nilC.Value(); got != 0 {
		t.Errorf("nil counter = %d, want 0", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
	var nilG *Gauge
	nilG.Set(9)
	nilG.Add(9)
	if got := nilG.Value(); got != 0 {
		t.Errorf("nil gauge = %g, want 0", got)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := int64(0); i < 6; i++ {
		r.Record(EvPhaseStart, "d", i, i*10, 0)
	}
	if got := r.Len(); got != 4 {
		t.Errorf("len = %d, want 4", got)
	}
	if got := r.Total(); got != 6 {
		t.Errorf("total = %d, want 6", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(i + 2) // oldest retained is #2
		if e.Seq != wantSeq || e.At != int64(wantSeq) {
			t.Errorf("event %d: seq=%d at=%d, want seq=at=%d", i, e.Seq, e.At, wantSeq)
		}
	}

	var nilR *Ring
	nilR.Record(EvPhaseEnd, "d", 0, 0, 0)
	if nilR.Len() != 0 || nilR.Total() != 0 || nilR.Events() != nil {
		t.Error("nil ring should read as empty")
	}
}

func TestRingRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing(0) should panic")
		}
	}()
	NewRing(0)
}

func TestEventKindNames(t *testing.T) {
	kinds := []EventKind{EvPhaseStart, EvPhaseEnd, EvStateFlip, EvJITCompile, EvJITReuse}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "EventKind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if got := EventKind(99).String(); !strings.HasPrefix(got, "EventKind(") {
		t.Errorf("unknown kind renders as %q", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("opd_test_total", L("k", "v"))
	b := reg.Counter("opd_test_total", L("k", "v"))
	if a != b {
		t.Error("same family+labels should return the same counter")
	}
	c := reg.Counter("opd_test_total", L("k", "other"))
	if a == c {
		t.Error("different labels should return a distinct counter")
	}
	a.Inc()
	if c.Value() != 0 {
		t.Error("label sets must not share state")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("opd_test_total")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	reg.Gauge("opd_test_total")
}

func TestNilRegistryIsInert(t *testing.T) {
	var reg *Registry
	reg.Help("x", "y")
	if reg.Counter("c") != nil || reg.Gauge("g") != nil || reg.Latency("h") != nil {
		t.Error("nil registry should hand out nil instruments")
	}
	if reg.Ring() != nil {
		t.Error("nil registry should have a nil ring")
	}
	s := reg.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Latencies)+len(s.Events) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry Prometheus output: err=%v, %d bytes", err, buf.Len())
	}
	if err := reg.WriteReport(io.Discard); err != nil {
		t.Errorf("nil registry report: %v", err)
	}
	if NewDetectorProbe(reg, "d") != nil || NewJITProbe(reg) != nil ||
		NewVMProbe(reg, "interpreted") != nil || NewSweepProbe(reg) != nil {
		t.Error("probe constructors should return nil for a nil registry")
	}
}

func TestNilProbesAreNoOps(t *testing.T) {
	var d *DetectorProbe
	d.Group(10)
	d.Similarity(0.5)
	d.StateFlip(true, 1, 1)
	d.EndOfStream(false, 1)
	d.PhaseStart(10, 5)
	d.PhaseEnd(20, 5)
	var j *JITProbe
	j.Compile(1)
	j.Reuse(1, 0)
	j.Behaviours(1)
	var v *VMProbe
	v.Flush(1, 1, 1, 1)
	var s *SweepProbe
	s.Run(time.Millisecond, 10, 100)
	var du *DurableProbe
	du.Append(64, 100)
	du.Fsync(100)
	du.Snapshot(100, false)
}

func TestDetectorProbeRecords(t *testing.T) {
	reg := NewRegistry()
	p := NewDetectorProbe(reg, "det1")
	p.Group(100)
	p.Group(100)
	p.Similarity(0.7)
	p.Similarity(-0.3)           // a negative correlation records as 0
	p.StateFlip(true, 200, 200)  // T -> P
	p.PhaseStart(200, 150)       // anchor moved back 50
	p.StateFlip(false, 900, 700) // P -> T
	p.PhaseEnd(900, 150)

	l := L("detector", "det1")
	if got := reg.Counter(MetricDetectorElements, l).Value(); got != 200 {
		t.Errorf("elements = %d, want 200", got)
	}
	if s, f := reg.Counter(MetricDetectorPhaseStarts, l).Value(), reg.Counter(MetricDetectorStateFlips, l).Value(); s != 1 || f != 2 {
		t.Errorf("phases started = %d, state flips = %d, want 1, 2", s, f)
	}
	sim := reg.Latency(MetricDetectorSimilarity, l)
	if sim.Count() != 2 || sim.Sum() != 700000 || sim.Max() != 700000 || sim.Quantile(0.5) != 0 {
		t.Errorf("similarity ppm: count=%d sum=%d max=%d p50=%d, want 2, 700000, 700000, 0",
			sim.Count(), sim.Sum(), sim.Max(), sim.Quantile(0.5))
	}
	if got := reg.Latency(MetricDetectorAnchorDist, l).Summary(); got.Count != 1 || got.Max != 50 {
		t.Errorf("anchor adjustments: count=%d max=%d, want 1, 50", got.Count, got.Max)
	}
	if got := reg.Latency(MetricDetectorPhaseLength, l).Summary(); got.Count != 1 || got.Max != 750 {
		t.Errorf("phase lengths: count=%d max=%d, want 1, 750", got.Count, got.Max)
	}
	dwellT := reg.Latency(MetricDetectorStateDwell, l, L("state", "T"))
	if got := dwellT.Count(); got != 1 {
		t.Errorf("T dwell observations = %d, want 1", got)
	}
	kinds := map[EventKind]int{}
	for _, e := range reg.Ring().Events() {
		if e.Src != "det1" {
			t.Errorf("event source = %q, want det1", e.Src)
		}
		kinds[e.Kind]++
	}
	want := map[EventKind]int{EvStateFlip: 2, EvPhaseStart: 1, EvPhaseEnd: 1}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("%v events = %d, want %d", k, kinds[k], n)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Help("opd_test_total", "A test counter.")
	reg.Counter("opd_test_total", L("detector", "d1")).Add(3)
	reg.Gauge("opd_test_gauge").Set(0.25)
	reg.Latency("opd_test_ns", L("stage", "x")).Observe(5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP opd_test_total A test counter.",
		"# TYPE opd_test_total counter",
		`opd_test_total{detector="d1"} 3`,
		"# TYPE opd_test_gauge gauge",
		"opd_test_gauge 0.25",
		"# TYPE opd_test_ns summary",
		`opd_test_ns{stage="x",quantile="0.5"} 5`,
		`opd_test_ns{stage="x",quantile="1"} 5`,
		`opd_test_ns_sum{stage="x"} 5`,
		`opd_test_ns_count{stage="x"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, " histogram\n") || strings.Contains(out, "_bucket") {
		t.Errorf("Prometheus output has a histogram family:\n%s", out)
	}
}

func TestWriteJSONSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("opd_test_total").Add(7)
	reg.Ring().Record(EvPhaseStart, "d", 10, 5, 0)

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s struct {
		Counters []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"counters"`
		Events []struct {
			Kind string `json:"kind"`
			At   int64  `json:"at"`
		} `json:"events"`
		EventsTotal uint64 `json:"events_total"`
	}
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(s.Counters) != 1 || s.Counters[0].Name != "opd_test_total" || s.Counters[0].Value != 7 {
		t.Errorf("counters = %+v", s.Counters)
	}
	if len(s.Events) != 1 || s.Events[0].Kind != "phase_start" || s.Events[0].At != 10 {
		t.Errorf("events = %+v", s.Events)
	}
	if s.EventsTotal != 1 {
		t.Errorf("events_total = %d, want 1", s.EventsTotal)
	}
}

func TestWriteReport(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("opd_test_total").Add(2)
	reg.Latency("opd_test_ns").Observe(3)
	reg.Ring().Record(EvJITCompile, "jit", 100, -1, 0)
	var buf bytes.Buffer
	if err := reg.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"opd_test_total", "opd_test_ns", "count=1 p50=3", "jit_compile", "at=100"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("opd_test_total").Add(5)
	reg.Ring().Record(EvPhaseEnd, "d", 50, 10, 40)
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	get := func(path, accept string) (string, string) {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get(DebugPath, "")
	if !strings.Contains(body, "opd_test_total 5") {
		t.Errorf("Prometheus body missing counter:\n%s", body)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("content type = %q", ctype)
	}

	body, ctype = get(DebugPath+"?format=json", "")
	if !strings.Contains(ctype, "application/json") || !strings.Contains(body, `"opd_test_total"`) {
		t.Errorf("JSON variant: ctype=%q body=%s", ctype, body)
	}
	body, _ = get(DebugPath, "application/json")
	if !strings.Contains(body, `"counters"`) {
		t.Errorf("Accept negotiation failed:\n%s", body)
	}

	body, _ = get(DebugPath+"/events", "")
	if !strings.Contains(body, `"phase_end"`) {
		t.Errorf("events endpoint missing event:\n%s", body)
	}
}

func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("opd_test_total").Inc()
	srv, err := Serve(":0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "opd_test_total 1") {
		t.Errorf("served body:\n%s", body)
	}
}

// TestRegistryConcurrent exercises concurrent get-or-create lookups,
// instrument updates, ring appends, and snapshot/exposition reads. Run
// under -race (see the Makefile check target).
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := string(rune('a' + w%4)) // collide half the label sets
			for i := 0; i < iters; i++ {
				reg.Counter("opd_race_total", L("detector", id)).Inc()
				reg.Gauge("opd_race_gauge", L("detector", id)).Set(float64(i))
				reg.Latency("opd_race_ns", L("detector", id)).Observe(int64(i))
				reg.Ring().Record(EvStateFlip, id, int64(i), 0, 0)
				if i%100 == 0 {
					_ = reg.Snapshot()
					_ = reg.WritePrometheus(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, id := range []string{"a", "b", "c", "d"} {
		total += reg.Counter("opd_race_total", L("detector", id)).Value()
	}
	if total != workers*iters {
		t.Errorf("total increments = %d, want %d", total, workers*iters)
	}
	if got := reg.Ring().Total(); got != workers*iters {
		t.Errorf("ring total = %d, want %d", got, workers*iters)
	}
}
