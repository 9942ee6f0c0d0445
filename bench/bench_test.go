package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"opd/internal/serve"
)

// The sweep workload re-executes the benchmark binary as its child; in a
// test that binary is the test binary, so the child is dispatched here.
// The benchmark runs from the checkout root, one level above this
// package's directory, where go test starts it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "sweep-child" {
		os.Exit(sweepChild(os.Args[2:], os.Stdout, os.Stderr))
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// shortSeconds is the smoke runs' length, under a tenth of
// BENCHMARK.json's run_seconds.
const shortSeconds = 2.8

func buildDir(t *testing.T) (root, dir string) {
	t.Helper()
	root, err := checkoutRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return root, dir
}

// TestShortRun runs every workload for shortSeconds and checks the
// result line a caller of the benchmark reads: the run is correct and
// the line carries every end-to-end metric, with its unit, as a non-zero
// number.
func TestShortRun(t *testing.T) {
	root, _ := buildDir(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := benchmark(context.Background(), root, w, 1, shortSeconds, false)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(rep.line())
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   bool                 `json:"correct"`
				Attempted int64                `json:"attempted"`
				Failed    int64                `json:"failed"`
				Metrics   map[string]metricVal `json:"metrics"`
			}
			if err := json.Unmarshal(data, &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Fatalf("result line %s", data)
			}
			for _, d := range e2eMetrics {
				got, ok := line.Metrics[d.name]
				if !ok || got.Unit != d.unit || !(got.Value > 0) {
					t.Errorf("metric %s: got %+v (present %v), want unit %s and a positive value", d.name, got, ok, d.unit)
				}
			}
			if len(line.Metrics) != len(e2eMetrics) {
				t.Errorf("%d metrics printed, want %d", len(line.Metrics), len(e2eMetrics))
			}
		})
	}
}

// TestPerturbedReferenceFailsRun shows the check has teeth: the same
// run, with one reference event altered, ends in a correctness failure.
func TestPerturbedReferenceFailsRun(t *testing.T) {
	_, dir := buildDir(t)
	w, _ := workloadByName("stream-ids")
	r, err := newRun(w, 1, shortSeconds, false, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.cleanup()
	r.perturb = func(ref *reference) {
		if len(ref.events) > 0 {
			ref.events[len(ref.events)-1].V1++
		} else {
			ref.sim++
		}
	}
	err = r.execute(context.Background(), dir)
	var ce *checkError
	if !errors.As(err, &ce) {
		t.Fatalf("run with a perturbed reference returned %v, want a correctness failure", err)
	}
}

// TestCheckCatchesEveryField perturbs each compared field of a reference
// in turn; the check must reject every one.
func TestCheckCatchesEveryField(t *testing.T) {
	ts := newTraceSet(1, 1)
	src, err := newSource(ts, []string{"jlex"}, 12345, 256)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cw500.Config()
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 60
	ref, err := runReference(cfg, src, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.events) < 2 || len(ref.phases) == 0 {
		t.Fatalf("reference too small to test: %d events, %d phases", len(ref.events), len(ref.phases))
	}
	sum := func() *serve.Summary {
		return &serve.Summary{Consumed: ref.consumed, SimComputations: ref.sim,
			Phases: append(ref.phases[:0:0], ref.phases...), AdjustedPhases: append(ref.adjust[:0:0], ref.adjust...),
			EventsTotal: uint64(len(ref.events))}
	}
	events := func() []serve.Event { return append([]serve.Event(nil), ref.events...) }
	if err := ref.check(sum(), events(), chunks, true); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	cases := map[string]func(s *serve.Summary, ev *[]serve.Event){
		"consumed":        func(s *serve.Summary, _ *[]serve.Event) { s.Consumed++ },
		"sim":             func(s *serve.Summary, _ *[]serve.Event) { s.SimComputations-- },
		"phase":           func(s *serve.Summary, _ *[]serve.Event) { s.Phases[0].End++ },
		"adjusted":        func(s *serve.Summary, _ *[]serve.Event) { s.AdjustedPhases = s.AdjustedPhases[1:] },
		"events total":    func(s *serve.Summary, _ *[]serve.Event) { s.EventsTotal++ },
		"event kind":      func(_ *serve.Summary, ev *[]serve.Event) { (*ev)[1].Kind = "bogus" },
		"event at":        func(_ *serve.Summary, ev *[]serve.Event) { (*ev)[0].At++ },
		"duplicate event": func(_ *serve.Summary, ev *[]serve.Event) { *ev = append((*ev)[:1], (*ev)...) },
		"lost event":      func(_ *serve.Summary, ev *[]serve.Event) { *ev = (*ev)[1:] },
		"failed session":  func(s *serve.Summary, _ *[]serve.Event) { s.Error = "poisoned" },
	}
	for name, perturb := range cases {
		s, ev := sum(), events()
		perturb(s, &ev)
		if err := ref.check(s, ev, chunks, true); err == nil {
			t.Errorf("%s: check passed a perturbed result", name)
		}
	}
}

// The reference must reproduce the offline run exactly, whatever the
// chunking and rotation: it is the ground truth of every check.
func TestReferenceMatchesOfflineRun(t *testing.T) {
	ts := newTraceSet(7, 1)
	src, err := newSource(ts, []string{"compress", "jlex"}, 999, 300)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := cw500.Config()
	const chunks = 150
	ref, err := runReference(cfg, src, chunks)
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.MustNew()
	for k := 0; k < chunks; k++ {
		d.ProcessBatch(src.chunk(k))
	}
	d.Finish()
	if d.Consumed() != ref.consumed || d.SimilarityComputations() != ref.sim ||
		!sameIntervals(d.AdjustedPhases(), ref.adjust) || !sameIntervals(d.Phases(), ref.phases) {
		t.Fatalf("reference differs from a branch-element run: consumed %d/%d sim %d/%d",
			ref.consumed, d.Consumed(), ref.sim, d.SimilarityComputations())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	around := func(center float64) []float64 {
		var out []float64
		for i := 0; i < 10; i++ {
			out = append(out, center*(1+0.002*float64(i%5-2)))
		}
		return out
	}
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		base   []float64
		change []float64
		want   string
	}{
		{"faster", around(100), around(80), "gain"},
		{"slower", around(100), around(130), "regression"},
		{"within bound", around(100), around(105), "same"},
		{"noisy", wide, around(95), "unresolved"},
		{"noisy but every run slower", wide, scaled(wide, 4), "regression"},
		{"noisy but every run faster", scaled(wide, 4), wide, "gain"},
	} {
		if got := judge(c.base, c.change, true, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json must name exactly the metrics the benchmark prints,
// with the same units and directions, and every workload but
// sweep-offline, which runs on request only: its timings spread by more
// than the largest bound BENCHMARK.json may give (README.md).
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var listed []workload
	for _, w := range workloads {
		if w.name != "sweep-offline" {
			listed = append(listed, w)
		}
	}
	if len(bf.Workloads) != len(listed) {
		t.Fatalf("%d workloads in BENCHMARK.json, want %d", len(bf.Workloads), len(listed))
	}
	for i, w := range listed {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the benchmark", i, bf.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		json  []metric
		table []metricDef
		bound bool
	}{{bf.EndToEnd, e2eMetrics, true}, {bf.PerLayer, layerMetrics, false}} {
		if len(c.json) != len(c.table) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the table", len(c.json), len(c.table))
		}
		for i, d := range c.table {
			better := "higher"
			if d.lower {
				better = "lower"
			}
			m := c.json[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != better || (m.Bound != nil) != c.bound {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the table %+v", i, m, d)
			}
		}
	}
}
