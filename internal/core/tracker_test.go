package core

import (
	"testing"

	"opd/internal/trace"
)

func TestTrackerObserve(t *testing.T) {
	tr := NewTracker(0.5)
	sigA := []trace.Branch{el(1), el(2), el(3), el(4)}
	sigB := []trace.Branch{el(10), el(11), el(12), el(13)}
	sigA2 := []trace.Branch{el(1), el(2), el(3), el(5)} // Jaccard 3/5 = 0.6 vs A

	id0, repeat, _ := tr.Observe(sigA)
	if repeat || id0 != 0 {
		t.Fatalf("first phase: id=%d repeat=%v", id0, repeat)
	}
	id1, repeat, _ := tr.Observe(sigB)
	if repeat || id1 != 1 {
		t.Fatalf("second distinct phase: id=%d repeat=%v", id1, repeat)
	}
	id2, repeat, sim := tr.Observe(sigA2)
	if !repeat || id2 != 0 {
		t.Fatalf("recurrence not matched: id=%d repeat=%v sim=%f", id2, repeat, sim)
	}
	if sim < 0.59 || sim > 0.61 {
		t.Errorf("similarity = %f, want 0.6", sim)
	}
	if tr.KnownPhases() != 2 {
		t.Errorf("known phases = %d, want 2", tr.KnownPhases())
	}
	// The stored signature is the union, so {1,2,3,4,5} now; observing
	// {1,2,3} has Jaccard 3/5 = 0.6 >= 0.5.
	if id, repeat, _ := tr.Observe([]trace.Branch{el(1), el(2), el(3)}); !repeat || id != 0 {
		t.Errorf("union-folded signature not matched: id=%d repeat=%v", id, repeat)
	}
}

func TestTrackerBelowThresholdIsNewPhase(t *testing.T) {
	tr := NewTracker(0.9)
	tr.Observe([]trace.Branch{el(1), el(2)})
	id, repeat, _ := tr.Observe([]trace.Branch{el(1), el(3)}) // Jaccard 1/3
	if repeat || id != 1 {
		t.Errorf("low-similarity phase matched: id=%d repeat=%v", id, repeat)
	}
}

func TestSetModelPhaseSignature(t *testing.T) {
	m := NewSetModel(UnweightedModel, 3, 3, AdaptiveTW, AnchorRN, ResizeSlide)
	feedModel(m, trace.NewInternedBuilder(0), []trace.Branch{el(1), el(2), el(1), el(2), el(1), el(2)})
	sig := m.PhaseSignature()
	if len(sig) != 2 {
		t.Fatalf("signature = %v, want the two distinct elements", sig)
	}
	seen := map[trace.Branch]bool{}
	for _, e := range sig {
		seen[e] = true
	}
	if !seen[el(1)] || !seen[el(2)] {
		t.Errorf("signature contents wrong: %v", sig)
	}
	// After a clear, only the reinitialized CW contributes.
	m.ClearWindows()
	if sig := m.PhaseSignature(); len(sig) == 0 {
		t.Error("signature after clear should include the reinitialized CW")
	}
}

// feedModel interns elems through the table b, binds m to it, and
// consumes them as one group.
func feedModel(m Model, b *trace.InternedBuilder, elems []trace.Branch) {
	ids := make([]int32, len(elems))
	for i, e := range elems {
		ids[i] = b.Intern(e)
	}
	m.BindSymbols(b.Symbols())
	m.UpdateWindowsIDs(ids)
}

// recurringTrace alternates two behaviours: A B A B A, with glue between.
func recurringTrace() trace.Trace {
	var tr trace.Trace
	addRun := func(off, n int) {
		for i := 0; i < n; i++ {
			tr = append(tr, el(off))
		}
	}
	for rep := 0; rep < 5; rep++ {
		if rep%2 == 0 {
			addRun(1, 120)
			addRun(2, 120)
		} else {
			addRun(10, 120)
			addRun(11, 120)
		}
	}
	return tr
}

func TestRecurringDetectorIdentifiesRepeats(t *testing.T) {
	rd, err := NewRecurringDetector(Config{
		CWSize: 16, TW: AdaptiveTW, Model: UnweightedModel,
		Analyzer: ThresholdAnalyzer, Param: 0.6,
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	RunTrace(rd.Detector, recurringTrace())
	records := rd.Records()
	if len(records) < 4 {
		t.Fatalf("records = %d, want one per stable region (>= 4)", len(records))
	}
	// Two distinct behaviours alternate; the tracker must identify far
	// fewer distinct phases than occurrences.
	if rd.DistinctPhases() >= len(records) {
		t.Errorf("distinct phases = %d of %d occurrences; no recurrence detected",
			rd.DistinctPhases(), len(records))
	}
	repeats := 0
	for _, r := range records {
		if r.Repeat {
			repeats++
		}
	}
	if repeats == 0 {
		t.Error("no repeats flagged")
	}
	// Records must align with the detector's adjusted phases.
	adj := rd.AdjustedPhases()
	if len(records) != len(adj) {
		t.Fatalf("%d records vs %d adjusted phases", len(records), len(adj))
	}
	for i := range records {
		if records[i].Interval != adj[i] {
			t.Errorf("record %d interval %v != adjusted phase %v", i, records[i].Interval, adj[i])
		}
	}
}

func TestRecurringDetectorRejectsBadConfig(t *testing.T) {
	if _, err := NewRecurringDetector(Config{}, 0.5); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestConfidence(t *testing.T) {
	d := cfgConstant().MustNew()
	if d.Confidence() != 0 {
		t.Error("confidence before any similarity should be 0")
	}
	for _, e := range seg(nil, 1, 60) {
		d.Process(e)
	}
	// Deep inside a pure phase the unweighted similarity is 1.0 and the
	// threshold 0.6: confidence 0.4.
	if c := d.Confidence(); c < 0.35 || c > 0.45 {
		t.Errorf("confidence = %f, want ~0.4", c)
	}
	// Finish closes the open phase; its evidence must not linger.
	d.Finish()
	if c := d.Confidence(); c != 0 {
		t.Errorf("confidence = %f after Finish, want 0 (phase closed)", c)
	}
}
