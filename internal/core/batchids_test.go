package core

import (
	"slices"
	"testing"

	"opd/internal/trace"
)

// feedIDs replays tr through the dense-ID batch path exactly as the
// streaming server does: each chunk's elements are interned through a
// client-side builder, the symbols new to the table extend the
// detector's table, and the chunk goes in as IDs.
func feedIDs(d *Detector, tr trace.Trace, size func(i int) int) {
	b := trace.NewInternedBuilder(0)
	var ids []int32
	for i, k := 0, 0; i < len(tr); k++ {
		end := min(i+size(k), len(tr))
		ids = internChunk(d, b, tr[i:end], ids[:0])
		d.ProcessBatchIDs(ids)
		i = end
	}
	d.Finish()
}

// internChunk interns elems through the client table b into ids and
// extends the detector's table with the symbols the chunk added.
func internChunk(d *Detector, b *trace.InternedBuilder, elems trace.Trace, ids []int32) []int32 {
	start := b.Cardinality()
	for _, e := range elems {
		ids = append(ids, b.Intern(e))
	}
	if err := d.ExtendSymbols(b.Symbols()[start:]); err != nil {
		panic(err)
	}
	return ids
}

// TestProcessBatchIDsEquivalence pins the dense-ID twin of the
// chunk-size-agnostic contract: feeding a trace through ProcessBatchIDs
// in chunks of any size — IDs assigned by a streaming InternedBuilder in
// first-appearance order, the detector's table extended as it grows —
// produces output identical to RunTrace over the raw elements.
func TestProcessBatchIDsEquivalence(t *testing.T) {
	tr := batchTestTrace(40000)
	configs := []Config{
		{CWSize: 400, SkipFactor: 1, TW: ConstantTW, Model: UnweightedModel, Analyzer: ThresholdAnalyzer, Param: 0.6},
		{CWSize: 500, TWSize: 700, SkipFactor: 64, TW: AdaptiveTW, Anchor: AnchorRN, Resize: ResizeSlide, Model: WeightedModel, Analyzer: ThresholdAnalyzer, Param: 0.5},
		FixedInterval(512, UnweightedModel, AverageAnalyzer, 0.3),
	}
	for _, cfg := range configs {
		want := RunTrace(cfg.MustNew(), tr)
		for name, size := range chunkings() {
			d := cfg.MustNew()
			feedIDs(d, tr, size)
			if d.Consumed() != want.Consumed() {
				t.Fatalf("%s/%s: consumed %d, want %d", cfg.ID(), name, d.Consumed(), want.Consumed())
			}
			if d.SimilarityComputations() != want.SimilarityComputations() {
				t.Errorf("%s/%s: sim computations %d, want %d", cfg.ID(), name,
					d.SimilarityComputations(), want.SimilarityComputations())
			}
			if !equalIntervals(d.Phases(), want.Phases()) {
				t.Errorf("%s/%s: phases %v, want %v", cfg.ID(), name, d.Phases(), want.Phases())
			}
			if !equalIntervals(d.AdjustedPhases(), want.AdjustedPhases()) {
				t.Errorf("%s/%s: adjusted phases %v, want %v", cfg.ID(), name,
					d.AdjustedPhases(), want.AdjustedPhases())
			}
		}
	}
}

// TestProcessBatchIDsSnapshotRestore pins restore on the dense-ID path:
// a detector snapshotted mid-ID-run persists its partial group in Branch
// form and its table as negotiated; the restored detector owns that
// table, interns the group back, and continuing through ExtendSymbols
// and ProcessBatchIDs matches an uninterrupted run bit for bit.
func TestProcessBatchIDsSnapshotRestore(t *testing.T) {
	tr := batchTestTrace(30000)
	cfg := Config{CWSize: 400, TWSize: 600, SkipFactor: 64, TW: AdaptiveTW,
		Anchor: AnchorRN, Resize: ResizeSlide, Model: WeightedModel, Analyzer: ThresholdAnalyzer, Param: 0.5}
	want := RunTrace(cfg.MustNew(), tr)

	// Cut points chosen to leave a partial group pending (not multiples
	// of the skip factor) and to land mid-phase.
	for _, cut := range []int{101, 12345, 29999} {
		b := trace.NewInternedBuilder(0)
		d := cfg.MustNew()
		feed := func(det *Detector, from, to int) {
			for i := from; i < to; i += 777 {
				det.ProcessBatchIDs(internChunk(det, b, tr[i:min(i+777, to)], nil))
			}
		}
		feed(d, 0, cut)
		snap, err := d.Snapshot()
		if err != nil {
			t.Fatalf("cut %d: snapshot: %v", cut, err)
		}
		d2, cfg2, err := RestoreDetector(snap)
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if cfg2.ID() != cfg.ID() {
			t.Fatalf("cut %d: restored config %s, want %s", cut, cfg2.ID(), cfg.ID())
		}
		if !slices.Equal(d2.Symbols(), b.Symbols()) {
			t.Fatalf("cut %d: restored table of %d symbols differs from the negotiated %d", cut, len(d2.Symbols()), b.Cardinality())
		}
		feed(d2, cut, len(tr))
		d2.Finish()
		if d2.Consumed() != want.Consumed() {
			t.Fatalf("cut %d: consumed %d, want %d", cut, d2.Consumed(), want.Consumed())
		}
		if d2.SimilarityComputations() != want.SimilarityComputations() {
			t.Errorf("cut %d: sim computations %d, want %d", cut, d2.SimilarityComputations(), want.SimilarityComputations())
		}
		if !equalIntervals(d2.Phases(), want.Phases()) {
			t.Errorf("cut %d: phases %v, want %v", cut, d2.Phases(), want.Phases())
		}
		if !equalIntervals(d2.AdjustedPhases(), want.AdjustedPhases()) {
			t.Errorf("cut %d: adjusted phases %v, want %v", cut, d2.AdjustedPhases(), want.AdjustedPhases())
		}
	}
}

// TestMixedEntryPointsShareOneTable pins that Branch and ID input meet in
// one symbol table and one pending group: alternating ProcessBatch and
// ProcessBatchIDs chunks (IDs from a client table that saw the same
// elements in the same order) matches RunTrace, and the two tables agree.
func TestMixedEntryPointsShareOneTable(t *testing.T) {
	tr := batchTestTrace(20000)
	cfg := Config{CWSize: 400, TWSize: 600, SkipFactor: 64, TW: AdaptiveTW,
		Anchor: AnchorRN, Resize: ResizeSlide, Model: WeightedModel, Analyzer: AverageAnalyzer, Param: 0.3}
	want := RunTrace(cfg.MustNew(), tr)
	d := cfg.MustNew()
	b := trace.NewInternedBuilder(0)
	for i, k := 0, 0; i < len(tr); k++ {
		end := min(i+333, len(tr))
		if k%2 == 0 {
			for _, e := range tr[i:end] {
				b.Intern(e)
			}
			d.ProcessBatch(tr[i:end])
		} else {
			d.ProcessBatchIDs(internChunk(d, b, tr[i:end], nil))
		}
		i = end
	}
	d.Finish()
	if !slices.Equal(d.Symbols(), b.Symbols()) {
		t.Fatalf("detector table of %d symbols differs from the client's %d", len(d.Symbols()), b.Cardinality())
	}
	if d.Consumed() != want.Consumed() || d.SimilarityComputations() != want.SimilarityComputations() {
		t.Fatalf("consumed/sim %d/%d, want %d/%d", d.Consumed(), d.SimilarityComputations(),
			want.Consumed(), want.SimilarityComputations())
	}
	if !equalIntervals(d.Phases(), want.Phases()) || !equalIntervals(d.AdjustedPhases(), want.AdjustedPhases()) {
		t.Errorf("phases %v / %v, want %v / %v", d.Phases(), d.AdjustedPhases(), want.Phases(), want.AdjustedPhases())
	}
}

// TestExtendSymbolsRejectsDuplicates pins the negotiation guard: an
// extension naming an element the table already holds, or naming one
// element twice, would give it two IDs, so it fails and changes nothing.
func TestExtendSymbolsRejectsDuplicates(t *testing.T) {
	d := Config{CWSize: 100, SkipFactor: 8, TW: ConstantTW, Model: UnweightedModel, Analyzer: ThresholdAnalyzer, Param: 0.6}.MustNew()
	a, b, c := trace.MakeBranch(0, 1, true), trace.MakeBranch(0, 2, true), trace.MakeBranch(0, 3, true)
	if err := d.ExtendSymbols([]trace.Branch{a, b}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]trace.Branch{{c, a}, {c, c}} {
		if err := d.ExtendSymbols(bad); err == nil {
			t.Errorf("extension %v accepted", bad)
		}
		if !slices.Equal(d.Symbols(), []trace.Branch{a, b}) {
			t.Fatalf("failed extension %v changed the table to %v", bad, d.Symbols())
		}
	}
}

// TestBranchInputAfterBind pins that Bind's table stays read-only: Branch
// input on a bound detector copies the table into one the detector owns
// and grows that, so a table shared by a whole sweep never changes under
// its other readers, and the output still matches RunTrace.
func TestBranchInputAfterBind(t *testing.T) {
	tr := batchTestTrace(20000)
	cfg := Config{CWSize: 400, TWSize: 600, SkipFactor: 64, TW: AdaptiveTW,
		Anchor: AnchorRN, Resize: ResizeSlide, Model: WeightedModel, Analyzer: ThresholdAnalyzer, Param: 0.5}
	want := RunTrace(cfg.MustNew(), tr)
	shared := trace.Intern(tr[:3500])
	before := slices.Clone(shared.Symbols())
	d := cfg.MustNew()
	d.Bind(shared)
	d.ProcessBatchIDs(shared.IDs())
	d.ProcessBatch(tr[3500:])
	d.Finish()
	if !slices.Equal(shared.Symbols(), before) {
		t.Fatal("Branch input grew the shared table")
	}
	if got := trace.Intern(tr).Symbols(); !slices.Equal(d.Symbols(), got) {
		t.Fatalf("detector table of %d symbols, want the trace's %d", len(d.Symbols()), len(got))
	}
	if d.SimilarityComputations() != want.SimilarityComputations() ||
		!equalIntervals(d.Phases(), want.Phases()) || !equalIntervals(d.AdjustedPhases(), want.AdjustedPhases()) {
		t.Errorf("bound-then-Branch run diverges from RunTrace: phases %v, want %v", d.Phases(), want.Phases())
	}
}
