package core

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"opd/internal/trace"
)

// fixtureTrace is the stream the checked-in snapshots under testdata
// were cut from. It must not change: the snapshots encode its prefix.
// Stable loops over five sites alternate with noisy stretches drawn from
// a 1400-element pool, so new elements keep arriving well into the
// stream.
func fixtureTrace(n int) trace.Trace {
	tr := make(trace.Trace, 0, n)
	rng := uint64(20061)
	next := func(m int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(m))
	}
	for len(tr) < n {
		for i := 0; i < 2000 && len(tr) < n; i++ {
			tr = append(tr, trace.MakeBranch(0, 1+i%5, true))
		}
		for i := 0; i < 600 && len(tr) < n; i++ {
			tr = append(tr, trace.MakeBranch(1, next(700), next(2) == 0))
		}
	}
	return tr
}

// TestParentWrittenSnapshotsRestore pins format compatibility with
// snapshots written while detectors still kept a per-model intern map
// beside the dense-ID path. Both fixtures were cut after six 777-element
// chunks, mid-group (skip factor 64) and mid-phase.
// parent-branch-fed.snap came from ProcessBatch: its pending group holds
// elements the old map had not interned, which restore must append to
// the table in arrival order. parent-ids-fed.snap came from
// ProcessBatchIDs over a client-built table. Each must continue the same
// trace to the phases, similarity count and events of an uninterrupted
// run.
func TestParentWrittenSnapshotsRestore(t *testing.T) {
	const chunk, cut = 777, 6 * 777
	tr := fixtureTrace(20000)
	cfg := Config{CWSize: 400, TWSize: 600, SkipFactor: 64, TW: AdaptiveTW, Anchor: AnchorRN,
		Resize: ResizeSlide, Model: WeightedModel, Analyzer: AverageAnalyzer, Param: 0.3}

	ref := cfg.MustNew()
	var want []eventRec
	recordHooks(ref, &want)
	atCut := 0
	for i := 0; i < len(tr); i += chunk {
		if i == cut {
			atCut = len(want)
		}
		ref.ProcessBatch(tr[i:min(i+chunk, len(tr))])
	}
	ref.Finish()
	// The client's table at the cut: the prefix interned in arrival order.
	client := trace.NewInternedBuilder(0)
	for _, e := range tr[:cut] {
		client.Intern(e)
	}

	for _, name := range []string{"branch-fed", "ids-fed"} {
		data, err := os.ReadFile(filepath.Join("testdata", "parent-"+name+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		d, cfg2, err := RestoreDetector(data)
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if cfg2.ID() != cfg.ID() {
			t.Fatalf("%s: restored config %s, want %s", name, cfg2.ID(), cfg.ID())
		}
		if d.Consumed() != cut-cut%64 {
			t.Fatalf("%s: consumed %d, want %d", name, d.Consumed(), cut-cut%64)
		}
		if !slices.Equal(d.Symbols(), client.Symbols()) {
			t.Fatalf("%s: restored table of %d symbols differs from the arrival-order table of %d",
				name, len(d.Symbols()), client.Cardinality())
		}
		var got []eventRec
		recordHooks(d, &got)
		b := trace.NewInternedBuilder(0)
		for _, e := range client.Symbols() {
			b.Intern(e)
		}
		for i := cut; i < len(tr); i += chunk {
			elems := tr[i:min(i+chunk, len(tr))]
			if name == "branch-fed" {
				d.ProcessBatch(elems)
				continue
			}
			start := b.Cardinality()
			ids := make([]int32, 0, len(elems))
			for _, e := range elems {
				ids = append(ids, b.Intern(e))
			}
			if err := d.ExtendSymbols(b.Symbols()[start:]); err != nil {
				t.Fatalf("%s: extend at %d: %v", name, i, err)
			}
			d.ProcessBatchIDs(ids)
		}
		d.Finish()
		if d.Consumed() != ref.Consumed() {
			t.Fatalf("%s: consumed %d, want %d", name, d.Consumed(), ref.Consumed())
		}
		if d.SimilarityComputations() != ref.SimilarityComputations() {
			t.Errorf("%s: sim computations %d, want %d", name, d.SimilarityComputations(), ref.SimilarityComputations())
		}
		if !equalIntervals(d.Phases(), ref.Phases()) {
			t.Errorf("%s: phases %v, want %v", name, d.Phases(), ref.Phases())
		}
		if !equalIntervals(d.AdjustedPhases(), ref.AdjustedPhases()) {
			t.Errorf("%s: adjusted phases %v, want %v", name, d.AdjustedPhases(), ref.AdjustedPhases())
		}
		if !slices.Equal(got, want[atCut:]) {
			t.Errorf("%s: events after the cut diverge:\n got %v\nwant %v", name, got, want[atCut:])
		}
	}
}
