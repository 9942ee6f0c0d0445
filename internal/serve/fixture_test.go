package serve

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"opd/internal/core"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// fixtureTrace is the stream the checked-in migration blobs under
// testdata were cut from. It must not change: the blobs encode its
// prefix. Stable loops over five sites alternate with noisy stretches
// drawn from a 1400-element pool, so new elements keep arriving well
// into the stream.
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

// fixtureChunk is the chunk size the blobs' sessions were fed in.
const fixtureChunk = 777

// TestParentWrittenMigrationBlobsAdopt pins format compatibility with
// blobs written while sessions still kept a per-model intern map beside
// the dense-ID path. testdata/parent-branch.migr is a branch-mode
// session with three raw branch WAL records after a snapshot whose
// pending group holds elements the old map had not interned yet;
// testdata/parent-ids.migr is a dense-ID session with syms and IDs
// records. Each must adopt, continue the same trace, and finish with the
// summary and event log of an uninterrupted offline run.
func TestParentWrittenMigrationBlobsAdopt(t *testing.T) {
	tr := fixtureTrace(20000)
	cfg := core.Config{CWSize: 400, TWSize: 600, SkipFactor: 32, TW: core.AdaptiveTW, Anchor: core.AnchorRN,
		Resize: core.ResizeSlide, Model: core.WeightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.5}
	want, wantEvents := offline(cfg, tr)
	for _, mode := range []string{"branch", "ids"} {
		blob, err := os.ReadFile(filepath.Join("testdata", "parent-"+mode+".migr"))
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(Options{Registry: telemetry.NewRegistry()})
		defer m.Shutdown()
		s, err := m.Adopt("fixture-"+mode, blob)
		if err != nil {
			t.Fatalf("%s: adopt: %v", mode, err)
		}
		applied, _, _ := s.StreamProgress()
		if applied != 9 {
			t.Fatalf("%s: adopted session applied %d chunks, want 9", mode, applied)
		}
		fed := int(applied) * fixtureChunk
		// The client's table: the fed prefix interned in arrival order.
		b := trace.NewInternedBuilder(0)
		for _, e := range tr[:fed] {
			b.Intern(e)
		}
		// Restore and replay must rebuild exactly that table, including
		// the pending elements the old map had not interned.
		if !slices.Equal(s.det.Symbols(), b.Symbols()) {
			t.Fatalf("%s: adopted table of %d symbols differs from the arrival-order table of %d",
				mode, len(s.det.Symbols()), b.Cardinality())
		}
		st, err := s.StreamHello(mode == "ids")
		if err != nil {
			t.Fatalf("%s: hello: %v", mode, err)
		}
		if mode == "ids" && st.Symbols != b.Cardinality() {
			t.Fatalf("ids: hello-ack reports %d symbols, client has %d", st.Symbols, b.Cardinality())
		}
		for i := fed; i < len(tr); i += fixtureChunk {
			elems := tr[i:min(i+fixtureChunk, len(tr))]
			var ct telemetry.ChunkTrace
			if mode == "branch" {
				if err := s.FeedWireTraced(0, trace.AppendBranches(nil, elems), elems, &ct); err != nil {
					t.Fatalf("branch: feed at %d: %v", i, err)
				}
				continue
			}
			start := b.Cardinality()
			ids := make([]int32, 0, len(elems))
			for _, e := range elems {
				ids = append(ids, b.Intern(e))
			}
			if syms := b.Symbols()[start:]; len(syms) > 0 {
				payload := trace.AppendSymsPayload(nil, uint64(start), syms)
				if err := s.ExtendSymbols(0, payload, uint64(start), syms); err != nil {
					t.Fatalf("ids: extend at %d: %v", i, err)
				}
			}
			if err := s.FeedIDsTraced(0, trace.AppendIDsPayload(nil, ids), ids, &ct); err != nil {
				t.Fatalf("ids: feed at %d: %v", i, err)
			}
		}
		sum, ok := m.Close(s.ID())
		if !ok {
			t.Fatalf("%s: close: session missing", mode)
		}
		evs, _, _ := s.EventsSince(0)
		if sum.Consumed != want.Consumed() {
			t.Fatalf("%s: consumed %d, want %d", mode, sum.Consumed, want.Consumed())
		}
		if sum.SimComputations != want.SimilarityComputations() {
			t.Errorf("%s: sim %d, want %d", mode, sum.SimComputations, want.SimilarityComputations())
		}
		if !equalIntervals(sum.Phases, want.Phases()) {
			t.Errorf("%s: phases %v, want %v", mode, sum.Phases, want.Phases())
		}
		if !equalIntervals(sum.AdjustedPhases, want.AdjustedPhases()) {
			t.Errorf("%s: adjusted %v, want %v", mode, sum.AdjustedPhases, want.AdjustedPhases())
		}
		if !equalEvents(evs, wantEvents) {
			t.Errorf("%s: events diverge:\n got %v\nwant %v", mode, evs, wantEvents)
		}
	}
}
