package core

import (
	"math"
	"testing"

	"opd/internal/trace"
)

// el builds a profile element at offset off in method 0.
func el(off int) trace.Branch { return trace.MakeBranch(0, off, true) }

// pushAll pushes ids, growing the counter slices to cover each first.
func pushAll(w *windows, ids ...int32) {
	for _, id := range ids {
		w.grow(int(id) + 1)
		w.pushAll([]int32{id})
	}
}

// nonzero counts the distinct ids with a positive count.
func nonzero(counts []int32) int {
	n := 0
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	return n
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestWindowFillAndOverflow(t *testing.T) {
	w := newWindows(3, 2, ConstantTW)
	if w.ready() {
		t.Error("fresh windows report ready")
	}
	pushAll(w, 1, 2, 3)
	if w.ready() {
		t.Error("ready before TW fills")
	}
	if w.cwLen() != 3 || w.twLen != 0 {
		t.Errorf("cw=%d tw=%d, want 3/0", w.cwLen(), w.twLen)
	}
	pushAll(w, 4, 5)
	if !w.ready() {
		t.Error("not ready after both windows fill")
	}
	if w.cwLen() != 3 || w.twLen != 2 {
		t.Errorf("cw=%d tw=%d, want 3/2", w.cwLen(), w.twLen)
	}
	// Next pushes must drop the TW front and keep sizes constant.
	pushAll(w, 6)
	if w.cwLen() != 3 || w.twLen != 2 {
		t.Errorf("after overflow: cw=%d tw=%d, want 3/2", w.cwLen(), w.twLen)
	}
	if w.firstIndex != 1 {
		t.Errorf("firstIndex = %d, want 1", w.firstIndex)
	}
	// Contents: TW = elements 2,3 ; CW = 4,5,6.
	if w.twCounts[2] != 1 || w.twCounts[3] != 1 || nonzero(w.twCounts) != 2 {
		t.Errorf("TW counts wrong: %v", w.twCounts)
	}
	if w.cwCounts[4] != 1 || w.cwCounts[6] != 1 || nonzero(w.cwCounts) != 3 {
		t.Errorf("CW counts wrong: %v", w.cwCounts)
	}
}

func TestUnweightedSimilarityPaperExample(t *testing.T) {
	// CW contains {a, b}, TW contains {a, c}: similarity 0.5 regardless of
	// how often a appears.
	w := newWindows(2, 2, ConstantTW)
	pushAll(w, 1, 3) // will end up in TW: a=1, c=3
	pushAll(w, 1, 2) // CW: a=1, b=2
	if !w.ready() {
		t.Fatal("windows should be full")
	}
	if got := w.unweightedSimilarity(); !approx(got, 0.5) {
		t.Errorf("unweighted similarity = %f, want 0.5", got)
	}
	// Frequency must not matter: CW {a, a}: similarity 1.0 even though TW
	// holds a single a.
	w = newWindows(2, 2, ConstantTW)
	pushAll(w, 1, 3)
	pushAll(w, 1, 1)
	if got := w.unweightedSimilarity(); !approx(got, 1.0) {
		t.Errorf("unweighted similarity = %f, want 1.0", got)
	}
}

func TestWeightedSimilarityPaperExample(t *testing.T) {
	// Paper example: CW {(a,5),(b,3),(c,2)}, TW {(a,25),(b,15),(c,10),(d,50)}
	// -> min(.25,.5)+min(.15,.3)+min(.10,.2) = 0.5
	w := newWindows(10, 100, ConstantTW)
	push := func(id int32, n int) {
		for i := 0; i < n; i++ {
			pushAll(w, id)
		}
	}
	// Fill TW first (oldest elements), then CW.
	push(1, 25) // a
	push(2, 15) // b
	push(3, 10) // c
	push(4, 50) // d
	push(1, 5)  // CW: a
	push(2, 3)  // b
	push(3, 2)  // c
	if !w.ready() {
		t.Fatal("windows should be full")
	}
	if w.cwLen() != 10 || w.twLen != 100 {
		t.Fatalf("cw=%d tw=%d, want 10/100", w.cwLen(), w.twLen)
	}
	if got := w.weightedSimilarity(); !approx(got, 0.5) {
		t.Errorf("weighted similarity = %f, want 0.5", got)
	}
}

func TestSimilarityEmptyWindows(t *testing.T) {
	w := newWindows(4, 4, ConstantTW)
	if got := w.unweightedSimilarity(); got != 0 {
		t.Errorf("unweighted on empty = %f", got)
	}
	if got := w.weightedSimilarity(); got != 0 {
		t.Errorf("weighted on empty = %f", got)
	}
}

func TestAnchorIndexRNAndLNN(t *testing.T) {
	// TW = [a, b, c], CW = [a, a, c]: b is noisy.
	// RN selects the position after b (index 2, where c sits);
	// LNN selects the leftmost non-noisy (index 0, where a sits).
	w := newWindows(3, 3, AdaptiveTW)
	pushAll(w, 1, 2, 3) // TW: a, b, c
	pushAll(w, 1, 1, 3) // CW: a, a, c
	if got := w.anchorIndex(AnchorRN); got != 2 {
		t.Errorf("RN anchor = %d, want 2", got)
	}
	if got := w.anchorIndex(AnchorLNN); got != 0 {
		t.Errorf("LNN anchor = %d, want 0", got)
	}

	// No noisy elements: RN keeps the whole TW.
	w = newWindows(2, 2, AdaptiveTW)
	pushAll(w, 1, 2, 1, 2)
	if got := w.anchorIndex(AnchorRN); got != 0 {
		t.Errorf("RN anchor with clean TW = %d, want 0", got)
	}
	if got := w.anchorIndex(AnchorLNN); got != 0 {
		t.Errorf("LNN anchor with clean TW = %d, want 0", got)
	}

	// All noisy: RN and LNN both discard the whole TW.
	w = newWindows(2, 2, AdaptiveTW)
	pushAll(w, 5, 6, 1, 2)
	if got := w.anchorIndex(AnchorRN); got != 2 {
		t.Errorf("RN anchor with all-noisy TW = %d, want 2", got)
	}
	if got := w.anchorIndex(AnchorLNN); got != 2 {
		t.Errorf("LNN anchor with all-noisy TW = %d, want 2", got)
	}
}

func TestAnchorSlideVsMove(t *testing.T) {
	build := func() *windows {
		w := newWindows(3, 4, AdaptiveTW)
		pushAll(w, 9, 9, 1, 2) // TW: x, x, a, b   (x noisy)
		pushAll(w, 1, 2, 1)    // CW: a, b, a
		return w
	}
	w := build()
	if w.twLen != 4 || w.cwLen() != 3 {
		t.Fatalf("precondition: tw=%d cw=%d", w.twLen, w.cwLen())
	}
	idx := w.anchorIndex(AnchorRN)
	if idx != 2 {
		t.Fatalf("anchor idx = %d, want 2", idx)
	}

	// Slide: TW keeps nominal size 4 by absorbing CW elements; CW shrinks.
	pos := w.anchorAt(idx, ResizeSlide)
	if pos != 2 {
		t.Errorf("anchor position = %d, want 2", pos)
	}
	if w.twLen != 4 || w.cwLen() != 1 {
		t.Errorf("after slide: tw=%d cw=%d, want 4/1", w.twLen, w.cwLen())
	}
	if !w.anchored {
		t.Error("slide did not mark windows anchored")
	}
	// TW is now a, b, a, b; CW holds the final a.
	if w.twCounts[1] != 2 || w.twCounts[2] != 2 {
		t.Errorf("TW counts after slide: %v", w.twCounts)
	}
	if w.cwCounts[1] != 1 || nonzero(w.cwCounts) != 1 {
		t.Errorf("CW counts after slide: %v", w.cwCounts)
	}

	// Move: TW shrinks; CW untouched.
	w = build()
	pos = w.anchorAt(w.anchorIndex(AnchorRN), ResizeMove)
	if pos != 2 {
		t.Errorf("anchor position = %d, want 2", pos)
	}
	if w.twLen != 2 || w.cwLen() != 3 {
		t.Errorf("after move: tw=%d cw=%d, want 2/3", w.twLen, w.cwLen())
	}
}

func TestAnchoredTWGrowsUnbounded(t *testing.T) {
	w := newWindows(2, 2, AdaptiveTW)
	pushAll(w, 1, 1, 1, 1)
	w.anchorAt(0, ResizeSlide)
	for i := 0; i < 100; i++ {
		pushAll(w, 1)
	}
	if w.twLen != 102 {
		t.Errorf("anchored TW length = %d, want 102", w.twLen)
	}
	if w.cwLen() != 2 {
		t.Errorf("CW length = %d, want 2", w.cwLen())
	}
}

func TestConstantPolicyIgnoresAnchorRestructure(t *testing.T) {
	w := newWindows(3, 3, ConstantTW)
	pushAll(w, 9, 1, 2, 1, 2, 1)
	pos := w.anchorAt(w.anchorIndex(AnchorRN), ResizeSlide)
	if pos != 1 {
		t.Errorf("anchor position = %d, want 1", pos)
	}
	if w.anchored {
		t.Error("constant TW must not become anchored")
	}
	if w.twLen != 3 || w.cwLen() != 3 {
		t.Errorf("constant TW restructured: tw=%d cw=%d", w.twLen, w.cwLen())
	}
}

func TestClearReinitializesWithLastBatch(t *testing.T) {
	w := newWindows(3, 3, AdaptiveTW)
	pushAll(w, 1, 2, 3, 4, 5, 6)
	if !w.ready() {
		t.Fatal("windows should be full")
	}
	w.clear([]int32{6})
	if w.ready() {
		t.Error("cleared windows still ready")
	}
	if w.cwLen() != 1 || w.twLen != 0 {
		t.Errorf("after clear: cw=%d tw=%d, want 1/0", w.cwLen(), w.twLen)
	}
	if w.cwCounts[6] != 1 || nonzero(w.cwCounts) != 1 {
		t.Errorf("CW counts after clear: %v", w.cwCounts)
	}
	if w.firstIndex != 5 {
		t.Errorf("firstIndex after clear = %d, want 5", w.firstIndex)
	}
	// Windows refill and become ready again.
	pushAll(w, 6, 6, 6, 6, 6)
	if !w.ready() {
		t.Error("windows did not refill after clear")
	}
}

func TestOverlapInvariant(t *testing.T) {
	// Randomized pushes with periodic anchor/clear: the overlap counter
	// must always equal the recomputed ground truth.
	w := newWindows(5, 7, AdaptiveTW)
	w.grow(12)
	rng := int64(42)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int(rng >> 40)
		if v < 0 {
			v = -v
		}
		return v % n
	}
	check := func(step int) {
		want := map[int32]bool{}
		for id, c := range w.cwCounts {
			if c > 0 && w.twCounts[id] > 0 {
				want[int32(id)] = true
			}
		}
		if len(w.overlapIDs) != len(want) {
			t.Fatalf("step %d: overlap set size = %d, want %d", step, len(w.overlapIDs), len(want))
		}
		for i, id := range w.overlapIDs {
			if !want[id] {
				t.Fatalf("step %d: id %d in overlap set but not in both windows", step, id)
			}
			if w.overlapPos[id] != int32(i+1) {
				t.Fatalf("step %d: overlapPos[%d] = %d, want %d", step, id, w.overlapPos[id], i+1)
			}
		}
	}
	for i := 0; i < 5000; i++ {
		pushAll(w, int32(next(12)))
		check(i)
		switch next(100) {
		case 0:
			w.anchorAt(w.anchorIndex(AnchorRN), ResizeSlide)
			check(i)
		case 1:
			w.anchorAt(w.anchorIndex(AnchorLNN), ResizeMove)
			check(i)
		case 2:
			w.clear([]int32{int32(next(12))})
			check(i)
		}
	}
}

func TestCompaction(t *testing.T) {
	w := newWindows(4, 4, ConstantTW)
	for i := 0; i < 50000; i++ {
		pushAll(w, int32(i%9))
	}
	if len(w.buf) > 10000 {
		t.Errorf("buffer not compacted: len %d", len(w.buf))
	}
	if w.cwLen() != 4 || w.twLen != 4 {
		t.Errorf("sizes after compaction: cw=%d tw=%d", w.cwLen(), w.twLen)
	}
	if w.firstIndex != 50000-8 {
		t.Errorf("firstIndex = %d, want %d", w.firstIndex, 50000-8)
	}
}
