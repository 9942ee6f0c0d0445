package core

// windows maintains the trailing window and current window over the
// element stream as one contiguous buffer: buf[head : head+twLen] is the
// TW and everything after it is the CW. Elements are dense IDs into the
// detector's symbol table, so all multiset counters are plain slices and
// consuming one element costs O(1) array operations regardless of window
// sizes.
type windows struct {
	cwSize int
	twSize int
	policy TWPolicy

	buf        []int32
	head       int
	twLen      int
	firstIndex int64 // global stream index of buf[head]
	nextIndex  int64 // global stream index of the next element pushed

	cwCounts   []int32
	twCounts   []int32
	cwDistinct int

	// The overlap set — distinct elements present in both windows — is
	// maintained incrementally as an unordered dense slice plus an id →
	// position index, so weighted similarity iterates exactly the ids
	// that contribute instead of scanning counter slices whose length is
	// the trace's full symbol cardinality.
	overlapIDs []int32 // ids present in both windows, unordered
	overlapPos []int32 // id -> index+1 in overlapIDs (0 = absent)

	anchored bool // AdaptiveTW: in phase, TW grows without bound
	filled   bool // both windows have filled since the last clear

	pool *SweepPool // when set, counter slices and buf come from the pool
}

func newWindows(cwSize, twSize int, policy TWPolicy) *windows {
	return &windows{cwSize: cwSize, twSize: twSize, policy: policy}
}

func (w *windows) cwLen() int { return len(w.buf) - w.head - w.twLen }

// grow ensures the counter slices cover IDs in [0, n). A pooled window's
// first slices come from the pool, which sizes them for the whole trace
// up front. Otherwise capacity rounds up to the next power of two, so a
// symbol table that gains a few symbols per chunk costs amortized O(1)
// copying per symbol rather than a full copy of every slice each time.
func (w *windows) grow(n int) {
	if n <= len(w.cwCounts) {
		return
	}
	if w.pool != nil && len(w.cwCounts) == 0 {
		w.cwCounts = w.pool.counterSlice(n)
		w.twCounts = w.pool.counterSlice(n)
		w.overlapPos = w.pool.counterSlice(n)
		w.buf = w.pool.windowBuf()
		return
	}
	size := 8
	for size < n {
		size <<= 1
	}
	cw := make([]int32, size)
	copy(cw, w.cwCounts)
	w.cwCounts = cw
	tw := make([]int32, size)
	copy(tw, w.twCounts)
	w.twCounts = tw
	op := make([]int32, size)
	copy(op, w.overlapPos)
	w.overlapPos = op
}

// release returns pooled buffers to the pool. The windows must not be
// used afterwards.
func (w *windows) release() {
	if w.pool == nil {
		return
	}
	w.pool.putCounterSlice(w.cwCounts)
	w.pool.putCounterSlice(w.twCounts)
	w.pool.putCounterSlice(w.overlapPos)
	w.pool.putWindowBuf(w.buf)
	w.pool.putWindowBuf(w.overlapIDs)
	w.cwCounts, w.twCounts, w.overlapPos = nil, nil, nil
	w.buf, w.overlapIDs = nil, nil
}

// overlapAdd records id entering the overlap set.
func (w *windows) overlapAdd(id int32) {
	w.overlapIDs = append(w.overlapIDs, id)
	w.overlapPos[id] = int32(len(w.overlapIDs))
}

// overlapRemove records id leaving the overlap set (swap-remove, O(1)).
func (w *windows) overlapRemove(id int32) {
	p := w.overlapPos[id] - 1
	last := int32(len(w.overlapIDs) - 1)
	moved := w.overlapIDs[last]
	w.overlapIDs[p] = moved
	w.overlapPos[moved] = p + 1
	w.overlapIDs = w.overlapIDs[:last]
	w.overlapPos[id] = 0
}

func (w *windows) addCW(id int32) {
	w.cwCounts[id]++
	if w.cwCounts[id] == 1 {
		w.cwDistinct++
		if w.twCounts[id] > 0 {
			w.overlapAdd(id)
		}
	}
}

func (w *windows) removeCW(id int32) {
	w.cwCounts[id]--
	if w.cwCounts[id] == 0 {
		w.cwDistinct--
		if w.twCounts[id] > 0 {
			w.overlapRemove(id)
		}
	}
}

func (w *windows) addTW(id int32) {
	w.twCounts[id]++
	if w.twCounts[id] == 1 && w.cwCounts[id] > 0 {
		w.overlapAdd(id)
	}
}

func (w *windows) removeTW(id int32) {
	w.twCounts[id]--
	if w.twCounts[id] == 0 && w.cwCounts[id] > 0 {
		w.overlapRemove(id)
	}
}

// push consumes one element into the CW, shifting overflow into the TW and
// dropping from the TW's far end when the policy bounds it. The counter
// slices must already cover id (grow).
func (w *windows) push(id int32) {
	w.buf = append(w.buf, id)
	w.nextIndex++
	w.addCW(id)
	if w.cwLen() > w.cwSize {
		// CW front crosses into the TW.
		moved := w.buf[w.head+w.twLen]
		w.removeCW(moved)
		w.addTW(moved)
		w.twLen++
	}
	if w.twLen > w.twSize && !w.anchored {
		dropped := w.buf[w.head]
		w.removeTW(dropped)
		w.head++
		w.twLen--
		w.firstIndex++
		w.compact()
	}
	if !w.filled && w.cwLen() == w.cwSize && w.twLen >= w.twSize {
		w.filled = true
	}
}

// compact reclaims the dead prefix of buf once it dominates the slice.
func (w *windows) compact() {
	if w.head >= 4096 && w.head > len(w.buf)/2 {
		n := copy(w.buf, w.buf[w.head:])
		w.buf = w.buf[:n]
		w.head = 0
	}
}

// ready reports whether similarity may be computed: both windows must have
// filled at least once since the last clear. (After an anchoring slide the
// CW may be temporarily short; per §5 similarity is still computed while
// it refills.)
func (w *windows) ready() bool { return w.filled }

// unweightedSimilarity returns the fraction of distinct CW elements also
// present in the TW.
func (w *windows) unweightedSimilarity() float64 {
	if w.cwDistinct == 0 {
		return 0
	}
	return float64(len(w.overlapIDs)) / float64(w.cwDistinct)
}

// weightedSimilarity returns the symmetric weighted-set similarity: the
// sum over elements of the minimum of the element's relative weight in
// each window. Only elements present in both windows contribute, and the
// maintained overlap set enumerates exactly those, so the cost is
// O(|overlap|) — bounded by the window sizes, independent of the trace's
// symbol cardinality.
func (w *windows) weightedSimilarity() float64 {
	cwTotal, twTotal := w.cwLen(), w.twLen
	if cwTotal == 0 || twTotal == 0 {
		return 0
	}
	var sum float64
	for _, id := range w.overlapIDs {
		cwWeight := float64(w.cwCounts[id]) / float64(cwTotal)
		twWeight := float64(w.twCounts[id]) / float64(twTotal)
		if cwWeight < twWeight {
			sum += cwWeight
		} else {
			sum += twWeight
		}
	}
	return sum
}

// anchorIndex locates the anchor point within the TW under the given
// policy. Noisy elements are TW elements absent from the CW. The returned
// index is relative to the TW start (0 keeps the whole TW; twLen drops all
// of it).
func (w *windows) anchorIndex(policy AnchorPolicy) int {
	tw := w.buf[w.head : w.head+w.twLen]
	switch policy {
	case AnchorRN:
		for i := len(tw) - 1; i >= 0; i-- {
			if w.cwCounts[tw[i]] == 0 { // noisy
				return i + 1
			}
		}
		return 0
	default: // AnchorLNN
		for i, id := range tw {
			if w.cwCounts[id] > 0 { // non-noisy
				return i
			}
		}
		return len(tw)
	}
}

// anchorAt restructures the windows around TW index idx per the resize
// policy and, for the Adaptive policy, marks the TW unbounded for the
// duration of the phase. It returns the global stream position of the
// anchor.
func (w *windows) anchorAt(idx int, resize ResizePolicy) int64 {
	pos := w.firstIndex + int64(idx)
	if w.policy != AdaptiveTW {
		// Constant TW: anchoring is reporting-only (used to identify where
		// the phase began); the windows are not restructured.
		return pos
	}
	// Drop TW elements left of the anchor.
	for i := 0; i < idx; i++ {
		w.removeTW(w.buf[w.head])
		w.head++
		w.twLen--
		w.firstIndex++
	}
	if resize == ResizeSlide {
		// Slide the TW right over the CW until the TW regains its nominal
		// size, shrinking the CW (it refills as new elements arrive).
		for w.twLen < w.twSize && w.cwLen() > 0 {
			moved := w.buf[w.head+w.twLen]
			w.removeCW(moved)
			w.addTW(moved)
			w.twLen++
		}
	}
	w.compact()
	w.anchored = true
	return pos
}

// clear flushes both windows (end of phase) and reinitializes the CW with
// the most recent skipFactor elements, per Figure 2's row G.
func (w *windows) clear(lastBatch []int32) {
	w.buf = w.buf[:0]
	w.head = 0
	w.twLen = 0
	w.cwDistinct = 0
	for _, id := range w.overlapIDs {
		w.overlapPos[id] = 0
	}
	w.overlapIDs = w.overlapIDs[:0]
	for i := range w.cwCounts {
		w.cwCounts[i] = 0
		w.twCounts[i] = 0
	}
	w.anchored = false
	w.filled = false
	w.firstIndex = w.nextIndex - int64(len(lastBatch))
	for _, id := range lastBatch {
		w.buf = append(w.buf, id)
		w.addCW(id)
	}
}
