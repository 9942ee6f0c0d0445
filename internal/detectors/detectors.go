// Package detectors expresses the related-work phase detection algorithms
// discussed in §6 of the paper as instantiations of — or custom components
// for — the framework in internal/core:
//
//   - Dhodapkar & Smith's working-set detector (fixed 100K-element
//     intervals, unweighted set model, threshold 0.5);
//   - Lu et al.'s average-PC interval detector (the mean PC of the most
//     recent sample window tested against a band derived from the
//     previous seven windows, with two-window persistence);
//   - Das et al.'s region detector (Pearson correlation between the
//     current and previous sample histograms against a fixed threshold).
//
// The first is a pure Config; the other two are custom Model/Analyzer
// implementations, demonstrating that the framework's component interfaces
// cover extant detectors beyond the set-similarity family.
package detectors

import (
	"fmt"

	"opd/internal/core"
	"opd/internal/stats"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// An Option configures an assembled related-work detector.
type Option func(*options)

type options struct {
	reg *telemetry.Registry
}

// WithTelemetry instruments the assembled detector against reg: the
// detector gets a DetectorProbe labeled with the algorithm and window
// size, which records the similarity-value distribution the custom
// model produces, one observation per computed group. A nil registry is
// a no-op.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *options) { o.reg = reg }
}

func applyOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// DhodapkarSmith returns the configuration of the working-set detector of
// Dhodapkar & Smith (ISCA'02) as modelled by the paper: an unweighted set
// model over fixed intervals (skipFactor = TW = CW = windowSize) with a
// similarity threshold of 0.5. The original uses 100,000-instruction
// windows; windowSize scales that to the trace at hand.
func DhodapkarSmith(windowSize int) core.Config {
	return core.FixedInterval(windowSize, core.UnweightedModel, core.ThresholdAnalyzer, 0.5)
}

// KistlerFranz returns the configuration modelling Kistler & Franz's
// continuous program optimization similarity test (TOPLAS'03): weighted
// set similarity over fixed intervals against a fixed threshold.
func KistlerFranz(windowSize int, threshold float64) core.Config {
	return core.FixedInterval(windowSize, core.WeightedModel, core.ThresholdAnalyzer, threshold)
}

// NewBBV assembles a detector in the style of Sherwood et al.'s basic
// block vector work (ASPLOS'02/ISCA'03): each sample window is summarized
// as a normalized frequency vector over static sites, adjacent windows are
// compared by Manhattan distance, and a fixed threshold on the resulting
// similarity (1 - distance/2, in [0, 1]) decides the state. skipFactor
// equals sampleWindow.
func NewBBV(sampleWindow int, threshold float64, opts ...Option) *core.Detector {
	o := applyOptions(opts)
	model := &BBVModel{}
	d := core.NewDetector(model, core.NewThreshold(threshold), sampleWindow)
	d.SetProbe(telemetry.NewDetectorProbe(o.reg, fmt.Sprintf("bbv/window%d/thr%g", sampleWindow, threshold)))
	return d
}

// BBVModel compares adjacent sample windows' normalized site-frequency
// vectors by Manhattan distance.
type BBVModel struct {
	core.SymbolDecoder
	prev, cur map[trace.Branch]float64
	havePrev  bool
	consumed  int64
	lastLen   int
}

var _ core.Model = (*BBVModel)(nil)

// UpdateWindowsIDs implements core.Model: each consumed group is one
// sample window, decoded through the bound symbol table and normalized to
// a unit-sum frequency vector.
func (m *BBVModel) UpdateWindowsIDs(ids []int32) {
	elems := m.Decode(ids)
	m.prev, m.havePrev = m.cur, m.cur != nil
	m.cur = make(map[trace.Branch]float64, len(m.prev))
	if len(elems) == 0 {
		return
	}
	inc := 1 / float64(len(elems))
	for _, e := range elems {
		m.cur[e.Site()] += inc
	}
	m.consumed += int64(len(elems))
	m.lastLen = len(elems)
}

// ComputeSimilarity implements core.Model: 1 - manhattan/2 over the two
// unit vectors, so identical windows score 1 and disjoint windows 0.
func (m *BBVModel) ComputeSimilarity() (float64, bool) {
	if !m.havePrev {
		return 0, false
	}
	var dist float64
	for site, f := range m.cur {
		d := f - m.prev[site]
		if d < 0 {
			d = -d
		}
		dist += d
	}
	for site, f := range m.prev {
		if _, dup := m.cur[site]; !dup {
			dist += f
		}
	}
	return 1 - dist/2, true
}

// AnchorTrailingWindow implements core.Model.
func (m *BBVModel) AnchorTrailingWindow() int64 {
	return m.consumed - int64(m.lastLen)
}

// ClearWindows implements core.Model.
func (m *BBVModel) ClearWindows() {
	m.prev, m.cur, m.havePrev = nil, nil, false
}

// NewLu assembles Lu et al.'s detector (Journal of ILP, 2004): the model
// computes the average PC of each sampleWindow-element window and scores
// it against the mean and standard deviation of the previous history
// windows; the analyzer declares a transition after two consecutive
// out-of-band windows. The returned detector has skipFactor equal to
// sampleWindow. The original uses 4K-sample windows and a history of
// seven.
func NewLu(sampleWindow, history int, band float64, opts ...Option) *core.Detector {
	o := applyOptions(opts)
	model := &LuModel{sampleWindow: sampleWindow, histCap: history}
	analyzer := &PersistenceAnalyzer{Threshold: 1 / (1 + band), Windows: 2}
	d := core.NewDetector(model, analyzer, sampleWindow)
	d.SetProbe(telemetry.NewDetectorProbe(o.reg, fmt.Sprintf("lu/window%d/history%d/band%g", sampleWindow, history, band)))
	return d
}

// LuModel turns each consumed window into a similarity value 1/(1+z),
// where z is the deviation of the window's average PC from the mean of the
// previous windows, in units of their standard deviation.
type LuModel struct {
	core.SymbolDecoder
	sampleWindow int
	histCap      int

	hist     []float64
	curSum   float64
	curN     int
	consumed int64
}

var _ core.Model = (*LuModel)(nil)

// UpdateWindowsIDs implements core.Model via the bound symbol table.
func (m *LuModel) UpdateWindowsIDs(ids []int32) {
	elems := m.Decode(ids)
	for _, e := range elems {
		// The "PC" of a profile element is its static site identity.
		m.curSum += float64(uint64(e.Site()))
		m.curN++
	}
	m.consumed += int64(len(elems))
}

// ComputeSimilarity implements core.Model: it folds the just-completed
// window into the history and reports its deviation score.
func (m *LuModel) ComputeSimilarity() (float64, bool) {
	if m.curN == 0 {
		return 0, false
	}
	avg := m.curSum / float64(m.curN)
	m.curSum, m.curN = 0, 0
	if len(m.hist) < m.histCap {
		m.hist = append(m.hist, avg)
		return 0, false // not enough history yet
	}
	mean := stats.Mean(m.hist)
	sd := stats.StdDev(m.hist)
	var z float64
	switch {
	case sd > 0:
		z = (avg - mean) / sd
		if z < 0 {
			z = -z
		}
	case avg != mean:
		z = 1e9 // zero-variance history and a different average: way out of band
	}
	m.hist = append(m.hist[1:], avg)
	return 1 / (1 + z), true
}

// AnchorTrailingWindow implements core.Model: the phase is considered to
// start at the beginning of the window that triggered it.
func (m *LuModel) AnchorTrailingWindow() int64 {
	return m.consumed - int64(m.sampleWindow)
}

// ClearWindows implements core.Model. Lu's detector never flushes its
// history — the band simply adapts — so this is a no-op.
func (m *LuModel) ClearWindows() {}

// PersistenceAnalyzer reports a transition only after the similarity has
// stayed below the threshold for Windows consecutive values; otherwise it
// reports in-phase. This models Lu et al.'s two-consecutive-windows rule.
type PersistenceAnalyzer struct {
	Threshold float64
	Windows   int

	below int
}

var _ core.Analyzer = (*PersistenceAnalyzer)(nil)

// ProcessValue implements core.Analyzer.
func (a *PersistenceAnalyzer) ProcessValue(sim float64) core.State {
	if sim < a.Threshold {
		a.below++
	} else {
		a.below = 0
	}
	if a.below >= a.Windows {
		return core.Transition
	}
	return core.InPhase
}

// ResetStats implements core.Analyzer.
func (a *PersistenceAnalyzer) ResetStats() { a.below = 0 }

// UpdateStats implements core.Analyzer (no adaptive state beyond the
// persistence counter).
func (a *PersistenceAnalyzer) UpdateStats(float64) {}

// NewDas assembles Das et al.'s region detector (CGO'06): the model keeps
// per-site frequency histograms of the current and previous sample
// windows and reports their Pearson correlation coefficient; the analyzer
// compares it against a fixed threshold. skipFactor equals sampleWindow.
func NewDas(sampleWindow int, threshold float64, opts ...Option) *core.Detector {
	o := applyOptions(opts)
	model := &PearsonModel{}
	d := core.NewDetector(model, core.NewThreshold(threshold), sampleWindow)
	d.SetProbe(telemetry.NewDetectorProbe(o.reg, fmt.Sprintf("das/window%d/pearson%g", sampleWindow, threshold)))
	return d
}

// PearsonModel computes the Pearson correlation between the site-frequency
// histograms of the two most recent sample windows.
type PearsonModel struct {
	core.SymbolDecoder
	prev, cur map[trace.Branch]int
	havePrev  bool
	consumed  int64
	lastLen   int
}

var _ core.Model = (*PearsonModel)(nil)

// UpdateWindowsIDs implements core.Model: each consumed group is one
// sample window, decoded through the bound symbol table.
func (m *PearsonModel) UpdateWindowsIDs(ids []int32) {
	elems := m.Decode(ids)
	m.prev, m.havePrev = m.cur, m.cur != nil
	m.cur = make(map[trace.Branch]int, len(m.prev))
	for _, e := range elems {
		m.cur[e.Site()]++
	}
	m.consumed += int64(len(elems))
	m.lastLen = len(elems)
}

// ComputeSimilarity implements core.Model.
func (m *PearsonModel) ComputeSimilarity() (float64, bool) {
	if !m.havePrev {
		return 0, false
	}
	// Union of sites, in deterministic but irrelevant order (Pearson is
	// order-invariant).
	var xs, ys []float64
	for site, c := range m.cur {
		xs = append(xs, float64(c))
		ys = append(ys, float64(m.prev[site]))
	}
	for site, c := range m.prev {
		if _, dup := m.cur[site]; !dup {
			xs = append(xs, 0)
			ys = append(ys, float64(c))
		}
	}
	r := stats.Pearson(xs, ys)
	if len(xs) > 0 && equalHistograms(m.cur, m.prev) {
		// Identical histograms have zero cross-variance only when flat;
		// identical windows are perfectly correlated by definition.
		r = 1
	}
	return r, true
}

func equalHistograms(a, b map[trace.Branch]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// AnchorTrailingWindow implements core.Model.
func (m *PearsonModel) AnchorTrailingWindow() int64 {
	return m.consumed - int64(m.lastLen)
}

// ClearWindows implements core.Model: drop both histograms; the model
// needs two fresh windows before it reports again.
func (m *PearsonModel) ClearWindows() {
	m.prev, m.cur, m.havePrev = nil, nil, false
}
