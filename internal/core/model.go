package core

import "opd/internal/trace"

// Model is the framework's similarity model component. It consumes profile
// elements, maintains its window representation, and produces one
// similarity value per consumed group.
//
// Elements reach a model as dense IDs into the detector's symbol table:
// the detector interns Branch input at its boundary, so a model never
// sees the representation the caller used.
type Model interface {
	// BindSymbols points the model at the detector's symbol table:
	// syms[id] is the profile element with dense ID id. The detector
	// calls it before the first group that uses an ID and again whenever
	// the table grows; each call passes an extension of the previous
	// table, so an ID never changes meaning.
	BindSymbols(syms []trace.Branch)
	// UpdateWindowsIDs consumes the next skipFactor elements as dense IDs
	// into the bound table.
	UpdateWindowsIDs(ids []int32)
	// ComputeSimilarity returns the similarity of the current windows.
	// ok is false while the windows have not yet filled, during which the
	// detector outputs T without consulting the analyzer.
	ComputeSimilarity() (sim float64, ok bool)
	// AnchorTrailingWindow is invoked when a new phase begins. It returns
	// the global stream position at which the model judges the phase to
	// have started (the anchor point), and — for models with an adaptive
	// trailing window — restructures the windows around that point.
	AnchorTrailingWindow() int64
	// ClearWindows is invoked when a phase ends: the model flushes its
	// windows and restarts from the most recent elements.
	ClearWindows()
}

// SymbolDecoder is an embeddable helper for Branch-native custom models:
// BindSymbols captures the detector's symbol table and Decode rehydrates
// an ID group into a reusable Branch buffer.
type SymbolDecoder struct {
	syms []trace.Branch
	buf  []trace.Branch
}

// BindSymbols implements the Model method.
func (s *SymbolDecoder) BindSymbols(syms []trace.Branch) { s.syms = syms }

// Decode maps an ID group back to profile elements. The returned slice is
// reused by the next call. It panics if no symbol table is bound.
func (s *SymbolDecoder) Decode(ids []int32) []trace.Branch {
	if s.syms == nil {
		panic("core: SymbolDecoder: Decode before BindSymbols")
	}
	if cap(s.buf) < len(ids) {
		s.buf = make([]trace.Branch, len(ids))
	}
	s.buf = s.buf[:len(ids)]
	for i, id := range ids {
		s.buf[i] = s.syms[id]
	}
	return s.buf
}

// SetModel is the paper's set-based similarity model family, covering both
// the unweighted (working set) and weighted variants over the Constant and
// Adaptive trailing-window policies.
type SetModel struct {
	kind   ModelKind
	anchor AnchorPolicy
	resize ResizePolicy
	win    *windows
	syms   []trace.Branch // the detector's symbol table
	last   []int32        // most recent batch; aliases the caller's IDs
}

var _ Model = (*SetModel)(nil)

// NewSetModel constructs a set model. cwSize and twSize are the window
// capacities (twSize is the Adaptive TW's initial and nominal size).
func NewSetModel(kind ModelKind, cwSize, twSize int, policy TWPolicy, anchor AnchorPolicy, resize ResizePolicy) *SetModel {
	return &SetModel{
		kind:   kind,
		anchor: anchor,
		resize: resize,
		win:    newWindows(cwSize, twSize, policy),
	}
}

// UsePool attaches a sweep pool: the window counter slices and window
// buffer are acquired from it at the first BindSymbols and returned by
// ReleaseBuffers. Attach before any elements are consumed.
func (m *SetModel) UsePool(p *SweepPool) { m.win.pool = p }

// BindSymbols implements Model: the counter slices grow to cover the
// table, so consuming an element is pure slice arithmetic — no hashing,
// no growth checks.
func (m *SetModel) BindSymbols(syms []trace.Branch) {
	m.syms = syms
	m.win.grow(len(syms))
}

// ReleaseBuffers returns pooled window buffers to the attached pool. The
// model must not consume further elements afterwards.
func (m *SetModel) ReleaseBuffers() { m.win.release() }

// UpdateWindowsIDs implements Model: each element is one bounds-check-free
// counter update.
//
// The batch is aliased, not copied: its only later reader is
// ClearWindows, which runs synchronously within the same group, before
// any caller could reuse the backing array.
func (m *SetModel) UpdateWindowsIDs(ids []int32) {
	m.last = ids
	m.win.pushAll(ids)
}

// ComputeSimilarity implements Model.
func (m *SetModel) ComputeSimilarity() (float64, bool) {
	if !m.win.ready() {
		return 0, false
	}
	if m.kind == WeightedModel {
		return m.win.weightedSimilarity(), true
	}
	return m.win.unweightedSimilarity(), true
}

// AnchorTrailingWindow implements Model. An anchored Adaptive TW is held
// as element counts, not elements, so anchoring it again before
// ClearWindows sees no stored TW elements: the whole TW is kept and the
// anchor is its start. The detector anchors only from T, after a clear.
func (m *SetModel) AnchorTrailingWindow() int64 {
	idx := m.win.anchorIndex(m.anchor)
	return m.win.anchorAt(idx, m.resize)
}

// ClearWindows implements Model.
func (m *SetModel) ClearWindows() {
	m.win.clear(m.last)
}

// Consumed returns the number of elements the model has consumed; the
// anchor positions it reports are indices in this stream.
func (m *SetModel) Consumed() int64 { return m.win.nextIndex }
