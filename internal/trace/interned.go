package trace

// Interned is a dense-ID representation of a branch trace: every distinct
// profile element is assigned a small integer the first time it appears,
// and the whole stream is stored as those integers plus a symbol table
// mapping IDs back to elements.
//
// The representation exists to amortize interning cost across a
// configuration sweep. A detector's window machinery wants dense small
// integers (so multiset counters are plain slices), but building that
// mapping per detector costs one hash lookup per element per
// configuration — N identical hash passes for an N-config sweep. Interning
// once turns every subsequent pass into pure slice arithmetic: the model
// layer consumes the ID stream directly (core.Model.UpdateWindowsIDs) with
// counters sized up-front from Cardinality.
//
// IDs are assigned in order of first appearance, exactly as a detector
// interning Branch input at its boundary assigns them, so a run over the
// interned stream is bit-for-bit equivalent to one over the raw trace.
type Interned struct {
	ids     []int32
	symbols []Branch
	index   map[Branch]int32
}

// Intern builds the dense-ID representation of a trace in one pass.
func Intern(t Trace) *Interned {
	b := NewInternedBuilder(len(t))
	for _, e := range t {
		b.Add(e)
	}
	return b.Build()
}

// InternScanner drains a BranchScanner into an Interned stream, so traces
// stored on disk intern without materializing a []Branch first.
func InternScanner(s *BranchScanner) (*Interned, error) {
	b := NewInternedBuilder(0)
	for s.Scan() {
		b.Add(s.Branch())
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// InternedBuilder incrementally builds an Interned stream element by
// element. Each element costs one hash lookup and four bytes of storage
// (half the raw trace's footprint), so the builder also serves as the
// streaming ingest path for traces produced faster than they can be
// re-read.
type InternedBuilder struct {
	in Interned
}

// NewInternedBuilder returns a builder. sizeHint, when positive,
// preallocates the ID stream.
func NewInternedBuilder(sizeHint int) *InternedBuilder {
	b := &InternedBuilder{in: Interned{index: make(map[Branch]int32)}}
	if sizeHint > 0 {
		b.in.ids = make([]int32, 0, sizeHint)
	}
	return b
}

// Add appends one profile element, assigning a fresh ID on first sight.
func (b *InternedBuilder) Add(e Branch) {
	b.in.ids = append(b.in.ids, b.Intern(e))
}

// Len returns the number of elements added so far.
func (b *InternedBuilder) Len() int { return len(b.in.ids) }

// Intern assigns (or recalls) the dense ID of one profile element
// WITHOUT appending to the builder's ID stream. This is the unbounded-
// stream entry point: a streaming client interns each chunk's elements
// through it into a per-chunk ID buffer of its own, so the builder's
// footprint is the symbol table alone rather than four bytes per
// element forever.
func (b *InternedBuilder) Intern(e Branch) int32 {
	id, ok := b.in.index[e]
	if !ok {
		id = int32(len(b.in.symbols))
		b.in.index[e] = id
		b.in.symbols = append(b.in.symbols, e)
	}
	return id
}

// ID returns the dense ID of a profile element, if it has one.
func (b *InternedBuilder) ID(e Branch) (int32, bool) {
	id, ok := b.in.index[e]
	return id, ok
}

// Cardinality returns the number of distinct elements interned so far —
// the next ID Intern will assign.
func (b *InternedBuilder) Cardinality() int { return len(b.in.symbols) }

// Symbols returns the ID → element table built so far. Read-only;
// appending further elements may reallocate it.
func (b *InternedBuilder) Symbols() []Branch { return b.in.symbols }

// Build finalizes and returns the interned stream. The builder must not
// be used afterwards.
func (b *InternedBuilder) Build() *Interned {
	in := b.in
	b.in = Interned{}
	return &in
}

// Len returns the stream length in elements.
func (in *Interned) Len() int { return len(in.ids) }

// Cardinality returns the number of distinct profile elements — the
// symbol-table size, and the counter-slice length an ID-native consumer
// needs.
func (in *Interned) Cardinality() int { return len(in.symbols) }

// IDs returns the dense ID stream. Callers must treat it as read-only;
// it is shared by every consumer of the interned trace.
func (in *Interned) IDs() []int32 { return in.ids }

// Symbols returns the ID → element symbol table, read-only and shared.
func (in *Interned) Symbols() []Branch { return in.symbols }

// Symbol returns the profile element with the given ID.
func (in *Interned) Symbol(id int32) Branch { return in.symbols[id] }

// ID returns the dense ID of a profile element, if it occurs in the
// stream.
func (in *Interned) ID(e Branch) (int32, bool) {
	id, ok := in.index[e]
	return id, ok
}

// Reconstruct rebuilds the original trace from the ID stream — the
// inverse of Intern, used by tests and tooling.
func (in *Interned) Reconstruct() Trace {
	out := make(Trace, len(in.ids))
	for i, id := range in.ids {
		out[i] = in.symbols[id]
	}
	return out
}
