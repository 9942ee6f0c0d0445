package main

import (
	"fmt"
	"hash/fnv"

	"opd/internal/synth"
	"opd/internal/trace"
)

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// A splitmix is a SplitMix64 stream. Every seeded choice the benchmark
// makes comes from a stream keyed by (seed, domain, coordinates), so a
// choice never depends on the order other choices were drawn in, or on
// any code outside this package.
type splitmix struct{ s uint64 }

func newSplitmix(seed uint64, domain string, coords ...uint64) *splitmix {
	h := fnv.New64a()
	h.Write([]byte(domain))
	s := mix64(seed ^ h.Sum64())
	for _, c := range coords {
		s = mix64(s ^ c)
	}
	return &splitmix{s: s}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// below returns a draw in [0, n).
func (r *splitmix) below(n int) int { return int(r.next() % uint64(n)) }

// between returns a draw in [lo, hi].
func (r *splitmix) between(lo, hi int) int { return lo + r.below(hi-lo+1) }

// shuffled returns a seeded permutation of names.
func (r *splitmix) shuffled(names []string) []string {
	out := append([]string(nil), names...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.below(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// traceSet generates and caches the synthetic traces of one run. The
// traces' data-dependent control flow is seeded from the run seed, so a
// new seed gives new (but structurally identical) inputs.
type traceSet struct {
	seed   uint64
	scale  int
	traces map[string]trace.Trace
}

func newTraceSet(seed uint64, scale int) *traceSet {
	return &traceSet{seed: seed, scale: scale, traces: map[string]trace.Trace{}}
}

func (ts *traceSet) get(name string) (trace.Trace, error) {
	if tr, ok := ts.traces[name]; ok {
		return tr, nil
	}
	// The synth LCG degenerates at state 0, so force the seed odd.
	seed := int32(newSplitmix(ts.seed, "synth", 0).next()&0x3fffffff) | 1
	tr, _, err := synth.RunSeeded(name, ts.scale, seed)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	ts.traces[name] = tr
	return tr, nil
}

// A source is the element stream one session consumes: a base trace
// (one trace, or several concatenated), rotated to a seeded start offset
// and repeated for as long as the session lives. Chunk k is elements
// [k*size, (k+1)*size) of that endless stream, so any chunk can be
// regenerated from its index — the correctness check replays exactly
// the chunks the server received.
type source struct {
	base trace.Trace
	off  int
	size int
	buf  trace.Trace     // scratch for chunks that wrap around the base
	in   *trace.Interned // the interned period, built on first use
}

func newSource(ts *traceSet, names []string, offsetDraw uint64, size int) (*source, error) {
	var base trace.Trace
	for i, n := range names {
		tr, err := ts.get(n)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = tr
			continue
		}
		if i == 1 {
			base = append(trace.Trace(nil), base...)
		}
		base = append(base, tr...)
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("empty source %v", names)
	}
	return &source{base: base, off: int(offsetDraw % uint64(len(base))), size: size}, nil
}

// chunk returns chunk k. The slice is only valid until the next call.
func (s *source) chunk(k int) trace.Trace {
	n := len(s.base)
	start := (s.off + k*s.size) % n
	if start+s.size <= n {
		return s.base[start : start+s.size]
	}
	s.buf = s.buf[:0]
	for i := 0; i < s.size; i++ {
		s.buf = append(s.buf, s.base[(start+i)%n])
	}
	return s.buf
}

// interned interns one period of the stream, starting at the rotation
// offset. IDs are assigned in order of first appearance, and every first
// appearance falls in the first period, so the IDs equal those the
// server assigns to the same stream (by client symbol negotiation or by
// the per-model intern map alike).
func (s *source) interned() *trace.Interned {
	if s.in != nil {
		return s.in
	}
	b := trace.NewInternedBuilder(len(s.base))
	for _, e := range s.base[s.off:] {
		b.Add(e)
	}
	for _, e := range s.base[:s.off] {
		b.Add(e)
	}
	s.in = b.Build()
	return s.in
}

// idChunk is chunk k over the interned period ids; a chunk that wraps
// is assembled in *buf.
func (s *source) idChunk(ids []int32, k int, buf *[]int32) []int32 {
	n := len(ids)
	start := (k * s.size) % n
	if start+s.size <= n {
		return ids[start : start+s.size]
	}
	*buf = (*buf)[:0]
	for i := 0; i < s.size; i++ {
		*buf = append(*buf, ids[(start+i)%n])
	}
	return *buf
}
