package core

import (
	"context"
	"fmt"

	"opd/internal/interval"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// Detector is an instantiated online phase detection algorithm: a model, an
// analyzer, and a skip factor. It follows the framework's processProfile
// protocol (Figure 3 of the paper) and additionally records the detected
// phases as intervals over the element stream, both with raw boundaries
// (the positions at which the state actually changed) and with
// anchor-adjusted starts (where the model judged the phase to have begun).
type Detector struct {
	model    Model
	sm       *SetModel // model devirtualized: non-nil when model is the built-in SetModel
	analyzer Analyzer
	thr      *Threshold // analyzer devirtualized for the fused group loop
	avg      *Average
	skip     int

	// The symbol table every element is interned into: table is the
	// detector's own, and syms is the ID → element table last bound into
	// the model. Bind points syms at a shared read-only table instead and
	// leaves table nil until Branch input or an extension needs a table
	// the detector can grow, which then starts as a copy.
	table *trace.InternedBuilder
	syms  []trace.Branch
	idBuf []int32 // Branch entry points' reused intern buffer

	state   State
	n       int64   // elements consumed
	pending []int32 // trailing partial group, held until the next call or Finish

	phases      []interval.Interval
	adjPhases   []interval.Interval
	inPhase     bool
	curStart    int64
	curAdjStart int64
	finished    bool

	simCount int64 // similarity computations performed (overhead proxy)

	lastSim      float64 // most recent similarity value
	haveSim      bool
	onPhaseStart func(adjStart int64, sig []trace.Branch)
	onPhaseEnd   func(interval.Interval, []trace.Branch)

	probe      *telemetry.DetectorProbe
	lastFlipAt int64 // stream position of the most recent state flip
}

// NewDetector assembles a detector from a model, an analyzer, and a skip
// factor. It panics on a non-positive skip factor (a construction error).
func NewDetector(model Model, analyzer Analyzer, skip int) *Detector {
	if skip <= 0 {
		panic(fmt.Sprintf("core: skip factor must be positive, got %d", skip))
	}
	d := &Detector{model: model, analyzer: analyzer, skip: skip, state: Transition}
	// The built-in model's hot-path calls (window update, similarity) go
	// through a concrete pointer: one interface dispatch per element is
	// measurable at sweep scale.
	d.sm, _ = model.(*SetModel)
	d.thr, _ = analyzer.(*Threshold)
	d.avg, _ = analyzer.(*Average)
	return d
}

// SkipFactor returns the detector's skip factor.
func (d *Detector) SkipFactor() int { return d.skip }

// State returns the detector's current state.
func (d *Detector) State() State { return d.state }

// Consumed returns the number of profile elements consumed so far.
func (d *Detector) Consumed() int64 { return d.n }

// SimilarityComputations returns how many times the model computed a
// similarity value — the dominant run-time cost of a detector and the
// quantity the skip factor trades against accuracy.
func (d *Detector) SimilarityComputations() int64 { return d.simCount }

// SetProbe attaches a telemetry probe. A nil probe (the default)
// disables instrumentation; the hot path then pays one nil check per
// group and nothing else. Attach before processing begins.
func (d *Detector) SetProbe(p *telemetry.DetectorProbe) { d.probe = p }

// ProcessProfile consumes the next group of profile elements (normally
// exactly skipFactor of them; the final group of a trace may be shorter)
// and returns the detector's state, which applies to every element of the
// group. This is the paper's processProfile entry point; the elements are
// interned into the detector's symbol table and go down the ID path.
func (d *Detector) ProcessProfile(elems []trace.Branch) State {
	return d.ProcessProfileIDs(d.intern(elems))
}

// ProcessProfileIDs is ProcessProfile over a group of dense IDs into the
// detector's symbol table (see Bind and ExtendSymbols).
func (d *Detector) ProcessProfileIDs(ids []int32) State {
	if d.finished {
		panic("core: input after Finish")
	}
	if len(ids) == 0 {
		return d.state
	}
	groupStart := d.n
	d.n += int64(len(ids))
	if d.sm != nil {
		d.sm.UpdateWindowsIDs(ids)
	} else {
		d.model.UpdateWindowsIDs(ids)
	}
	return d.afterUpdate(groupStart, int64(len(ids)))
}

// processGroups consumes whole skip-factor groups: len(ids) must be a
// multiple of the skip factor. For the built-in SetModel with a
// Threshold or Average analyzer and no probe it runs the fused group
// loop, which decides steady groups inline — a group whose similarity
// keeps the detector's state, or whose windows are still filling while
// the detector is in T — and hands the rest (state flips, and in-phase
// groups whose windows are not ready) to afterUpdate. Every other
// detector takes ProcessProfileIDs group by group. Both give identical
// state, output and snapshots.
func (d *Detector) processGroups(ids []int32) {
	if d.finished {
		panic("core: input after Finish")
	}
	skip := d.skip
	if !d.fusable() {
		for i := 0; i < len(ids); i += skip {
			d.ProcessProfileIDs(ids[i : i+skip])
		}
		return
	}
	for len(ids) > 0 {
		k, undecided := d.sm.win.feed(ids, skip, d)
		d.n += int64(k)
		if !undecided {
			return
		}
		// A state flip, or in phase with the windows not ready: the
		// general path.
		d.sm.last = ids[k-skip : k]
		d.afterUpdate(d.n-int64(skip), int64(skip))
		ids = ids[k:]
	}
}

// fusable reports whether processGroups runs the fused group loop: the
// built-in SetModel, a Threshold or Average analyzer, no probe.
func (d *Detector) fusable() bool {
	return d.sm != nil && d.probe == nil && (d.thr != nil || d.avg != nil)
}

// decideSteady is the fused group loop's inline decision, which the
// window arithmetic calls after each group. It settles a steady group —
// one whose similarity keeps the detector's state, or whose windows are
// still filling while the detector is in T — exactly as afterUpdate
// would, and reports false for any other group, leaving the detector
// untouched.
func (d *Detector) decideSteady(w *windows) bool {
	inPhase := d.state.IsPhase()
	if !w.filled {
		if inPhase {
			return false
		}
		d.haveSim = false
		return true
	}
	var sim float64
	if d.sm.kind == WeightedModel {
		sim = w.weightedSimilarity()
	} else {
		sim = w.unweightedSimilarity()
	}
	// The analyzer's ProcessValue, inline: both accept at their boundary.
	var bound float64
	if d.thr != nil {
		bound = d.thr.Boundary()
	} else {
		bound = d.avg.Boundary()
	}
	if (sim >= bound) != inPhase {
		return false
	}
	d.simCount++
	d.lastSim, d.haveSim = sim, true
	if inPhase && d.avg != nil {
		d.avg.UpdateStats(sim)
	}
	return true
}

// afterUpdate runs the shared post-window-update half of a group:
// similarity computation, analyzer decision, and phase lifecycle.
func (d *Detector) afterUpdate(groupStart, groupLen int64) State {
	newState := Transition
	var sim float64
	var ok bool
	if d.probe != nil {
		sim, ok = d.model.ComputeSimilarity()
		if ok {
			d.probe.Similarity(sim)
		}
		d.probe.Group(groupLen)
	} else if d.sm != nil {
		sim, ok = d.sm.ComputeSimilarity()
	} else {
		sim, ok = d.model.ComputeSimilarity()
	}
	if ok {
		d.simCount++
		d.lastSim, d.haveSim = sim, true
		newState = d.analyzer.ProcessValue(sim)

		switch {
		case d.state.IsTransition() && newState.IsPhase():
			// A phase begins: anchor the trailing window at its start and
			// reset the analyzer's phase statistics.
			adj := d.model.AnchorTrailingWindow()
			d.analyzer.ResetStats()
			d.beginPhase(groupStart, adj)
			if d.probe != nil {
				d.probe.PhaseStart(groupStart, d.curAdjStart)
			}
			if d.onPhaseStart != nil {
				d.onPhaseStart(d.curAdjStart, d.phaseSignature())
			}
		case d.state.IsPhase() && newState.IsTransition():
			// The phase ends: capture its signature for recurrence
			// tracking, then flush the windows.
			sig := d.phaseSignature()
			d.model.ClearWindows()
			d.endPhase(groupStart, sig)
		case d.state.IsPhase():
			d.analyzer.UpdateStats(sim)
		}
	} else {
		// The model reports not-ready (windows filling, or flushed
		// mid-phase by an external reset): there is no current similarity
		// evidence, so confidence must read zero.
		d.haveSim = false
		if d.state.IsPhase() {
			d.endPhase(groupStart, d.phaseSignature())
		}
	}
	if newState != d.state {
		if d.probe != nil {
			d.probe.StateFlip(newState.IsPhase(), groupStart, groupStart-d.lastFlipAt)
		}
		d.lastFlipAt = groupStart
	}
	d.state = newState
	return d.state
}

// SetPhaseStartHook registers a callback invoked when a phase begins,
// with the anchor-corrected start position and the model's current
// signature (the elements of the young phase's windows) — the information
// an adaptive optimizer uses to recognize a recurring phase *as it
// starts*, before committing to a fresh compilation.
func (d *Detector) SetPhaseStartHook(fn func(adjStart int64, sig []trace.Branch)) {
	d.onPhaseStart = fn
}

// SetPhaseEndHook registers a callback invoked at the end of every
// detected phase with the phase's anchor-corrected interval and, when the
// model supports signatures, the phase's distinct-element signature.
func (d *Detector) SetPhaseEndHook(fn func(interval.Interval, []trace.Branch)) {
	d.onPhaseEnd = fn
}

// phaseSignature captures the current phase's signature if a hook and a
// signature-capable model are present.
func (d *Detector) phaseSignature() []trace.Branch {
	if d.onPhaseEnd == nil && d.onPhaseStart == nil {
		return nil
	}
	if s, ok := d.model.(Signaturer); ok {
		return s.PhaseSignature()
	}
	return nil
}

// Confidence returns the detector's confidence in its current state: the
// distance of the most recent similarity value from the analyzer's
// accept/reject boundary, in [0, 1]. Zero before any similarity value has
// been computed, after a phase ends or the model reports not-ready (the
// evidence belongs to a closed phase), or for analyzers that do not
// expose a threshold.
func (d *Detector) Confidence() float64 {
	if !d.haveSim {
		return 0
	}
	type boundaried interface{ Boundary() float64 }
	ba, ok := d.analyzer.(boundaried)
	if !ok {
		return 0
	}
	conf := d.lastSim - ba.Boundary()
	if conf < 0 {
		conf = -conf
	}
	if conf > 1 {
		conf = 1
	}
	return conf
}

// Process consumes a single profile element, buffering until a full
// skip-factor group is available. It returns the detector's current state.
func (d *Detector) Process(e trace.Branch) State {
	t := d.ownTable()
	d.pending = append(d.pending, t.Intern(e))
	d.bindTable(t)
	if len(d.pending) == d.skip {
		d.ProcessProfileIDs(d.pending)
		d.pending = d.pending[:0]
	}
	return d.state
}

// ProcessBatch consumes a chunk of profile elements of arbitrary length,
// buffering any trailing partial group until the next call (or Finish).
// The grouping is chunk-size agnostic: for any way of splitting a stream
// into chunks, the sequence of skip-factor groups the detector sees — and
// therefore its output — is identical to Process called once per element
// or RunTrace over the whole stream. This is the incremental-feed seam the
// streaming server builds on. The chunk is interned into the detector's
// symbol table and continues as ProcessBatchIDs, at most internSpan
// elements at a time.
func (d *Detector) ProcessBatch(elems []trace.Branch) State {
	for len(elems) > 0 {
		n := min(len(elems), internSpan)
		d.ProcessBatchIDs(d.intern(elems[:n]))
		elems = elems[n:]
	}
	return d.state
}

// internSpan bounds the reused ID buffer: ProcessBatch interns a chunk of
// any size in spans of at most this many elements, so a detector holds at
// most 16 KiB of IDs however large a chunk it was fed.
const internSpan = 4096

// ProcessBatchIDs is ProcessBatch over dense IDs into the detector's
// symbol table: the streaming server's symbol-negotiated path. Grouping
// is chunk-size agnostic exactly as in ProcessBatch — a trailing partial
// group buffers until the next call or Finish — and the entry points
// share one table and one pending group, so any mix of Branch and ID
// chunks gives the output of the equivalent raw elements. Full groups
// are sliced directly out of the chunk, so large chunks pay no
// per-element copying beyond the remainder.
func (d *Detector) ProcessBatchIDs(ids []int32) State {
	if d.finished {
		panic("core: input after Finish")
	}
	// Top up a partial group left over from an earlier chunk.
	if len(d.pending) > 0 {
		need := d.skip - len(d.pending)
		if need > len(ids) {
			need = len(ids)
		}
		d.pending = append(d.pending, ids[:need]...)
		ids = ids[need:]
		if len(d.pending) == d.skip {
			d.ProcessProfileIDs(d.pending)
			d.pending = d.pending[:0]
		}
	}
	// Whole groups straight from the chunk.
	n := (len(ids) / d.skip) * d.skip
	d.processGroups(ids[:n])
	// Buffer the remainder for the next chunk.
	if n < len(ids) {
		d.pending = append(d.pending, ids[n:]...)
	}
	return d.state
}

// intern translates Branch input into dense IDs in the detector's own
// table, re-binding the model when the table grew. The returned slice is
// reused by the next call.
func (d *Detector) intern(elems []trace.Branch) []int32 {
	t := d.ownTable()
	ids := d.idBuf[:0]
	for _, e := range elems {
		ids = append(ids, t.Intern(e))
	}
	d.idBuf = ids
	d.bindTable(t)
	return ids
}

// ownTable returns the detector's own symbol table, first copying the
// shared table Bind attached, if any.
func (d *Detector) ownTable() *trace.InternedBuilder {
	if d.table == nil {
		d.copyTable()
	}
	return d.table
}

func (d *Detector) copyTable() {
	d.table = trace.NewInternedBuilder(0)
	for _, e := range d.syms {
		d.table.Intern(e)
	}
}

// bindTable re-binds the model to the detector's own table t when it
// grew. The table is append-only, so an unchanged length means an
// unchanged table.
func (d *Detector) bindTable(t *trace.InternedBuilder) {
	if t.Cardinality() != len(d.syms) {
		d.bindSymbols(t.Symbols())
	}
}

func (d *Detector) bindSymbols(syms []trace.Branch) {
	d.syms = syms
	d.model.BindSymbols(syms)
}

// Bind points the detector at a shared, read-only symbol table — a
// pre-interned trace's, for the sweep — so ID input indexes into it
// without copying. The table must extend the one the detector already
// holds. Bind always reports true: every model takes a symbol table.
func (d *Detector) Bind(in *trace.Interned) bool {
	d.table = nil
	d.bindSymbols(in.Symbols())
	return true
}

// Symbols returns the detector's symbol table: the profile element of
// each dense ID, in ID order. Read-only; it may be reallocated when the
// table grows.
func (d *Detector) Symbols() []trace.Branch { return d.syms }

// CheckSymbols reports whether syms can extend the detector's symbol
// table: each element must be new to the table and appear once, or one
// element would have two IDs.
func (d *Detector) CheckSymbols(syms []trace.Branch) error {
	t := d.ownTable()
	seen := make(map[trace.Branch]struct{}, len(syms))
	for i, e := range syms {
		if _, ok := t.ID(e); ok {
			return fmt.Errorf("core: symbol %d (%v) is already in the table", i, e)
		}
		if _, ok := seen[e]; ok {
			return fmt.Errorf("core: symbol %d (%v) repeats an earlier one", i, e)
		}
		seen[e] = struct{}{}
	}
	return nil
}

// ExtendSymbols appends syms to the detector's symbol table as the next
// dense IDs, in order: the receiving side of a table a streaming client
// negotiates. It fails, changing nothing, when CheckSymbols does.
func (d *Detector) ExtendSymbols(syms []trace.Branch) error {
	if err := d.CheckSymbols(syms); err != nil {
		return err
	}
	for _, e := range syms {
		d.table.Intern(e)
	}
	d.bindTable(d.table)
	return nil
}

func (d *Detector) beginPhase(groupStart, adjStart int64) {
	d.inPhase = true
	d.curStart = groupStart
	// The anchor looks back into the trailing window, but never before the
	// end of the previously recorded phase.
	if n := len(d.adjPhases); n > 0 && adjStart < d.adjPhases[n-1].End {
		adjStart = d.adjPhases[n-1].End
	}
	if adjStart > groupStart {
		adjStart = groupStart
	}
	if adjStart < 0 {
		adjStart = 0
	}
	d.curAdjStart = adjStart
}

func (d *Detector) endPhase(end int64, sig []trace.Branch) {
	if !d.inPhase {
		return
	}
	d.inPhase = false
	// The phase's similarity evidence dies with it: confidence must not
	// report a value carried over from a closed phase.
	d.haveSim = false
	if end > d.curStart {
		d.phases = append(d.phases, interval.Interval{Start: d.curStart, End: end})
	}
	if end > d.curAdjStart {
		adj := interval.Interval{Start: d.curAdjStart, End: end}
		d.adjPhases = append(d.adjPhases, adj)
		if d.probe != nil {
			d.probe.PhaseEnd(end, adj.Start)
		}
		if d.onPhaseEnd != nil {
			d.onPhaseEnd(adj, sig)
		}
	}
}

// Finish flushes any buffered partial group and closes a phase still open
// at the end of the stream. Further ProcessProfile calls panic.
func (d *Detector) Finish() {
	if d.finished {
		return
	}
	if len(d.pending) > 0 {
		d.ProcessProfileIDs(d.pending)
		d.pending = d.pending[:0]
	}
	d.endPhase(d.n, d.phaseSignature())
	if d.probe != nil {
		d.probe.EndOfStream(d.state.IsPhase(), d.n-d.lastFlipAt)
	}
	d.finished = true
}

// Phases returns the detected phases with raw boundaries: the positions at
// which the detector's output state changed. Valid after Finish.
func (d *Detector) Phases() []interval.Interval { return d.phases }

// AdjustedPhases returns the detected phases with anchor-corrected start
// boundaries (§5, Figure 8): each phase starts where the model's anchoring
// policy placed the beginning of the phase rather than where the detector
// first reported P. Valid after Finish.
func (d *Detector) AdjustedPhases() []interval.Interval { return d.adjPhases }

// RunTrace drives a fresh pass of the whole trace through the detector
// and finishes it: ProcessBatch over the whole trace, whose
// chunk-size-agnostic grouping gives exactly the output of skip-factor
// groups. It returns the detector for chaining.
func RunTrace(d *Detector, tr trace.Trace) *Detector {
	d.ProcessBatch(tr)
	d.Finish()
	return d
}

// RunTraceInterned drives a fresh pass of a pre-interned trace through
// the detector: the detector is bound to the stream's symbol table, then
// consumes skip-factor slices of the shared ID stream in place — no
// per-element hashing, no copying. Output is identical to RunTrace over
// the equivalent raw trace.
func RunTraceInterned(d *Detector, in *trace.Interned) *Detector {
	d.Bind(in)
	ids := in.IDs()
	n := (len(ids) / d.skip) * d.skip
	d.processGroups(ids[:n])
	d.ProcessProfileIDs(ids[n:])
	d.Finish()
	return d
}

// RunTraceInternedContext is RunTraceInterned with cooperative
// cancellation: the context is polled before every group, or on the
// fused group loop before every span of whole groups (at most cancelSpan
// elements, and at least one group), and a cancel or deadline stops the
// pass promptly between groups. On
// cancellation it returns the context's error with the detector NOT
// finished — the caller chooses whether to Finish (flushing the partial
// group and closing any open phase, making the partial Phases readable) or
// to discard the detector. A background (non-cancellable) context costs
// nothing on the hot path.
func RunTraceInternedContext(ctx context.Context, d *Detector, in *trace.Interned) error {
	done := ctx.Done()
	if done == nil {
		RunTraceInterned(d, in)
		return nil
	}
	d.Bind(in)
	ids := in.IDs()
	n := (len(ids) / d.skip) * d.skip
	span := d.skip
	if d.fusable() {
		span = max(cancelSpan/d.skip, 1) * d.skip
	}
	for i := 0; i < n; i += span {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		d.processGroups(ids[i:min(i+span, n)])
	}
	if n < len(ids) {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		d.ProcessProfileIDs(ids[n:])
	}
	d.Finish()
	return nil
}

// cancelSpan bounds the elements RunTraceInternedContext consumes
// between cancellation polls: a few microseconds of detector work.
const cancelSpan = 4096

// ReleaseBuffers returns the model's pooled buffers (if the model holds
// any) to their SweepPool so the next detector of the sweep reuses them.
// The detector's recorded phases remain valid; it must not process
// further input.
func (d *Detector) ReleaseBuffers() {
	if r, ok := d.model.(interface{ ReleaseBuffers() }); ok {
		r.ReleaseBuffers()
	}
}
