package main

import (
	"fmt"
	"time"

	"opd/internal/core"
	"opd/internal/interval"
	"opd/internal/serve"
	"opd/internal/trace"
)

// A reference is the offline result of one session: the detector run
// in-process over exactly the chunks the server acknowledged, with the
// same phase hooks the server's event log uses.
type reference struct {
	consumed, sim  int64
	phases, adjust []interval.Interval
	events         []serve.Event
	// eventChunk[i] is the chunk whose processing emitted events[i], or
	// the chunk count for events the final close emitted. It maps a
	// received event back to the due time of the chunk that caused it.
	eventChunk []int
	// detectNS is the time spent in ProcessBatchIDs alone, elems the
	// elements it consumed: the single-threaded in-process baseline.
	detectNS, elems int64
}

// runReference feeds chunks [0, n) of src to a fresh detector through
// the dense-ID entry point, one ProcessBatchIDs per chunk, then Finish.
func runReference(cfg core.Config, src *source, n int) (*reference, error) {
	d, err := cfg.New()
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	id := cfg.ID()
	chunk := 0
	d.SetPhaseStartHook(func(adj int64, _ []trace.Branch) {
		ref.events = append(ref.events, serve.Event{Seq: uint64(len(ref.events)), Kind: "phase_start", Src: id, At: adj, V1: adj})
		ref.eventChunk = append(ref.eventChunk, chunk)
	})
	d.SetPhaseEndHook(func(iv interval.Interval, _ []trace.Branch) {
		ref.events = append(ref.events, serve.Event{Seq: uint64(len(ref.events)), Kind: "phase_end", Src: id, At: iv.End, V1: iv.Start, V2: iv.Len()})
		ref.eventChunk = append(ref.eventChunk, chunk)
	})
	in := src.interned()
	if !d.Bind(in) {
		return nil, fmt.Errorf("config %s: model does not take dense IDs", id)
	}
	ids := in.IDs()
	var buf []int32
	for chunk = 0; chunk < n; chunk++ {
		c := src.idChunk(ids, chunk, &buf)
		t0 := time.Now()
		d.ProcessBatchIDs(c)
		ref.detectNS += time.Since(t0).Nanoseconds()
		ref.elems += int64(len(c))
	}
	d.Finish()
	ref.consumed = d.Consumed()
	ref.sim = d.SimilarityComputations()
	ref.phases = d.Phases()
	ref.adjust = d.AdjustedPhases()
	return ref, nil
}

// checkSession runs the reference for a closed session over its n chunks
// and checks the server's summary and the events the client received.
func (r *run) checkSession(req serve.ConfigRequest, src *source, n int, sum *serve.Summary, events []eventRec, allEvents bool, label string) (*reference, error) {
	cfg, err := req.Config()
	if err != nil {
		return nil, err
	}
	ref, err := runReference(cfg, src, n)
	if err != nil {
		return nil, err
	}
	if r.perturb != nil {
		r.perturb(ref)
	}
	got := make([]serve.Event, len(events))
	for i, e := range events {
		got[i] = e.ev
	}
	if err := ref.check(sum, got, n, allEvents); err != nil {
		return nil, &checkError{fmt.Errorf("%s: %w", label, err)}
	}
	return ref, nil
}

// chunkEvents is how many events the chunks alone emitted (before the
// close flushed the open phase).
func (r *reference) chunkEvents(n int) int {
	k := 0
	for k < len(r.eventChunk) && r.eventChunk[k] < n {
		k++
	}
	return k
}

// check compares what the server returned for one session against the
// reference. The summary must be equal; the received events must be
// exactly the reference's, once each and in order — all of them when
// allEvents is set, otherwise at least every event the chunks emitted
// (a one-shot session's final close event cannot be fetched after its
// DELETE).
func (r *reference) check(sum *serve.Summary, got []serve.Event, nChunks int, allEvents bool) error {
	if sum == nil {
		return fmt.Errorf("no summary")
	}
	if sum.Error != "" {
		return fmt.Errorf("session failed: %s", sum.Error)
	}
	if sum.Consumed != r.consumed || sum.SimComputations != r.sim {
		return fmt.Errorf("summary consumed/sim %d/%d, reference %d/%d", sum.Consumed, sum.SimComputations, r.consumed, r.sim)
	}
	if !sameIntervals(sum.Phases, r.phases) {
		return fmt.Errorf("phases differ: %d vs reference %d", len(sum.Phases), len(r.phases))
	}
	if !sameIntervals(sum.AdjustedPhases, r.adjust) {
		return fmt.Errorf("adjusted phases differ: %d vs reference %d", len(sum.AdjustedPhases), len(r.adjust))
	}
	if sum.EventsTotal != uint64(len(r.events)) {
		return fmt.Errorf("events_total %d, reference %d", sum.EventsTotal, len(r.events))
	}
	want := len(r.events)
	if !allEvents {
		want = r.chunkEvents(nChunks)
	}
	if len(got) < want || len(got) > len(r.events) {
		return fmt.Errorf("received %d events, want %d of %d", len(got), want, len(r.events))
	}
	for i, e := range got {
		if e != r.events[i] {
			return fmt.Errorf("event %d: got %+v, reference %+v", i, e, r.events[i])
		}
	}
	return nil
}

func sameIntervals(a, b []interval.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
