package core

import (
	"opd/internal/interval"
	"opd/internal/trace"
)

// This file implements the paper's first future-work extension (§7):
// detecting phases that repeat themselves. At the end of each phase the
// model supplies a signature — the set of distinct profile elements the
// phase touched — and a Tracker matches it against previously seen phases
// so a dynamic optimizer can recognize a recurrence and reapply (or avoid)
// an earlier optimization decision.

// Signaturer is the optional model capability of producing the current
// phase's signature. SetModel implements it; custom models may too.
type Signaturer interface {
	// PhaseSignature returns the distinct profile elements of the phase
	// currently held in the model's windows. Called at phase end, before
	// the windows are cleared.
	PhaseSignature() []trace.Branch
}

// PhaseSignature implements Signaturer: the distinct elements of the
// trailing window, in ID order. Under the Adaptive TW policy the TW holds
// (a representation of) the whole phase, making this the phase's working
// set; the current window is deliberately excluded because at a phase end
// it already holds the *next* behaviour's elements, which would pollute
// the signature. When the TW is empty (immediately after a flush), the CW
// is used as the fallback.
func (m *SetModel) PhaseSignature() []trace.Branch {
	counts := m.win.cwCounts
	if m.win.twLen > 0 {
		counts = m.win.twCounts
	}
	sig := make([]trace.Branch, 0, 16)
	for id, e := range m.syms {
		if counts[id] > 0 {
			sig = append(sig, e)
		}
	}
	return sig
}

// A PhaseRecord describes one completed phase occurrence.
type PhaseRecord struct {
	// Interval is the phase's extent, with anchor-corrected start.
	Interval interval.Interval
	// ID identifies the recurring phase this occurrence belongs to; the
	// first occurrence of each distinct behaviour allocates a fresh ID.
	ID int
	// Repeat is true when the phase matched a previously seen signature.
	Repeat bool
	// Similarity is the Jaccard similarity to the matched signature (1.0
	// for a fresh phase matching only itself).
	Similarity float64
}

// Tracker matches phase signatures against previously observed ones by
// Jaccard similarity over element sets.
type Tracker struct {
	threshold float64
	known     []map[trace.Branch]struct{}
}

// NewTracker returns a tracker that considers two phases the same when
// the Jaccard similarity of their signatures reaches threshold.
func NewTracker(threshold float64) *Tracker {
	return &Tracker{threshold: threshold}
}

// KnownPhases returns how many distinct phase behaviours have been seen.
func (t *Tracker) KnownPhases() int { return len(t.known) }

// Match reports the best-matching known phase for a signature without
// registering anything: the recognition query an optimizer issues at
// phase *start*. ok is false when no known phase reaches the threshold.
func (t *Tracker) Match(sig []trace.Branch) (id int, similarity float64, ok bool) {
	set := make(map[trace.Branch]struct{}, len(sig))
	for _, e := range sig {
		set[e] = struct{}{}
	}
	bestID, bestSim := -1, 0.0
	for i, known := range t.known {
		inter := 0
		for e := range set {
			if _, hit := known[e]; hit {
				inter++
			}
		}
		union := len(set) + len(known) - inter
		if union == 0 {
			continue
		}
		if sim := float64(inter) / float64(union); sim > bestSim {
			bestID, bestSim = i, sim
		}
	}
	if bestID >= 0 && bestSim >= t.threshold {
		return bestID, bestSim, true
	}
	return -1, bestSim, false
}

// Observe matches a signature against the known phases. On a match it
// returns the existing ID with repeat=true and folds the signature into
// the stored one (the union, so signatures stabilize over occurrences);
// otherwise it registers a new phase ID.
func (t *Tracker) Observe(sig []trace.Branch) (id int, repeat bool, similarity float64) {
	set := make(map[trace.Branch]struct{}, len(sig))
	for _, e := range sig {
		set[e] = struct{}{}
	}
	bestID, bestSim := -1, 0.0
	for i, known := range t.known {
		inter := 0
		for e := range set {
			if _, ok := known[e]; ok {
				inter++
			}
		}
		union := len(set) + len(known) - inter
		if union == 0 {
			continue
		}
		sim := float64(inter) / float64(union)
		if sim > bestSim {
			bestID, bestSim = i, sim
		}
	}
	if bestID >= 0 && bestSim >= t.threshold {
		for e := range set {
			t.known[bestID][e] = struct{}{}
		}
		return bestID, true, bestSim
	}
	t.known = append(t.known, set)
	return len(t.known) - 1, false, bestSim
}

// RecurringDetector couples a Detector with a Tracker, producing a stream
// of identified phase occurrences.
type RecurringDetector struct {
	*Detector
	tracker *Tracker
	records []PhaseRecord
}

// NewRecurringDetector wraps a detector configuration with phase identity
// tracking. matchThreshold is the Jaccard similarity at which two phases
// count as the same behaviour.
func NewRecurringDetector(cfg Config, matchThreshold float64) (*RecurringDetector, error) {
	d, err := cfg.New()
	if err != nil {
		return nil, err
	}
	r := &RecurringDetector{Detector: d, tracker: NewTracker(matchThreshold)}
	d.SetPhaseEndHook(func(iv interval.Interval, sig []trace.Branch) {
		id, repeat, sim := r.tracker.Observe(sig)
		r.records = append(r.records, PhaseRecord{Interval: iv, ID: id, Repeat: repeat, Similarity: sim})
	})
	return r, nil
}

// Records returns the identified phase occurrences, in order. Valid after
// Finish.
func (r *RecurringDetector) Records() []PhaseRecord { return r.records }

// DistinctPhases returns how many distinct phase behaviours were seen.
func (r *RecurringDetector) DistinctPhases() int { return r.tracker.KnownPhases() }
