// Package jit assembles the repository's pieces into the system the paper
// motivates: a mock adaptive optimization manager that consumes a live
// profile stream, uses an online phase detector to find stable phases,
// recognizes recurring phases by their working-set signatures, and
// accounts for the cost and benefit of its specialization decisions.
//
// The manager implements the reconsideration policy of the paper's §7
// future work: when a phase begins, it first tries to *recognize* the
// behaviour (reusing the plan compiled at an earlier occurrence, paying no
// compile cost); only unrecognized behaviours pay for a fresh
// compilation. At phase end the behaviour's signature is folded into the
// plan cache.
package jit

import (
	"fmt"

	"opd/internal/core"
	"opd/internal/interval"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// Config parameterizes the system.
type Config struct {
	// Detector is the online phase detector configuration.
	Detector core.Config
	// MatchThreshold is the Jaccard similarity at which a young phase is
	// recognized as a known behaviour.
	MatchThreshold float64
	// CompileCost is the cost of one specialization, in element units.
	CompileCost float64
	// Speedup is the saving per element executed under specialization.
	Speedup float64
	// Telemetry, when non-nil, instruments the system: the detector gets
	// a DetectorProbe labeled with its configuration ID, and the manager
	// a JITProbe recording guard checks/hits, compiles, and
	// specialization volume. Nil runs uninstrumented at no cost.
	Telemetry *telemetry.Registry
}

// A Decision records what the manager did for one phase occurrence.
type Decision struct {
	Phase     interval.Interval
	Behaviour int  // plan/behaviour ID (-1 if the phase ended unidentified)
	Reused    bool // true when an existing plan was recognized at phase start
}

// System is the adaptive optimization manager.
type System struct {
	cfg      Config
	detector *core.Detector
	tracker  *core.Tracker

	decisions []Decision
	compiles  int
	reuses    int

	curReused bool
	curPlan   int
	curValid  bool
	finished  bool
}

// New builds a system. The detector configuration must be valid.
func New(cfg Config) (*System, error) {
	d, err := cfg.Detector.New()
	if err != nil {
		return nil, err
	}
	if cfg.MatchThreshold <= 0 || cfg.MatchThreshold > 1 {
		return nil, fmt.Errorf("jit: match threshold %g outside (0, 1]", cfg.MatchThreshold)
	}
	if cfg.CompileCost < 0 || cfg.Speedup < 0 {
		return nil, fmt.Errorf("jit: negative economics (cost %g, speedup %g)", cfg.CompileCost, cfg.Speedup)
	}
	s := &System{cfg: cfg, detector: d, tracker: core.NewTracker(cfg.MatchThreshold)}
	probe := telemetry.NewJITProbe(cfg.Telemetry)
	d.SetProbe(telemetry.NewDetectorProbe(cfg.Telemetry, cfg.Detector.ID()))
	d.SetPhaseStartHook(func(adjStart int64, sig []trace.Branch) {
		if id, _, ok := s.tracker.Match(sig); ok {
			s.curPlan, s.curReused, s.curValid = id, true, true
			s.reuses++
			probe.Reuse(adjStart, id)
			return
		}
		s.compiles++
		s.curReused, s.curValid = false, false // plan ID assigned at phase end
		probe.Compile(adjStart)
	})
	d.SetPhaseEndHook(func(p interval.Interval, sig []trace.Branch) {
		id, _, _ := s.tracker.Observe(sig)
		if !s.curValid {
			s.curPlan = id
		}
		s.decisions = append(s.decisions, Decision{Phase: p, Behaviour: s.curPlan, Reused: s.curReused})
		s.curValid = false
		probe.Behaviours(s.tracker.KnownPhases())
	})
	return s, nil
}

// Process consumes one profile element (e.g. from a live VM hook).
func (s *System) Process(e trace.Branch) { s.detector.Process(e) }

// Finish flushes the detector; call once when the profile stream ends.
func (s *System) Finish() {
	if !s.finished {
		s.detector.Finish()
		s.finished = true
	}
}

// Decisions returns the per-phase decision log. Valid after Finish.
func (s *System) Decisions() []Decision { return s.decisions }

// Report summarizes the run's economics.
type Report struct {
	Elements            int64
	Phases              int
	Behaviours          int
	Compiles            int
	Reuses              int
	SpecializedElements int64
	// NetBenefit is speedup*specialized - compileCost*compiles: the
	// recognizing manager's profit.
	NetBenefit float64
	// NaiveBenefit is the profit of a manager that compiles afresh at
	// every phase (no recurrence recognition).
	NaiveBenefit float64
}

// Report computes the summary. Valid after Finish.
func (s *System) Report() Report {
	r := Report{
		Elements:   s.detector.Consumed(),
		Phases:     len(s.decisions),
		Behaviours: s.tracker.KnownPhases(),
		Compiles:   s.compiles,
		Reuses:     s.reuses,
	}
	for _, d := range s.decisions {
		r.SpecializedElements += d.Phase.Len()
	}
	r.NetBenefit = s.cfg.Speedup*float64(r.SpecializedElements) - s.cfg.CompileCost*float64(r.Compiles)
	r.NaiveBenefit = s.cfg.Speedup*float64(r.SpecializedElements) - s.cfg.CompileCost*float64(r.Phases)
	return r
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf(
		"elements=%d phases=%d behaviours=%d compiles=%d reuses=%d specialized=%d net=%.0f naive=%.0f",
		r.Elements, r.Phases, r.Behaviours, r.Compiles, r.Reuses,
		r.SpecializedElements, r.NetBenefit, r.NaiveBenefit)
}
