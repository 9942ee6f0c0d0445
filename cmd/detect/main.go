// Detect runs one online phase detector over a branch trace and prints the
// phases it finds; with an accompanying call-loop trace and an MPL value
// it also scores the detector against the oracle.
//
// Usage:
//
//	detect -trace /tmp/compress -cw 5000 -tw adaptive -model unweighted \
//	       -analyzer threshold -param 0.6 -mpl 10000
//
// The related-work detectors are available through -preset:
//
//	detect -trace /tmp/compress -preset dhodapkar -cw 10000 -mpl 10000
//	detect -trace /tmp/compress -preset lu -cw 4096
//	detect -trace /tmp/compress -preset das -cw 4096 -param 0.8
//
// Telemetry: -telemetry-addr serves the live /debug/phasedet surface
// during the run; -telemetry-dump prints the collected metrics and the
// phase-event trace once the detector finishes.
//
// Robustness: -lenient salvages the valid prefix of a truncated or
// corrupted trace instead of failing, and SIGINT cancels the run cleanly
// — the phases detected so far are printed (marked interrupted, oracle
// scoring skipped) and the process exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"opd/internal/baseline"
	"opd/internal/core"
	"opd/internal/detectors"
	"opd/internal/score"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

func main() {
	var (
		prefix   = flag.String("trace", "", "trace path prefix (expects <prefix>.branches; .events needed for -mpl)")
		cw       = flag.Int("cw", 5000, "current window size (sample window for -preset lu/das)")
		tw       = flag.Int("tw", 0, "trailing window size (0 = same as -cw)")
		skip     = flag.Int("skip", 1, "skip factor: elements consumed per similarity computation")
		policy   = flag.String("policy", "constant", "trailing window policy: constant | adaptive | fixedinterval")
		model    = flag.String("model", "unweighted", "similarity model: unweighted | weighted")
		analyzer = flag.String("analyzer", "threshold", "analyzer: threshold | average")
		param    = flag.Float64("param", 0.6, "analyzer parameter (threshold value or average delta)")
		anchor   = flag.String("anchor", "rn", "adaptive anchor policy: rn | lnn")
		resize   = flag.String("resize", "slide", "adaptive resize policy: slide | move")
		preset   = flag.String("preset", "", "related-work preset: dhodapkar | lu | das | kistler | bbv")
		mpl      = flag.Int64("mpl", 0, "score against the oracle at this MPL (0 = no scoring)")
		show     = flag.Bool("phases", false, "print each detected phase")
		adjusted = flag.Bool("adjusted", false, "use anchor-corrected phase starts for printing and scoring")
		telAddr  = flag.String("telemetry-addr", "", "serve the live "+telemetry.DebugPath+" debug surface on this address (\":0\" picks a port)")
		telDump  = flag.Bool("telemetry-dump", false, "print the telemetry report (metrics + phase events) at end of run")
		lenient  = flag.Bool("lenient", false, "salvage the valid prefix of a truncated/corrupt trace instead of failing")
	)
	flag.Parse()
	if *prefix == "" {
		fmt.Fprintln(os.Stderr, "detect: -trace is required")
		os.Exit(2)
	}

	var reg *telemetry.Registry
	if *telAddr != "" || *telDump {
		reg = telemetry.NewRegistry()
	}
	ingest := telemetry.NewIngestProbe(reg)

	branches, err := loadBranches(*prefix+".branches", *lenient, ingest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detect:", err)
		os.Exit(1)
	}
	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "detect:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "detect: telemetry at %s\n", srv.URL())
	}

	d, desc, err := build(reg, *preset, *cw, *tw, *skip, *policy, *model, *analyzer, *param, *anchor, *resize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detect:", err)
		os.Exit(2)
	}
	// One interning pass up front; the detector then consumes dense IDs
	// (Branch-native models decode through their SymbolDecoder).
	// SIGINT cancels the run: the detector is finalized where it stopped
	// and the phases found so far are reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	interrupted := false
	if err := core.RunTraceInternedContext(ctx, d, trace.Intern(branches)); err != nil {
		interrupted = true
		d.Finish() // flush the partial group and close any open phase
	}
	phases := d.Phases()
	if *adjusted {
		phases = d.AdjustedPhases()
	}
	fmt.Printf("detector:            %s\n", desc)
	if interrupted {
		fmt.Printf("status:              interrupted (partial results)\n")
	}
	fmt.Printf("elements consumed:   %d\n", d.Consumed())
	fmt.Printf("similarity computes: %d\n", d.SimilarityComputations())
	fmt.Printf("phases detected:     %d\n", len(phases))
	if *show {
		for i, p := range phases {
			fmt.Printf("  phase %3d: %v (len %d)\n", i, p, p.Len())
		}
	}
	if *mpl > 0 && interrupted {
		fmt.Fprintln(os.Stderr, "detect: interrupted; skipping oracle scoring of partial phases")
	}
	if *mpl > 0 && !interrupted {
		events, err := loadEvents(*prefix+".events", *lenient, ingest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "detect:", err)
			os.Exit(1)
		}
		sol, err := baseline.Compute(events, int64(len(branches)), *mpl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "detect:", err)
			os.Exit(1)
		}
		res := score.Evaluate(phases, sol)
		fmt.Printf("oracle phases:       %d (MPL %d)\n", sol.NumPhases(), *mpl)
		fmt.Println(res)
		lat := score.MeasureLatency(phases, sol)
		fmt.Printf("detection lag:       starts mean %.0f max %d, ends mean %.0f max %d (elements, %d/%d boundaries matched)\n",
			lat.MeanStartLag, lat.MaxStartLag, lat.MeanEndLag, lat.MaxEndLag,
			lat.MatchedStarts+lat.MatchedEnds, res.BaselineBoundaries)
	}
	if *telDump {
		fmt.Println()
		if err := reg.WriteReport(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "detect:", err)
			os.Exit(1)
		}
	}
	if interrupted {
		os.Exit(130)
	}
}

// build assembles the detector; a non-nil registry instruments it.
func build(reg *telemetry.Registry, preset string, cw, tw, skip int, policy, model, analyzer string, param float64, anchor, resize string) (*core.Detector, string, error) {
	fromConfig := func(cfg core.Config) (*core.Detector, string, error) {
		d, err := cfg.New()
		if err == nil {
			d.SetProbe(telemetry.NewDetectorProbe(reg, cfg.ID()))
		}
		return d, cfg.ID(), err
	}
	switch preset {
	case "dhodapkar":
		return fromConfig(detectors.DhodapkarSmith(cw))
	case "lu":
		return detectors.NewLu(cw, 7, 2.0, detectors.WithTelemetry(reg)),
			fmt.Sprintf("lu/window%d/history7/band2.0", cw), nil
	case "das":
		return detectors.NewDas(cw, param, detectors.WithTelemetry(reg)),
			fmt.Sprintf("das/window%d/pearson%g", cw, param), nil
	case "kistler":
		return fromConfig(detectors.KistlerFranz(cw, param))
	case "bbv":
		return detectors.NewBBV(cw, param, detectors.WithTelemetry(reg)),
			fmt.Sprintf("bbv/window%d/thr%g", cw, param), nil
	case "":
		cfg := core.Config{CWSize: cw, TWSize: tw, SkipFactor: skip, Param: param}
		switch policy {
		case "constant":
			cfg.TW = core.ConstantTW
		case "adaptive":
			cfg.TW = core.AdaptiveTW
		case "fixedinterval":
			cfg = core.FixedInterval(cw, cfg.Model, cfg.Analyzer, param)
		default:
			return nil, "", fmt.Errorf("unknown policy %q", policy)
		}
		switch model {
		case "unweighted":
			cfg.Model = core.UnweightedModel
		case "weighted":
			cfg.Model = core.WeightedModel
		default:
			return nil, "", fmt.Errorf("unknown model %q", model)
		}
		switch analyzer {
		case "threshold":
			cfg.Analyzer = core.ThresholdAnalyzer
		case "average":
			cfg.Analyzer = core.AverageAnalyzer
		default:
			return nil, "", fmt.Errorf("unknown analyzer %q", analyzer)
		}
		switch anchor {
		case "rn":
			cfg.Anchor = core.AnchorRN
		case "lnn":
			cfg.Anchor = core.AnchorLNN
		default:
			return nil, "", fmt.Errorf("unknown anchor %q", anchor)
		}
		switch resize {
		case "slide":
			cfg.Resize = core.ResizeSlide
		case "move":
			cfg.Resize = core.ResizeMove
		default:
			return nil, "", fmt.Errorf("unknown resize %q", resize)
		}
		return fromConfig(cfg)
	default:
		return nil, "", fmt.Errorf("unknown preset %q", preset)
	}
}

func loadBranches(path string, lenient bool, probe *telemetry.IngestProbe) (trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		probe.Read(true)
		return nil, err
	}
	defer f.Close()
	if !lenient {
		tr, err := trace.ReadBranches(f)
		probe.Read(err != nil)
		return tr, err
	}
	tr, err := trace.ReadBranchesLenient(f)
	if err != nil {
		if len(tr) == 0 {
			probe.Read(true)
			return nil, err
		}
		probe.Read(false)
		probe.Salvaged(int64(len(tr)))
		fmt.Fprintf(os.Stderr, "detect: %s: damaged stream, salvaged %d elements (%v)\n", path, len(tr), err)
		return tr, nil
	}
	probe.Read(false)
	return tr, nil
}

func loadEvents(path string, lenient bool, probe *telemetry.IngestProbe) (trace.Events, error) {
	f, err := os.Open(path)
	if err != nil {
		probe.Read(true)
		return nil, err
	}
	defer f.Close()
	if !lenient {
		es, err := trace.ReadEvents(f)
		probe.Read(err != nil)
		return es, err
	}
	es, err := trace.ReadEventsLenient(f)
	if err != nil {
		if len(es) == 0 {
			probe.Read(true)
			return nil, err
		}
		probe.Read(false)
		probe.Salvaged(int64(len(es)))
		fmt.Fprintf(os.Stderr, "detect: %s: damaged stream, salvaged %d events (%v)\n", path, len(es), err)
		return es, nil
	}
	probe.Read(false)
	return es, nil
}
