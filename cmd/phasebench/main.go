// Phasebench regenerates the paper's evaluation: every table and figure of
// §4–§5 over the synthetic benchmark suite, plus the repository's two
// extension experiments (the skip-factor overhead sweep and the profile
// source comparison).
//
// Usage:
//
//	phasebench                  # everything, at the default scale
//	phasebench -exp fig4        # one experiment
//	phasebench -json -exp table1b                 # machine-readable output
//	phasebench -scale 2 -benchmarks compress,db   # faster, smaller
//
// Experiment names: table1a table1b table2a table2b fig4 fig5 fig6 fig7a
// fig7b fig8 skipsweep sources client variance all.
//
// Telemetry: -telemetry-addr serves the live /debug/phasedet surface
// while the experiments run; -telemetry-dump prints the end-of-run
// instrumentation report plus the per-benchmark detector execution
// summary (runs, similarity computations, wall clock).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"opd/internal/experiments"
	"opd/internal/report"
	"opd/internal/telemetry"
)

type job struct {
	name   string
	data   func(ctx *experiments.Context) (any, error)
	render func(any) string
}

func jobs() []job {
	return []job{
		{"table1a",
			func(c *experiments.Context) (any, error) { return c.Table1a() },
			func(v any) string { return report.RenderTable1a(v.([]experiments.BenchStats)) }},
		{"table1b",
			func(c *experiments.Context) (any, error) { return c.Table1b() },
			func(v any) string { return report.RenderTable1b(v.([]experiments.Table1bRow)) }},
		{"table2a",
			func(c *experiments.Context) (any, error) { return c.Table2a() },
			func(v any) string { return report.RenderTable2a(v.([]experiments.Table2aRow)) }},
		{"table2b",
			func(c *experiments.Context) (any, error) { return c.Table2b() },
			func(v any) string { return report.RenderTable2b(v.(*experiments.Table2bResult)) }},
		{"fig4",
			func(c *experiments.Context) (any, error) { return c.Fig4() },
			func(v any) string { return report.RenderFig4(v.([]experiments.Fig4Point)) }},
		{"fig5",
			func(c *experiments.Context) (any, error) { return c.Fig5() },
			func(v any) string { return report.RenderFig5(v.([]experiments.Fig5Point)) }},
		{"fig6",
			func(c *experiments.Context) (any, error) { return c.Fig6() },
			func(v any) string { return report.RenderFig6(v.([]experiments.Fig6Point)) }},
		{"fig7a",
			func(c *experiments.Context) (any, error) { return c.Fig7a() },
			func(v any) string {
				return report.RenderFig7("Figure 7(a): % improvement of Slide over Move resizing (RN anchor)",
					v.([]experiments.Fig7Point))
			}},
		{"fig7b",
			func(c *experiments.Context) (any, error) { return c.Fig7b() },
			func(v any) string {
				return report.RenderFig7("Figure 7(b): % improvement of RN over LNN anchoring (Slide resizing)",
					v.([]experiments.Fig7Point))
			}},
		{"fig8",
			func(c *experiments.Context) (any, error) { return c.Fig8() },
			func(v any) string { return report.RenderFig8(v.([]experiments.Fig8Point)) }},
		{"skipsweep",
			func(c *experiments.Context) (any, error) { return c.SkipSweep(richMPL(c)) },
			nil}, // render bound below, needs the MPL
		{"sources",
			func(c *experiments.Context) (any, error) { return c.ProfileSources(richMPL(c)) },
			nil},
		{"client",
			func(c *experiments.Context) (any, error) {
				mpl := midMPL(c)
				return c.ClientBenefit(mpl, float64(mpl)/5, 0.25)
			},
			func(v any) string { return report.RenderClientBenefit(v.(*experiments.ClientResult)) }},
		{"variance",
			func(c *experiments.Context) (any, error) {
				return c.SeedVariance(richMPL(c), []int32{11, 2026, 777777})
			},
			nil},
	}
}

func midMPL(c *experiments.Context) int64 {
	mpls := c.Options().MPLs
	return mpls[len(mpls)/2]
}

// richMPL picks a low MPL, where the baselines have the most phase
// structure — the regime where overhead/accuracy and profile-source
// comparisons are informative (very large MPLs degenerate to one phase
// per run at this workload scale).
func richMPL(c *experiments.Context) int64 {
	mpls := c.Options().MPLs
	if len(mpls) > 1 {
		return mpls[1]
	}
	return mpls[0]
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (table1a..fig8, skipsweep, sources, or all)")
		scale   = flag.Int("scale", 8, "workload scale; 8 supports the paper's full MPL ladder")
		benches = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all eight)")
		workers = flag.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS)")
		asJSON  = flag.Bool("json", false, "emit results as a JSON object keyed by experiment name")
		telAddr = flag.String("telemetry-addr", "", "serve the live "+telemetry.DebugPath+" debug surface on this address (\":0\" picks a port)")
		telDump = flag.Bool("telemetry-dump", false, "print the telemetry report and detector execution summary at end of run")
		serveTo = flag.String("bench-serve-json", "", "benchmark streaming-server HTTP ingest against the direct detector feed across chunk sizes and write the JSON record to this path (\"-\" = stdout), then exit")
	)
	flag.Parse()

	if *serveTo != "" {
		if err := runBenchServeJSON(*serveTo); err != nil {
			fmt.Fprintln(os.Stderr, "phasebench:", err)
			os.Exit(1)
		}
		return
	}

	// SIGINT cancels the in-flight sweep; completed experiments are still
	// rendered and the run summary covers everything that finished.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := experiments.Options{Scale: *scale, Workers: *workers, Context: sigCtx}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}
	var reg *telemetry.Registry
	if *telAddr != "" || *telDump {
		reg = telemetry.NewRegistry()
		opts.Telemetry = reg
	}
	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "phasebench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "phasebench: telemetry at %s\n", srv.URL())
	}
	ctx := experiments.New(opts)

	results := map[string]any{}
	ran := 0
	interrupted := false
	for _, j := range jobs() {
		if *exp != "all" && *exp != j.name {
			continue
		}
		ran++
		start := time.Now()
		data, err := j.data(ctx)
		if errors.Is(err, context.Canceled) {
			// Stop launching experiments; everything already collected
			// below (summary, telemetry, JSON) is still flushed.
			fmt.Fprintf(os.Stderr, "phasebench: interrupted during %s; flushing partial results\n", j.name)
			interrupted = true
			break
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "phasebench: %s: %v\n", j.name, err)
			os.Exit(1)
		}
		if *asJSON {
			results[j.name] = data
			continue
		}
		var out string
		switch {
		case j.render != nil:
			out = j.render(data)
		case j.name == "skipsweep":
			out = report.RenderSkipSweep(richMPL(ctx), data.([]experiments.SkipPoint))
		case j.name == "sources":
			out = report.RenderProfileSources(richMPL(ctx), data.([]experiments.SourcePoint))
		case j.name == "variance":
			out = report.RenderVariance(richMPL(ctx), data.([]experiments.VariancePoint))
		}
		fmt.Printf("==== %s (%.1fs) ====\n\n%s\n", j.name, time.Since(start).Seconds(), out)
	}
	if ran == 0 && !interrupted {
		fmt.Fprintf(os.Stderr, "phasebench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "phasebench:", err)
			os.Exit(1)
		}
	}
	if stats := ctx.RunStats(); !*asJSON && len(stats) > 0 {
		fmt.Printf("==== summary ====\n\n%s\n", report.RenderRunStats(stats))
	}
	if *telDump {
		fmt.Println("==== telemetry ====")
		fmt.Println()
		if err := reg.WriteReport(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "phasebench:", err)
			os.Exit(1)
		}
	}
	if interrupted {
		os.Exit(130)
	}
}
