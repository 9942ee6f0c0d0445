package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain applies the paired-run rule to two sets of reports:
//
//	compare <base.json>... -- <change.json>...
//
// Reports pair up in the order given (base[i] with change[i]), so run
// them alternating. For each workload × end-to-end metric it prints
// both sides' median and quartiles and the change's win share, and
// reads the result as:
//
//   - regression: the change's median is worse than the base's by more
//     than the bound, and either both sides' quartile spreads are within
//     the bound or every change run is worse than every base run;
//   - unresolved: either side's quartile spread exceeds the metric's
//     bound, unless every change run beats every base run;
//   - gain: the change wins at least 9/10 of the pairs and the medians
//     differ by more than the base's quartile spread;
//   - same: anything else.
//
// It refuses reports of incorrect or invalid runs. It exits 1 if any
// metric regressed, else 3 if any is unresolved (an unresolved metric is
// not a pass), else 0.
func compareMain(args []string, stdout, stderr io.Writer) int {
	var base, change []string
	side := &base
	for _, a := range args {
		if a == "--" {
			side = &change
			continue
		}
		*side = append(*side, a)
	}
	if len(base) == 0 || len(change) == 0 {
		fmt.Fprintln(stderr, "usage: compare <base.json>... -- <change.json>...")
		return 2
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "compare: reading bounds:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(stderr, "compare: BENCHMARK.json:", err)
		return 1
	}
	b, err := loadReports(base)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	c, err := loadReports(change)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	regressions, unresolved := 0, 0
	for _, wl := range workloadNames() {
		bu, cu := untraced(b[wl]), untraced(c[wl])
		if len(bu) == 0 || len(cu) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%s (%d base, %d change runs)\n", wl, len(bu), len(cu))
		for _, m := range bf.EndToEnd {
			bv, cv := values(bu, m.Name), values(cu, m.Name)
			v := judge(bv, cv, m.Better == "lower", m.Bound)
			switch v.verdict {
			case "regression":
				regressions++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(stdout, "  %-18s base %11.5g [%.5g, %.5g]  change %11.5g [%.5g, %.5g]  %+6.1f%%  wins %d/%d  %s\n",
				m.Name, v.bMed, v.bQ1, v.bQ3, v.cMed, v.cQ1, v.cQ3, 100*(v.cMed-v.bMed)/v.bMed, v.wins, v.pairs, v.verdict)
		}
		for _, set := range []struct {
			name string
			reps []*report
		}{{"base", b[wl]}, {"change", c[wl]}} {
			if o, ok := traceOverhead(set.reps); ok {
				fmt.Fprintf(stdout, "  trace overhead (%s): ingest_p50_ms ×%.3f, max_elems_per_s ×%.3f\n", set.name, o[0], o[1])
			}
		}
	}
	switch {
	case regressions > 0:
		return 1
	case unresolved > 0:
		return 3
	}
	return 0
}

func loadReports(paths []string) (map[string][]*report, error) {
	out := map[string][]*report{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !rep.Correct {
			return nil, fmt.Errorf("%s: run was not correct", p)
		}
		if len(rep.Invalid) > 0 {
			return nil, fmt.Errorf("%s: run was invalid (%s); run it again", p, strings.Join(rep.Invalid, "; "))
		}
		out[rep.Workload] = append(out[rep.Workload], &rep)
	}
	return out, nil
}

func untraced(reps []*report) []*report {
	var out []*report
	for _, r := range reps {
		if !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func values(reps []*report, name string) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.E2E[name]
	}
	return out
}

type verdict struct {
	bMed, bQ1, bQ3, cMed, cQ1, cQ3 float64
	wins, pairs                    int
	verdict                        string
}

func judge(b, c []float64, lower bool, bound float64) verdict {
	var v verdict
	v.bQ1, v.bMed, v.bQ3 = quartiles(b)
	v.cQ1, v.cMed, v.cQ3 = quartiles(c)
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	v.pairs = len(b)
	if len(c) < v.pairs {
		v.pairs = len(c)
	}
	for i := 0; i < v.pairs; i++ {
		if better(c[i], b[i]) {
			v.wins++
		}
	}
	allBetter, allWorse := true, true
	for _, x := range c {
		for _, y := range b {
			if !better(x, y) {
				allBetter = false
			}
			if !better(y, x) {
				allWorse = false
			}
		}
	}
	worse := v.cMed - v.bMed
	if !lower {
		worse = -worse
	}
	bIQR := v.bQ3 - v.bQ1
	noisy := bIQR/v.bMed > bound || (v.cQ3-v.cQ1)/v.cMed > bound
	switch {
	case worse > bound*v.bMed && (allWorse || !noisy):
		v.verdict = "regression"
	case noisy && !allBetter:
		v.verdict = "unresolved"
	case 10*v.wins >= 9*v.pairs && -worse > bIQR:
		v.verdict = "gain"
	default:
		v.verdict = "same"
	}
	return v
}

// traceOverhead is the traced ÷ untraced median of ingest_p50_ms and
// max_elems_per_s over one side's runs.
func traceOverhead(reps []*report) ([2]float64, bool) {
	var tIngest, tMax, uIngest, uMax []float64
	for _, r := range reps {
		if r.Traced {
			tIngest = append(tIngest, r.Layers["bench.traced.ingest_p50_ms"])
			tMax = append(tMax, r.Layers["bench.traced.max_elems_per_s"])
		} else {
			uIngest = append(uIngest, r.E2E["ingest_p50_ms"])
			uMax = append(uMax, r.E2E["max_elems_per_s"])
		}
	}
	if len(tIngest) == 0 || len(uIngest) == 0 {
		return [2]float64{}, false
	}
	return [2]float64{median(tIngest) / median(uIngest), median(tMax) / median(uMax)}, true
}
