package main

import (
	"time"

	"opd/internal/serve"
)

// A phase is one kind of stretch of a serving run. Its total length is a
// fixed share of -seconds: 3/31 warm-up (discarded), 12/31 at the nominal
// rate, 8/31 at the hi rate and 8/31 of closed-loop saturation
// (phases.go splits the last three into rounds).
type phase int

const (
	phWarm phase = iota
	phNominal
	phHi
	phSat
	numPhases
)

var phaseNames = [numPhases]string{"warmup", "nominal", "hi", "saturation"}

var phaseShare = [numPhases]float64{3.0 / 31, 12.0 / 31, 8.0 / 31, 8.0 / 31}

func phaseLen(seconds float64, p phase) time.Duration {
	return time.Duration(seconds * phaseShare[p] * float64(time.Second))
}

type kind int

const (
	kindStream kind = iota
	kindPost
	kindSweep
)

// A workload is one traffic mix; BENCHMARK.json gives each one's reason.
// Rates are chunks per second summed over all senders, chosen once so the
// open loop holds on the reference machine (README.md gives their share
// of the saturation throughput) and frozen here, so every later commit
// is offered the same load.
type workload struct {
	name     string
	kind     kind
	senders  int // stream connections, or HTTP keep-alive connections
	sessions int // live one-shot sessions (post-fanout)
	chunk    int // elements per chunk
	ids      bool
	durable  bool
	mix      []string
	scale    int // synth scale of the source traces
	nominal  float64
	hi       float64
	configs  []serve.ConfigRequest
}

// cw500 is the stream workloads' detector: CW 500, adaptive trailing
// window, unweighted model, threshold 0.6.
var cw500 = serve.ConfigRequest{CW: 500, Policy: "adaptive", Model: "unweighted", Analyzer: "threshold", Param: 0.6}

var allNames = []string{"compress", "jess", "raytrace", "db", "javac", "mpegaudio", "jack", "jlex"}

var workloads = []workload{
	{
		name: "stream-ids",
		kind: kindStream, senders: 2, chunk: 2048, ids: true,
		mix: []string{"compress", "db", "mpegaudio", "jlex"}, scale: 2,
		nominal: 1500, hi: 3000,
		configs: []serve.ConfigRequest{cw500},
	},
	{
		name: "post-fanout",
		kind: kindPost, senders: 2, sessions: 256, chunk: 256,
		mix: []string{"jess", "raytrace", "javac", "jack"}, scale: 2,
		nominal: 2000, hi: 3000,
		configs: []serve.ConfigRequest{
			cw500,
			{CW: 100, Policy: "constant", Model: "weighted", Analyzer: "threshold", Param: 0.7},
			{CW: 500, Policy: "fixedinterval", Model: "unweighted", Analyzer: "average", Param: 0.1},
			{CW: 100, Policy: "adaptive", Model: "weighted", Analyzer: "average", Param: 0.05, Anchor: "lnn", Resize: "move"},
		},
	},
	{
		name: "durable-branch",
		kind: kindStream, senders: 2, chunk: 4096, durable: true,
		mix: allNames, scale: 1,
		nominal: 400, hi: 600,
		configs: []serve.ConfigRequest{cw500},
	},
	{
		name: "sweep-offline",
		kind: kindSweep,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A metricDef is one reported metric; BENCHMARK.json lists the same ones,
// with each end-to-end metric's regression bound.
type metricDef struct {
	name, unit string
	lower      bool // lower is better
}

var e2eMetrics = []metricDef{
	{"setup_s", "s", true},
	{"ingest_p50_ms", "ms", true},
	{"ingest_p90_ms", "ms", true},
	{"ingest_p90_ms.hi", "ms", true},
	{"event_p50_ms", "ms", true},
	{"cpu_ns_per_elem", "ns", true},
	{"peak_rss_mb", "MB", true},
}

// unboundedMetrics are end-to-end metrics a run reports but the result
// line leaves out, so BENCHMARK.json gives them no bound: on the
// reference machine the saturation throughput follows the host's speed,
// and ten runs of it spread by more than the largest bound (README.md).
var unboundedMetrics = []metricDef{
	{"max_elems_per_s", "1/s", false},
}
