// Phasedgw is the phased cluster gateway: the fleet's single
// client-facing endpoint. It consistent-hashes session IDs over a fixed
// set of phased nodes, proxies every wire path — one-shot ingest,
// polling, SSE, and the framed stream upgrade (spliced byte-for-byte) —
// health-probes the fleet, and live-migrates sessions off draining or
// failed nodes.
//
// Usage:
//
//	phasedgw -addr :8090 -nodes 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
//
// Clients speak the ordinary phased API to the gateway; session IDs are
// minted by the gateway so placement is decided before any node is
// contacted. Draining a node for maintenance:
//
//	curl -s -X POST 'localhost:8090/admin/drain?node=127.0.0.1:8081'
//
// Every session homed on the node is exported (a snapshot of its full
// state) and adopted by a ring successor with bit-identical state;
// clients ride through on the reliability layer's resume machinery with
// at most a reconnect. A node that dies without draining is detected by
// the health prober (consecutive /readyz failures or data-plane errors);
// its sessions are re-homed lazily as their clients reconnect, whose
// deterministic replay rebuilds the lost state exactly.
//
// Telemetry: /metrics serves opd_gateway_* (routing, node health,
// migrations) in Prometheus text form; /healthz and /readyz report
// liveness and whether any node is routable.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"opd/internal/cluster"
	"opd/internal/telemetry"
)

// newLogger builds the process logger from the -log-level / -log-format
// flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	hopts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, hopts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, hopts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want \"text\" or \"json\")", format)
}

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address (\":0\" picks a free port)")
		nodes         = flag.String("nodes", "", "comma-separated phased node addresses (host:port each); required")
		maxSess       = flag.Int("max-sessions", 4096, "cluster-global session cap; opens beyond it are shed with 429 (negative disables)")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "node health probe cadence")
		failThreshold = flag.Int("fail-threshold", 3, "consecutive probe/request failures before a node is marked down")
		idle          = flag.Duration("idle-timeout", 10*time.Minute, "drop routing entries idle this long (negative disables)")
		grace         = flag.Duration("shutdown-grace", 10*time.Second, "how long shutdown waits for in-flight requests")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error (debug logs every request)")
		logFormat     = flag.String("log-format", "text", "log output format: \"text\" (key=value) or \"json\"")
	)
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phasedgw:", err)
		os.Exit(2)
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "phasedgw: %s\n", fmt.Sprintf(format, args...))
		os.Exit(2)
	}
	nodeList := strings.Split(*nodes, ",")
	out := nodeList[:0]
	for _, n := range nodeList {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	nodeList = out
	if len(nodeList) == 0 {
		fail("-nodes is required (comma-separated host:port list)")
	}
	if *probeInterval <= 0 {
		fail("-probe-interval must be positive (got %v)", *probeInterval)
	}
	if *failThreshold <= 0 {
		fail("-fail-threshold must be positive (got %d)", *failThreshold)
	}
	if *grace <= 0 {
		fail("-shutdown-grace must be positive (got %v)", *grace)
	}

	reg := telemetry.NewRegistry()
	gw, err := cluster.New(cluster.Options{
		Nodes:         nodeList,
		MaxSessions:   *maxSess,
		ProbeInterval: *probeInterval,
		FailThreshold: *failThreshold,
		IdleTimeout:   *idle,
		Registry:      reg,
		Logger:        logger,
	})
	if err != nil {
		fail("%v", err)
	}
	if err := gw.Start(*addr); err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("listening",
		"addr", gw.Addr(),
		"nodes", strings.Join(nodeList, ","),
		"metrics_url", fmt.Sprintf("http://%s/metrics", gw.Addr()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills immediately

	logger.Info("shutting down", "grace", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := gw.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown failed", "err", err)
		os.Exit(1)
	}
	logger.Info("bye")
}
