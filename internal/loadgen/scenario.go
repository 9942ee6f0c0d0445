package loadgen

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"
)

// A Scenario is one spawned run: the workload, where its kill -9
// lands, and how many nodes serve it.
type Scenario struct {
	// Name labels the run's report header and errors.
	Name string
	Spec Spec
	// KillAfter, when positive, kill -9s the spawned server this far into
	// the run and restarts it on the same address and data dir. In a
	// cluster scenario the kill hits the first phased node instead, and
	// nothing restarts it — recovery is the gateway re-homing the dead
	// node's sessions.
	KillAfter time.Duration
	// Cluster, when >= 2, runs the scenario against this many phased
	// nodes behind a spawned phasedgw gateway instead of one node.
	Cluster int
}

// RunClusterScenario spawns a phased fleet and a phasedgw gateway for
// one cluster scenario, drives the load through the gateway, and (for
// kill scenarios) kill -9s the first node mid-run without restarting
// it. Nodes run in-memory: a dead node's state is deliberately
// abandoned — the adopting node rebuilds it from the clients' replay.
func RunClusterScenario(ctx context.Context, bin, gwBin string, sc Scenario, logger *slog.Logger, human io.Writer) (*Report, error) {
	if sc.Cluster < 2 {
		return nil, fmt.Errorf("loadgen: scenario %s: cluster size %d < 2", sc.Name, sc.Cluster)
	}
	nodes := make([]*Server, 0, sc.Cluster)
	addrs := make([]string, 0, sc.Cluster)
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	for i := 0; i < sc.Cluster; i++ {
		addr, err := PickAddr()
		if err != nil {
			return nil, err
		}
		srv, err := SpawnServer(ctx, bin, addr, "", logger)
		if err != nil {
			return nil, fmt.Errorf("loadgen: scenario %s: spawn node %d: %w", sc.Name, i, err)
		}
		nodes = append(nodes, srv)
		addrs = append(addrs, addr)
	}
	gwAddr, err := PickAddr()
	if err != nil {
		return nil, err
	}
	// A tight probe so the recovery number measures the contract, not a
	// lazy default cadence.
	gw, err := SpawnGateway(ctx, gwBin, gwAddr, addrs, logger,
		"-probe-interval", "100ms", "-fail-threshold", "2")
	if err != nil {
		return nil, fmt.Errorf("loadgen: scenario %s: spawn gateway: %w", sc.Name, err)
	}
	defer gw.Stop()

	r, err := NewRunner(sc.Spec, gwAddr, logger)
	if err != nil {
		return nil, err
	}

	var killErr error
	killDone := make(chan struct{})
	if sc.KillAfter > 0 {
		go func() {
			defer close(killDone)
			if err := sleepCtx(ctx, sc.KillAfter); err != nil {
				return
			}
			killErr = nodes[0].Kill9()
			r.MarkKill(time.Now())
		}()
	} else {
		close(killDone)
	}

	rep := r.Run(ctx)
	<-killDone
	if killErr != nil {
		return nil, fmt.Errorf("loadgen: scenario %s: node kill: %w", sc.Name, killErr)
	}
	if human != nil {
		fmt.Fprintf(human, "\n== %s (%d nodes + gateway) ==\n", sc.Name, sc.Cluster)
		rep.WriteHuman(human)
	}
	return rep, nil
}

// RunScenario spawns a phased child for one scenario on dataDir (empty
// runs it in memory), drives it, and (for crash scenarios) kills and
// recovers it mid-run. A crash scenario needs a data dir: the restarted
// server recovers its sessions from there, and an in-memory one comes
// back empty.
func RunScenario(ctx context.Context, bin, dataDir string, sc Scenario, logger *slog.Logger, human io.Writer) (*Report, error) {
	addr, err := PickAddr()
	if err != nil {
		return nil, err
	}
	srv, err := SpawnServer(ctx, bin, addr, dataDir, logger)
	if err != nil {
		return nil, fmt.Errorf("loadgen: scenario %s: spawn: %w", sc.Name, err)
	}
	defer srv.Stop()

	r, err := NewRunner(sc.Spec, addr, logger)
	if err != nil {
		return nil, err
	}

	var restart, ready time.Duration
	var killErr error
	killDone := make(chan struct{})
	if sc.KillAfter > 0 {
		go func() {
			defer close(killDone)
			if err := sleepCtx(ctx, sc.KillAfter); err != nil {
				return
			}
			restart, ready, killErr = KillAndRecover(ctx, srv, r)
		}()
	} else {
		close(killDone)
	}

	rep := r.Run(ctx)
	<-killDone
	if killErr != nil {
		return nil, fmt.Errorf("loadgen: scenario %s: kill/recover: %w", sc.Name, killErr)
	}
	if rep.Recovery != nil {
		rep.Recovery.RestartNS = restart.Nanoseconds()
		rep.Recovery.ReadyNS = ready.Nanoseconds()
	}
	if human != nil {
		fmt.Fprintf(human, "\n== %s ==\n", sc.Name)
		rep.WriteHuman(human)
	}
	return rep, nil
}
