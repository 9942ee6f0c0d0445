package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// DrainResult summarizes one node drain.
type DrainResult struct {
	Node       string `json:"node"`
	Migrated   int    `json:"migrated"`
	Skipped    int    `json:"skipped"` // already gone or re-homed concurrently
	Failed     int    `json:"failed"`
	DurationMS int64  `json:"duration_ms"`
}

// handleDrain is the admin drain endpoint: POST /admin/drain?node=H:P
// marks the node unschedulable and live-migrates every session homed on
// it to ring successors. Sessions keep their exact state — the
// migration blob carries a snapshot of all of it — and their clients see
// at most one reconnect (the donor answers ErrMigrated / suppresses the
// SSE terminal marker, so the reliability layer redials through the
// gateway and lands on the new home).
func (g *Gateway) handleDrain(w http.ResponseWriter, r *http.Request) {
	node := r.URL.Query().Get("node")
	if node == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: drain requires ?node="))
		return
	}
	known := false
	for _, n := range g.opts.Nodes {
		if n == node {
			known = true
			break
		}
	}
	if !known {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: unknown node %q", node))
		return
	}
	res := g.DrainNode(node)
	writeJSON(w, http.StatusOK, res)
}

// DrainNode migrates every session homed on node to ring successors and
// leaves the node unschedulable (the prober's draining mark; clear it
// by restarting the gateway or re-probing a fresh process — a drained
// node is expected to exit).
func (g *Gateway) DrainNode(node string) DrainResult {
	t0 := time.Now()
	g.prober.SetDraining(node, true)
	res := DrainResult{Node: node}

	// Snapshot the candidate set; each session is then re-checked under
	// its entry lock, so concurrent closes/re-homes are skipped cleanly.
	g.mu.RLock()
	ids := make([]string, 0, len(g.sessions))
	entries := make([]*entry, 0, len(g.sessions))
	for id, e := range g.sessions {
		ids = append(ids, id)
		entries = append(entries, e)
	}
	g.mu.RUnlock()

	for i, id := range ids {
		e := entries[i]
		e.mu.Lock()
		if e.node != node {
			e.mu.Unlock()
			res.Skipped++
			continue
		}
		outcome := g.migrateLocked(id, e)
		e.mu.Unlock()
		switch outcome {
		case migrateOK:
			res.Migrated++
		case migrateSkip:
			res.Skipped++
		default:
			res.Failed++
		}
	}
	res.DurationMS = time.Since(t0).Milliseconds()
	g.logger.Info("node drained", "node", node, "migrated", res.Migrated,
		"skipped", res.Skipped, "failed", res.Failed, "duration_ms", res.DurationMS)
	return res
}

type migrateOutcome int

const (
	migrateOK migrateOutcome = iota
	migrateSkip
	migrateFail
)

// migrateLocked moves one session off its home node: export?remove=1
// pulls the migration blob and atomically detaches the session from the
// donor, then the blob is adopted on the first willing ring successor.
// If no successor will take it, the last resort is re-adopting on the
// donor itself (undoing the detach) — the blob is the only copy of the
// session between export and adopt, so it must land somewhere. The
// caller holds e.mu, so no client request can observe the in-between.
func (g *Gateway) migrateLocked(id string, e *entry) migrateOutcome {
	t0 := time.Now()
	donor := e.node
	blob, status, err := g.export(donor, id)
	switch {
	case status == http.StatusNotFound || status == http.StatusGone:
		// Closed, evicted, or already exported: nothing to move.
		g.unregister(id)
		return migrateSkip
	case err != nil || status != http.StatusOK:
		// Export failed but the session is still intact on the donor
		// (remove only happens on a successful export): leave it routed
		// there and report the failure.
		g.logger.Warn("session export failed; not migrated",
			"session", id, "node", donor, "status", status, "err", err)
		return migrateFail
	}
	for _, succ := range g.ring.Seq(id) {
		if succ == donor || !g.prober.Healthy(succ) {
			continue
		}
		if ok := g.adoptBlob(succ, id, blob); ok {
			e.node = succ
			g.probe.Migration(time.Since(t0).Nanoseconds())
			g.logger.Info("session migrated", "session", id, "from", donor,
				"to", succ, "blob_bytes", len(blob), "took", time.Since(t0).Round(time.Millisecond))
			return migrateOK
		}
	}
	// No successor would adopt: put it back on the donor (draining but
	// alive) rather than lose it.
	if g.adoptBlob(donor, id, blob) {
		g.logger.Warn("no adopting node; session re-adopted on donor", "session", id, "node", donor)
		return migrateFail
	}
	g.probe.MigrationFailed()
	g.unregister(id)
	g.logger.Error("session lost in migration: export removed it and no node would adopt",
		"session", id, "donor", donor)
	return migrateFail
}

// export pulls a session's migration blob, removing it from the node.
func (g *Gateway) export(node, id string) (blob []byte, status int, err error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost,
		"http://"+node+"/v1/sessions/"+id+"/export?remove=1", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := g.ctl.Do(req)
	if err != nil {
		g.prober.ReportError(node)
		return nil, 0, err
	}
	defer resp.Body.Close()
	g.prober.ReportOK(node)
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<14))
		return nil, resp.StatusCode, nil
	}
	blob, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return blob, resp.StatusCode, nil
}

// adoptBlob offers a migration blob to a node; 201 (adopted) and 409
// (already there) both count as the session living on that node.
func (g *Gateway) adoptBlob(node, id string, blob []byte) bool {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost,
		"http://"+node+"/v1/sessions/"+id+"/adopt", bytes.NewReader(blob))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := g.ctl.Do(req)
	if err != nil {
		g.prober.ReportError(node)
		return false
	}
	defer resp.Body.Close()
	g.prober.ReportOK(node)
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<14))
	return resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusConflict
}
