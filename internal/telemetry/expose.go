package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
)

// promLabels renders a label set (plus optional extras, e.g. quantile)
// in Prometheus exposition syntax, including the braces; empty sets
// render as nothing. It also renders the registry's lookup keys.
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (version 0.0.4), families sorted by name. Safe on a
// nil registry (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.runCollectors()
	for _, fam := range r.families() {
		name := fam[0].family
		r.mu.Lock()
		help := r.help[name]
		r.mu.Unlock()
		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, fam[0].kind()); err != nil {
			return err
		}
		for _, e := range fam {
			var err error
			switch {
			case e.counter != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", name, promLabels(e.labels), e.counter.Value())
			case e.gauge != nil:
				_, err = fmt.Fprintf(w, "%s%s %g\n", name, promLabels(e.labels), e.gauge.Value())
			case e.lat != nil:
				s := e.lat.Summary()
				for _, q := range []struct {
					label string
					v     int64
				}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.99", s.P99}, {"0.999", s.P999}, {"1", s.Max}} {
					if _, err = fmt.Fprintf(w, "%s%s %d\n",
						name, promLabels(e.labels, L("quantile", q.label)), q.v); err != nil {
						return err
					}
				}
				_, err = fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n",
					name, promLabels(e.labels), s.SumNS, name, promLabels(e.labels), s.Count)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders a full snapshot as indented JSON. Safe on a nil
// registry (writes an empty snapshot).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteReport renders a compact human-readable end-of-run report: every
// scalar metric, histogram percentiles, and the tail of the event trace.
// This is the body of the -telemetry-dump flag in the cmds. Safe on a
// nil registry.
func (r *Registry) WriteReport(w io.Writer) error {
	if r == nil {
		return nil
	}
	s := r.Snapshot()
	line := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := line("== telemetry report ==\n"); err != nil {
		return err
	}
	for _, p := range s.Counters {
		if err := line("%-56s %d\n", p.Name+promLabels(labelsOf(p.Labels)), int64(p.Value)); err != nil {
			return err
		}
	}
	for _, p := range s.Gauges {
		if err := line("%-56s %g\n", p.Name+promLabels(labelsOf(p.Labels)), p.Value); err != nil {
			return err
		}
	}
	for _, l := range s.Latencies {
		if err := line("%-56s count=%d p50=%d p99=%d p999=%d max=%d\n",
			l.Name+promLabels(labelsOf(l.Labels)), l.Count, l.P50, l.P99, l.P999, l.Max); err != nil {
			return err
		}
	}
	const tail = 20
	events := s.Events
	if len(events) > tail {
		events = events[len(events)-tail:]
	}
	if len(events) > 0 {
		if err := line("-- last %d of %d events --\n", len(events), s.EventsTotal); err != nil {
			return err
		}
		for _, e := range events {
			if err := line("#%-8d %-14s src=%s at=%d v1=%d v2=%d\n", e.Seq, e.Kind, e.Src, e.At, e.V1, e.V2); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelsOf restores a deterministic Label slice from a snapshot map.
func labelsOf(m map[string]string) []Label {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion order is lost in the map; sort for stable output.
	sort.Strings(keys)
	out := make([]Label, 0, len(keys))
	for _, k := range keys {
		out = append(out, L(k, m[k]))
	}
	return out
}

// DebugPath is the URL path of the live telemetry surface.
const DebugPath = "/debug/phasedet"

// Handler returns the /debug/phasedet HTTP surface:
//
//	GET /debug/phasedet              Prometheus text (or JSON with
//	                                 ?format=json / Accept: application/json)
//	GET /debug/phasedet/events      the retained event trace as JSON
//
// Safe on a nil registry (serves empty output).
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(DebugPath, func(w http.ResponseWriter, req *http.Request) {
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc(DebugPath+"/events", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s := r.Snapshot()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Events      []EventPoint `json:"events"`
			EventsTotal uint64       `json:"events_total"`
		}{s.Events, s.EventsTotal})
	})
	return mux
}

// A Server is a live telemetry HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server for the registry's debug surface on addr
// (":0" picks a free port) and returns once the listener is bound. The
// server runs until Close.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the server's bound address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the full URL of the debug endpoint.
func (s *Server) URL() string { return "http://" + s.Addr() + DebugPath }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
