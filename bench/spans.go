package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanKind names the public client call a span wraps.
type spanKind uint8

const (
	spOpen   spanKind = iota // serve.OpenSession
	spDial                   // serve.DialStream
	spSend                   // StreamClient.Send
	spDrain                  // StreamClient.Drain
	spEnd                    // StreamClient.End
	spPost                   // POST /v1/sessions/{id}/elements
	spGet                    // GET /v1/sessions/{id}/events?since=
	spDelete                 // DELETE /v1/sessions/{id}
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"open", "dial", "send", "drain", "end", "post", "get", "delete"}

// A span is one client call: which session (the benchmark's own index)
// and chunk it served (-1 for session-level calls), and when it ran.
type span struct {
	kind       spanKind
	sess       int32
	chunk      int32
	start, end time.Time
}

// A tracer keeps spans in memory for a -trace run and writes them out
// when the run ends. A nil tracer (untraced run) records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(k spanKind, sess, chunk int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: k, sess: int32(sess), chunk: int32(chunk), start: start, end: end})
	t.mu.Unlock()
}

// durations returns the durations of every span of kind k.
func (t *tracer) durations(k spanKind) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.kind == k {
			out = append(out, float64(s.end.Sub(s.start).Nanoseconds()))
		}
	}
	return out
}

// write stores the spans as CSV: kind, session, chunk, and start/end in
// nanoseconds since t0.
func (t *tracer) write(path string, t0 time.Time) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,session,chunk,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", spanNames[s.kind], s.sess, s.chunk,
			s.start.Sub(t0).Nanoseconds(), s.end.Sub(t0).Nanoseconds())
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
