package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"opd/internal/serve"
	"opd/internal/telemetry"
)

// A chunkRec times one chunk: when it was due; when the generator was
// free to send it (the due time, or its connection's previous request
// returning, if later); when Send started and returned; and when the ack
// covering it arrived.
type chunkRec struct {
	phase                         phase
	due, ready, send, sent, acked time.Time
	elems                         int
}

// An eventRec is a phase event and when the client received it.
type eventRec struct {
	ev serve.Event
	at time.Time
}

// A streamSession is one framed-stream session and its client.
type streamSession struct {
	r    *run
	idx  int
	id   string
	src  *source
	sc   *serve.StreamClient
	next int // next chunk index to send
	// recs[k-first] times chunk k; chunks before first were sent during
	// set-up (and, on durable-branch, before the crash).
	first  int
	recs   []chunkRec
	events []eventRec // written by the client's reader goroutine; read after End
	sum    *serve.Summary
}

func (r *run) dial(addr string, ss *streamSession) error {
	ss.events = nil
	t0 := time.Now()
	sc, err := serve.DialStream(addr, ss.id, serve.StreamOptions{
		IDs:       r.w.ids,
		ChunkBase: uint64(ss.next),
		OnEvent: func(e serve.Event) {
			ss.events = append(ss.events, eventRec{ev: e, at: time.Now()})
		},
	})
	r.tr.add(spDial, ss.idx, -1, t0, time.Now())
	r.count(err)
	if err != nil {
		return fmt.Errorf("dialing stream %d: %w", ss.idx, err)
	}
	if got := sc.Applied(); got != uint64(ss.next) {
		sc.Close()
		return fmt.Errorf("stream %d resumed at chunk %d, want %d", ss.idx, got, ss.next)
	}
	ss.sc = sc
	return nil
}

// sendDrain sends the session's next chunk and waits for its ack.
func (r *run) sendDrain(ss *streamSession) (t0, t1, t2 time.Time, err error) {
	t0 = time.Now()
	err = ss.sc.Send(ss.src.chunk(ss.next))
	t1 = time.Now()
	if err == nil {
		err = ss.sc.Drain()
	}
	t2 = time.Now()
	r.count(err)
	if err != nil {
		return t0, t1, t2, fmt.Errorf("stream %d chunk %d: %w", ss.idx, ss.next, err)
	}
	r.tr.add(spSend, ss.idx, ss.next, t0, t1)
	r.tr.add(spDrain, ss.idx, ss.next, t1, t2)
	ss.next++
	return t0, t1, t2, nil
}

// end closes the session over its stream and keeps the summary.
func (r *run) end(ss *streamSession) error {
	t0 := time.Now()
	sum, err := ss.sc.End(true)
	r.tr.add(spEnd, ss.idx, -1, t0, time.Now())
	r.count(err)
	ss.sc.Close()
	if err != nil {
		return fmt.Errorf("ending stream %d: %w", ss.idx, err)
	}
	ss.sum = sum
	return nil
}

// verify checks a closed stream session against the offline reference
// over every chunk it was sent; a stream delivers every event.
func (r *run) verify(ss *streamSession) (*reference, error) {
	return r.checkSession(r.w.configs[0], ss.src, ss.next, ss.sum, ss.events, true,
		fmt.Sprintf("stream %d (%s)", ss.idx, ss.id))
}

func (r *run) newStreams() ([]*streamSession, error) {
	out := make([]*streamSession, r.w.senders)
	for i := range out {
		rng := newSplitmix(r.seed, r.w.name+"/source", uint64(i))
		src, err := newSource(r.ts, rng.shuffled(r.w.mix), rng.next(), r.w.chunk)
		if err != nil {
			return nil, err
		}
		out[i] = &streamSession{r: r, idx: i, src: src}
	}
	return out, nil
}

func (r *run) openStreams(srv *server, streams []*streamSession) error {
	for _, ss := range streams {
		t0 := time.Now()
		op, err := serve.OpenSession(r.client, srv.base, r.w.configs[0], serve.OpenOptions{})
		r.tr.add(spOpen, ss.idx, -1, t0, time.Now())
		r.count(err)
		if err != nil {
			return fmt.Errorf("opening stream session: %w", err)
		}
		ss.id = op.ID
	}
	return nil
}

// coldStart is one set-up: exec → /readyz → sessions opened (or, on a
// durable restart, recovered) → streams dialed → first chunk acked.
func (r *run) coldStart(ctx context.Context, streams []*streamSession, args []string, open bool) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := spawnServer(ctx, r.bin, args...)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*server, time.Duration, error) {
		srv.kill()
		return nil, 0, err
	}
	if open {
		if err := r.openStreams(srv, streams); err != nil {
			return fail(err)
		}
	}
	for _, ss := range streams {
		if err := r.dial(srv.addr, ss); err != nil {
			return fail(err)
		}
	}
	for _, ss := range streams {
		if _, _, _, err := r.sendDrain(ss); err != nil {
			return fail(err)
		}
	}
	return srv, time.Since(t0), nil
}

// durablePrefill is how many chunks each durable stream applies before
// the crash: three snapshot cadences plus a WAL tail, so recovery both
// restores a snapshot and replays records.
const durablePrefill = 3*64 + 40

// A streamStarter makes the timed cold starts of a stream workload.
type streamStarter struct {
	r       *run
	args    []string
	crashed string // durable: the data dir every restart recovers a copy of
	streams []*streamSession
	next    []int // each stream's next chunk when a start begins
	n       int   // starts made
}

// start is one timed cold start on fresh copies of the streams; it
// returns the running server and the copies.
func (st *streamStarter) start(ctx context.Context) (*server, []*streamSession, error) {
	r := st.r
	args := st.args
	if st.crashed != "" {
		dir := filepath.Join(r.work, fmt.Sprintf("data%d", st.n))
		if err := copyTree(dir, st.crashed); err != nil {
			return nil, nil, err
		}
		args = append([]string{"-data-dir", dir, "-fsync", "always", "-snapshot-every", "64"}, args...)
	}
	st.n++
	streams := make([]*streamSession, len(st.streams))
	for i, ss := range st.streams {
		streams[i] = &streamSession{r: r, idx: ss.idx, id: ss.id, src: ss.src, next: st.next[i]}
	}
	srv, d, err := r.coldStart(ctx, streams, args, st.crashed == "")
	if err != nil {
		return nil, nil, fmt.Errorf("set-up %d: %w", st.n, err)
	}
	r.setup = append(r.setup, d)
	r.ready = append(r.ready, srv.readyAt.Sub(srv.execAt))
	return srv, streams, nil
}

// spare is a cold start besides the measured server's: its sessions are
// closed and checked (on durable-branch, every restart's recovery), and
// its server is killed.
func (st *streamStarter) spare(ctx context.Context) error {
	srv, streams, err := st.start(ctx)
	if err != nil {
		return err
	}
	for _, ss := range streams {
		if e := st.r.end(ss); e != nil && err == nil {
			err = e
		}
	}
	for _, ss := range streams {
		if err != nil {
			break
		}
		if _, err = st.r.verify(ss); err != nil {
			err = fmt.Errorf("set-up %d: %w", st.n, err)
		}
	}
	srv.kill()
	if err == nil && st.crashed != "" {
		err = os.RemoveAll(filepath.Join(st.r.work, fmt.Sprintf("data%d", st.n-1)))
	}
	return err
}

func (r *run) streamWorkload(ctx context.Context) error {
	streams, err := r.newStreams()
	if err != nil {
		return err
	}
	var args []string
	if !r.w.durable {
		// stream-ids retains every event a run emits. Its sessions would
		// fill the default log (65536 events) partway through a run, and
		// from then on every event copies the whole retained log (an
		// O(retained) trim): throughput dropped sixfold mid-phase. A run
		// must stay in one regime. durable-branch's sessions stay below the
		// default (about 36k events each), so it runs at the default.
		args = []string{"-max-events", "1048576"}
	}
	if r.traced {
		args = append(args, "-flight-chunks", fmt.Sprint(r.flightDepth()))
	}
	st := &streamStarter{r: r, args: args, streams: streams}
	if r.w.durable {
		st.crashed = filepath.Join(r.work, "crashed")
		if err := r.prefill(ctx, streams, st.crashed, args); err != nil {
			return err
		}
	}
	for _, ss := range streams {
		st.next = append(st.next, ss.next)
	}

	// The measured server's start is the first timed set-up; the others
	// follow each segment (runPhases calls r.spareStart).
	srv, streams, err := st.start(ctx)
	if err != nil {
		return err
	}
	r.streams = streams
	r.spareStart = st.spare
	for _, ss := range streams {
		ss.first = ss.next
	}

	senders := make([]sender, len(streams))
	for i, ss := range streams {
		senders[i] = ss
	}
	if err := r.runPhases(ctx, srv, senders); err != nil {
		srv.kill()
		return err
	}

	for _, ss := range streams {
		if err := r.end(ss); err != nil {
			srv.kill()
			return err
		}
	}
	if err := srv.stop(); err != nil {
		return err
	}
	for _, ss := range streams {
		r.recs = append(r.recs, ss.recs...)
	}

	// Correctness, then the reference's in-process detect time. The
	// streams are checked in parallel, on every CPU.
	if err := unpinSelf(); err != nil {
		return err
	}
	refs := make([]*reference, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, ss := range streams {
		wg.Add(1)
		go func(i int, ss *streamSession) {
			defer wg.Done()
			refs[i], errs[i] = r.verify(ss)
		}(i, ss)
	}
	wg.Wait()
	var detectNS, elems int64
	for i, ss := range streams {
		if errs[i] != nil {
			return errs[i]
		}
		detectNS += refs[i].detectNS
		elems += refs[i].elems
		ss.eventLatency(refs[i])
	}
	r.directNS = float64(detectNS) / float64(elems)
	for _, ss := range streams {
		r.sim += ss.sum.SimComputations
		r.consumed += ss.sum.Consumed
	}
	return nil
}

// prefill opens the durable sessions, applies durablePrefill chunks to
// each, drains, and kills the server with SIGKILL, leaving the crashed
// data dir every restart recovers from.
func (r *run) prefill(ctx context.Context, streams []*streamSession, dir string, extra []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	args := append([]string{"-data-dir", dir, "-fsync", "always", "-snapshot-every", "64"}, extra...)
	srv, err := spawnServer(ctx, r.bin, args...)
	if err != nil {
		return err
	}
	err = r.fill(srv, streams)
	srv.kill()
	for _, ss := range streams {
		if ss.sc != nil {
			ss.sc.Close()
		}
	}
	return err
}

func (r *run) fill(srv *server, streams []*streamSession) error {
	if err := r.openStreams(srv, streams); err != nil {
		return err
	}
	for _, ss := range streams {
		if err := r.dial(srv.addr, ss); err != nil {
			return err
		}
		for ss.next < durablePrefill {
			err := ss.sc.Send(ss.src.chunk(ss.next))
			r.count(err)
			if err != nil {
				return err
			}
			ss.next++
		}
		err := ss.sc.Drain()
		r.count(err)
		if err != nil {
			return err
		}
	}
	return nil
}

// sendOne sends the stream's next chunk and waits for its ack.
func (ss *streamSession) sendOne(p phase, due, ready time.Time) (time.Time, error) {
	t0, t1, t2, err := ss.r.sendDrain(ss)
	if err != nil {
		return t2, err
	}
	ss.recs = append(ss.recs, chunkRec{phase: p, due: due, ready: ready, send: t0, sent: t1, acked: t2, elems: ss.r.w.chunk})
	return t2, nil
}

// saturation pipelines this many chunks per connection before draining.
const satDepth = 16

// saturate is the closed loop: satDepth chunks, then Drain, repeated.
func (ss *streamSession) saturate(start time.Time, dur time.Duration) error {
	r := ss.r
	sleepUntil(start)
	end := start.Add(dur)
	for time.Now().Before(end) {
		t0 := time.Now()
		first := ss.next
		for i := 0; i < satDepth; i++ {
			s0 := time.Now()
			err := ss.sc.Send(ss.src.chunk(ss.next))
			r.count(err)
			if err != nil {
				return fmt.Errorf("stream %d chunk %d: %w", ss.idx, ss.next, err)
			}
			r.tr.add(spSend, ss.idx, ss.next, s0, time.Now())
			ss.next++
		}
		t1 := time.Now()
		err := ss.sc.Drain()
		r.count(err)
		if err != nil {
			return fmt.Errorf("stream %d drain: %w", ss.idx, err)
		}
		t2 := time.Now()
		r.tr.add(spDrain, ss.idx, first, t1, t2)
		for k := first; k < ss.next; k++ {
			ss.recs = append(ss.recs, chunkRec{phase: phSat, due: t0, ready: t0, send: t0, sent: t1, acked: t2, elems: r.w.chunk})
		}
	}
	return nil
}

// eventLatency times each event from the due time of the chunk
// whose processing emitted it, for chunks of the nominal phase.
func (ss *streamSession) eventLatency(ref *reference) {
	r := ss.r
	for i, e := range ss.events {
		k := ref.eventChunk[i]
		if k < ss.first || k-ss.first >= len(ss.recs) {
			continue
		}
		rec := ss.recs[k-ss.first]
		if rec.phase != phNominal {
			continue
		}
		r.eventLat = append(r.eventLat, eventLat{due: rec.due, ms: ms(e.at.Sub(rec.due))})
	}
}

// collectFlight fetches each stream's flight recorder after a
// fixed-rate segment and pairs each trace with the client's record of the
// same chunk, aligning from the newest chunk (the stream is drained, so
// the newest trace is the newest chunk sent).
func (r *run) collectFlight(srv *server, p phase) error {
	for _, ss := range r.streams {
		traces, err := srv.flight(r.client, ss.id)
		if err != nil {
			return err
		}
		last := len(ss.recs) - 1
		for j := len(traces) - 1; j >= 0 && last >= 0; j, last = j-1, last-1 {
			if ss.recs[last].phase != p {
				break
			}
			r.flight[p] = append(r.flight[p], flightPair{ct: traces[j], rec: ss.recs[last]})
		}
	}
	return nil
}

// flightDepth is a flight-recorder ring deep enough to hold one
// stream's chunks of a whole fixed-rate segment, with a fifth to spare.
func (r *run) flightDepth() int {
	need := 0
	for _, p := range []phase{phNominal, phHi} {
		if n := int(phaseLen(r.seconds, p).Seconds() / rounds * r.w.hi / float64(r.w.senders) * 1.2); n > need {
			need = n
		}
	}
	depth := 64
	for depth < need {
		depth *= 2
	}
	return depth
}

type flightPair struct {
	ct  telemetry.ChunkTrace
	rec chunkRec
}
