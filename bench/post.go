package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"opd/internal/serve"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// A one-shot session closes after this many chunks, drawn per
// incarnation.
const minLifetime, maxLifetime = 200, 600

// A postSession is one incarnation of a one-shot session slot: the slot
// keeps 256 sessions live, and each incarnation closes after a seeded
// lifetime of 200–600 chunks and is replaced.
type postSession struct {
	slot, inc int
	id        string
	cfg       int // index into workload.configs
	src       *source
	lifetime  int
	next      int
	recs      []chunkRec
	cursor    uint64 // next event seq to fetch
	events    []eventRec
	sum       *serve.Summary
	flight    []telemetry.ChunkTrace
}

// A poster is one sender: one keep-alive connection, and every session
// whose slot it owns.
type poster struct {
	r      *run
	srv    *server
	client *http.Client
	slots  []*postSession
	done   []*postSession // closed incarnations, awaiting the check
	body   []byte
	rr     int // round-robin cursor over slots
}

func (p *poster) incarnation(slot, inc int) (*postSession, error) {
	w := p.r.w
	rng := newSplitmix(p.r.seed, w.name+"/session", uint64(slot), uint64(inc))
	name := w.mix[rng.below(len(w.mix))]
	src, err := newSource(p.r.ts, []string{name}, rng.next(), w.chunk)
	if err != nil {
		return nil, err
	}
	return &postSession{slot: slot, inc: inc, cfg: rng.below(len(w.configs)), src: src,
		lifetime: rng.between(minLifetime, maxLifetime)}, nil
}

func (p *poster) open(ps *postSession) error {
	t0 := time.Now()
	op, err := serve.OpenSession(p.client, p.srv.base, p.r.w.configs[ps.cfg], serve.OpenOptions{})
	p.r.tr.add(spOpen, ps.slot, -1, t0, time.Now())
	p.r.count(err)
	if err != nil {
		return fmt.Errorf("opening slot %d: %w", ps.slot, err)
	}
	ps.id = op.ID
	return nil
}

// post sends the session's next chunk and, when the reply shows new
// events, fetches them.
func (p *poster) post(ps *postSession) (acked time.Time, err error) {
	p.body = trace.AppendBranches(p.body[:0], ps.src.chunk(ps.next))
	t0 := time.Now()
	var reply struct {
		Elements    int    `json:"elements"`
		EventsTotal uint64 `json:"events_total"`
	}
	err = p.do(http.MethodPost, "/v1/sessions/"+ps.id+"/elements", p.body, &reply)
	acked = time.Now()
	p.r.tr.add(spPost, ps.slot, ps.next, t0, acked)
	p.r.count(err)
	if err != nil {
		return acked, fmt.Errorf("slot %d chunk %d: %w", ps.slot, ps.next, err)
	}
	if reply.Elements != p.r.w.chunk {
		return acked, fmt.Errorf("slot %d chunk %d: server took %d elements", ps.slot, ps.next, reply.Elements)
	}
	ps.next++
	if reply.EventsTotal > ps.cursor {
		return acked, p.fetchEvents(ps)
	}
	return acked, nil
}

func (p *poster) fetchEvents(ps *postSession) error {
	t0 := time.Now()
	var reply struct {
		Events []serve.Event `json:"events"`
		Next   uint64        `json:"next"`
	}
	err := p.do(http.MethodGet, fmt.Sprintf("/v1/sessions/%s/events?since=%d", ps.id, ps.cursor), nil, &reply)
	at := time.Now()
	p.r.tr.add(spGet, ps.slot, ps.next-1, t0, at)
	p.r.count(err)
	if err != nil {
		return fmt.Errorf("slot %d events: %w", ps.slot, err)
	}
	for _, e := range reply.Events {
		ps.events = append(ps.events, eventRec{ev: e, at: at})
	}
	ps.cursor = reply.Next
	return nil
}

// close DELETEs the session, keeping its summary (and, traced, its
// flight recorder) for the check.
func (p *poster) close(ps *postSession) error {
	if p.r.traced {
		ct, err := p.srv.flight(p.client, ps.id)
		if err != nil {
			return err
		}
		ps.flight = ct
	}
	t0 := time.Now()
	var sum serve.Summary
	err := p.do(http.MethodDelete, "/v1/sessions/"+ps.id, nil, &sum)
	p.r.tr.add(spDelete, ps.slot, -1, t0, time.Now())
	p.r.count(err)
	if err != nil {
		return fmt.Errorf("closing slot %d: %w", ps.slot, err)
	}
	ps.sum = &sum
	p.done = append(p.done, ps)
	return nil
}

func (p *poster) do(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, p.srv.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// step serves the next slot in round-robin order: replace its session
// if it reached its lifetime, then send its next chunk.
func (p *poster) step() (*postSession, time.Time, error) {
	i := p.rr
	p.rr = (p.rr + 1) % len(p.slots)
	ps := p.slots[i]
	if ps.next >= ps.lifetime {
		if err := p.close(ps); err != nil {
			return nil, time.Time{}, err
		}
		next, err := p.incarnation(ps.slot, ps.inc+1)
		if err != nil {
			return nil, time.Time{}, err
		}
		if err := p.open(next); err != nil {
			return nil, time.Time{}, err
		}
		p.slots[i], ps = next, next
	}
	acked, err := p.post(ps)
	return ps, acked, err
}

func (r *run) postWorkload(ctx context.Context) error {
	var args []string
	if r.traced {
		// As deep as the longest session lifetime.
		args = append(args, "-flight-chunks", fmt.Sprint(maxLifetime))
	}
	// The measured server's start is the first timed set-up; the others
	// follow each segment (runPhases calls r.spareStart), and their
	// servers are killed with their sessions open.
	posters, err := r.postStart(ctx, args)
	if err != nil {
		return err
	}
	defer closeIdle(posters)
	srv := posters[0].srv
	r.spareStart = func(ctx context.Context) error {
		spare, err := r.postStart(ctx, args)
		if err != nil {
			return err
		}
		spare[0].srv.kill()
		closeIdle(spare)
		return nil
	}

	senders := make([]sender, len(posters))
	for i, p := range posters {
		senders[i] = p
	}
	if err := r.runPhases(ctx, srv, senders); err != nil {
		srv.kill()
		return err
	}
	for _, p := range posters {
		for _, ps := range p.slots {
			if err := p.close(ps); err != nil {
				srv.kill()
				return err
			}
		}
	}
	if err := srv.stop(); err != nil {
		return err
	}
	if err := unpinSelf(); err != nil {
		return err
	}
	return r.verifyPosts(posters)
}

// postStart is one timed cold start: exec → /readyz → every slot's first
// session opened (each sender its own slots, over its own connection) →
// each sender's first chunk acked. It returns the senders, which share
// the running server.
func (r *run) postStart(ctx context.Context, args []string) ([]*poster, error) {
	t0 := time.Now()
	srv, err := spawnServer(ctx, r.bin, args...)
	if err != nil {
		return nil, fmt.Errorf("set-up %d: %w", len(r.setup), err)
	}
	posters := make([]*poster, r.w.senders)
	errs := make([]error, len(posters))
	var wg sync.WaitGroup
	for i := range posters {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		p := &poster{r: r, srv: srv, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
		posters[i] = p
		wg.Add(1)
		go func(i int, p *poster) {
			defer wg.Done()
			for slot := i; slot < r.w.sessions; slot += len(posters) {
				ps, err := p.incarnation(slot, 0)
				if err == nil {
					err = p.open(ps)
				}
				if err != nil {
					errs[i] = err
					return
				}
				p.slots = append(p.slots, ps)
			}
			_, _, errs[i] = p.step()
		}(i, p)
	}
	wg.Wait()
	r.setup = append(r.setup, time.Since(t0))
	r.ready = append(r.ready, srv.readyAt.Sub(srv.execAt))
	for _, err := range errs {
		if err != nil {
			srv.kill()
			closeIdle(posters)
			return nil, fmt.Errorf("set-up %d: %w", len(r.setup), err)
		}
	}
	return posters, nil
}

func closeIdle(posters []*poster) {
	for _, p := range posters {
		p.client.CloseIdleConnections()
	}
}

// sendOne posts to the sender's next session in round-robin order.
func (p *poster) sendOne(ph phase, due, ready time.Time) (time.Time, error) {
	send := time.Now()
	ps, acked, err := p.step()
	if err != nil {
		return time.Time{}, err
	}
	p.record(ps, chunkRec{phase: ph, due: due, ready: ready, send: send, sent: send, acked: acked, elems: p.r.w.chunk})
	return time.Now(), nil
}

// saturate sends back to back: one request in flight per connection.
func (p *poster) saturate(start time.Time, dur time.Duration) error {
	sleepUntil(start)
	end := start.Add(dur)
	for time.Now().Before(end) {
		send := time.Now()
		ps, acked, err := p.step()
		if err != nil {
			return err
		}
		p.record(ps, chunkRec{phase: phSat, due: send, ready: send, send: send, sent: send, acked: acked, elems: p.r.w.chunk})
	}
	return nil
}

// record files the timing of the chunk just posted: recs[k] is chunk k.
// Chunks posted during set-up get a placeholder outside every phase.
func (p *poster) record(ps *postSession, rec chunkRec) {
	for len(ps.recs) < ps.next-1 {
		ps.recs = append(ps.recs, chunkRec{phase: -1})
	}
	ps.recs = append(ps.recs, rec)
}

// verifyPosts checks every closed incarnation against its reference,
// on two goroutines.
func (r *run) verifyPosts(posters []*poster) error {
	var all []*postSession
	for _, p := range posters {
		all = append(all, p.done...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].slot != all[j].slot {
			return all[i].slot < all[j].slot
		}
		return all[i].inc < all[j].inc
	})
	refs := make([]*reference, len(all))
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(all); i += workers {
				refs[i], errs[i] = r.verifyPost(all[i])
			}
		}(w)
	}
	wg.Wait()
	var detectNS, elems int64
	for i, ps := range all {
		if errs[i] != nil {
			return errs[i]
		}
		detectNS += refs[i].detectNS
		elems += refs[i].elems
		r.sim += ps.sum.SimComputations
		r.consumed += ps.sum.Consumed
		for j, e := range ps.events {
			k := refs[i].eventChunk[j]
			if k < len(ps.recs) && ps.recs[k].phase == phNominal {
				r.eventLat = append(r.eventLat, eventLat{due: ps.recs[k].due, ms: ms(e.at.Sub(ps.recs[k].due))})
			}
		}
		for _, ct := range ps.flight {
			k := int(ct.Seq) - 1
			if k >= 0 && k < len(ps.recs) && ps.recs[k].phase >= 0 {
				r.flight[ps.recs[k].phase] = append(r.flight[ps.recs[k].phase], flightPair{ct: ct, rec: ps.recs[k]})
			}
		}
		for _, rec := range ps.recs {
			if rec.phase >= 0 {
				r.recs = append(r.recs, rec)
			}
		}
	}
	if elems > 0 {
		r.directNS = float64(detectNS) / float64(elems)
	}
	return nil
}

// verifyPost checks a closed one-shot session. Its final close event
// cannot be fetched after the DELETE, so only the chunks' events must
// have arrived.
func (r *run) verifyPost(ps *postSession) (*reference, error) {
	return r.checkSession(r.w.configs[ps.cfg], ps.src, ps.next, ps.sum, ps.events, false,
		fmt.Sprintf("slot %d incarnation %d (%s)", ps.slot, ps.inc, ps.id))
}
