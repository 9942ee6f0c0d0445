package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// A serving run is a warm-up followed by rounds of [nominal, hi,
// saturation] segments. Each phase's total is a fixed share of -seconds
// (3/31 warm-up, 12/31 nominal, 8/31 hi, 8/31 saturation); splitting
// the measured phases into rounds spreads every metric's windows over the
// whole run. The host's speed drifts by tens of percent over tens of
// seconds; a metric measured in one contiguous stretch took whatever
// speed that stretch had, and moved with it from run to run.
const rounds = 4

// perSegment is how many of a phase's windows fall in each of its
// segments.
const perSegment = windows / rounds

// A segment is one contiguous stretch of one phase.
type segment struct {
	p          phase
	start      time.Time
	dur        time.Duration
	end        time.Time // when the last sender finished
	serverCPU  [2]time.Duration
	clientCPU  [2]time.Duration
	scrapes    [2]*scrape // traced runs only
	nthOfPhase int
}

func schedule(seconds float64) []*segment {
	segs := []*segment{{p: phWarm, dur: phaseLen(seconds, phWarm)}}
	for i := 0; i < rounds; i++ {
		for _, p := range []phase{phNominal, phHi, phSat} {
			segs = append(segs, &segment{p: p, dur: phaseLen(seconds, p) / rounds, nthOfPhase: i})
		}
	}
	return segs
}

// window returns which of phase p's windows t falls in, or -1.
func (r *run) window(p phase, t time.Time) int {
	for _, s := range r.segs {
		if s.p != p || t.Before(s.start) {
			continue
		}
		if d := t.Sub(s.start); d < s.dur {
			return s.nthOfPhase*perSegment + int(int64(perSegment)*int64(d)/int64(s.dur))
		}
	}
	return -1
}

// windowLen is the length of one of phase p's windows.
func (r *run) windowLen(p phase) time.Duration { return phaseLen(r.seconds, p) / windows }

// A sender is one client connection's load generator.
type sender interface {
	// sendOne sends the next chunk, which was due at due, waits for the
	// server's reply and files the chunk's timing under phase p. ready is
	// when the sender was free to send it. It returns when the sender is
	// free again.
	sendOne(p phase, due, ready time.Time) (done time.Time, err error)
	// saturate sends closed loop, as fast as the server acks.
	saturate(start time.Time, dur time.Duration) error
}

// openLoop drives one sender on a fixed schedule: chunk k is due at
// start + k*interval and is sent when due, or as soon as the previous
// request returns if that is later. Chunks still unsent a tenth of the
// segment after it ends are abandoned, and count against the phase's
// ack ratio.
func (r *run) openLoop(sd sender, p phase, start time.Time, dur, interval time.Duration) error {
	end := start.Add(dur)
	hard := end.Add(dur / 10)
	var prev time.Time
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			return nil
		}
		r.scheduled[p].Add(1)
		if time.Now().After(hard) {
			continue
		}
		sleepUntil(due)
		ready := due
		if prev.After(due) {
			ready = prev
		}
		done, err := sd.sendOne(p, due, ready)
		if err != nil {
			return err
		}
		prev = done
	}
}

// runPhases runs every segment, each sender on its own goroutine. The
// fixed-rate schedules of the senders interleave, so the server sees an
// even gap between chunks. After each segment, with the measured server
// idle, it makes one more timed cold start (r.spareStart): set-up time
// is sampled across the whole run, as every other metric is.
func (r *run) runPhases(ctx context.Context, srv *server, senders []sender) error {
	r.segs = schedule(r.seconds)
	for _, s := range r.segs {
		if err := r.beginSegment(srv, s); err != nil {
			return err
		}
		s.start = time.Now().Add(2 * time.Millisecond)
		errs := make([]error, len(senders)+1)
		var wg sync.WaitGroup
		if s.p != phWarm {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[len(senders)] = r.sampleWindows(srv, s)
			}()
		}
		for i, sd := range senders {
			wg.Add(1)
			go func(i int, sd sender) {
				defer wg.Done()
				if s.p == phSat {
					errs[i] = sd.saturate(s.start, s.dur)
					return
				}
				iv := r.interval(s.p)
				errs[i] = r.openLoop(sd, s.p, s.start.Add(iv*time.Duration(i)/time.Duration(len(senders))), s.dur, iv)
			}(i, sd)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if err := r.endSegment(srv, s); err != nil {
			return err
		}
		if err := r.spareStart(ctx); err != nil {
			return err
		}
		if s.p == phHi && s.nthOfPhase == 0 {
			// The high-water mark before the first saturation segment:
			// until then the work is set by the schedule, where
			// saturation's grows with the server's speed.
			rss, err := peakRSS(srv.cmd.Process.Pid)
			if err != nil {
				return err
			}
			r.peakRSS = rss
		}
	}
	return nil
}

// beginSegment reads the CPU clocks (and, traced, the server's counters)
// before a segment.
func (r *run) beginSegment(srv *server, s *segment) error {
	if r.traced {
		sc, err := srv.scrape(r.client)
		if err != nil {
			return fmt.Errorf("scraping before %s: %w", phaseNames[s.p], err)
		}
		s.scrapes[0] = sc
	}
	cpu, err := srv.cpu()
	if err != nil {
		return err
	}
	s.serverCPU[0], s.clientCPU[0] = cpu, selfCPU()
	return nil
}

// endSegment reads the same clocks after the segment, and for a traced
// stream run pairs the segment's chunks with the server's flight traces.
func (r *run) endSegment(srv *server, s *segment) error {
	s.end = time.Now()
	cpu, err := srv.cpu()
	if err != nil {
		return err
	}
	s.serverCPU[1], s.clientCPU[1] = cpu, selfCPU()
	if !r.traced {
		return nil
	}
	sc, err := srv.scrape(r.client)
	if err != nil {
		return fmt.Errorf("scraping after %s: %w", phaseNames[s.p], err)
	}
	s.scrapes[1] = sc
	if r.streams != nil && (s.p == phNominal || s.p == phHi) {
		return r.collectFlight(srv, s.p)
	}
	return nil
}

// sampleWindows reads the host's steal clock, and in a nominal segment
// the server's CPU clock, at every window boundary of a measured
// segment. Millisecond sleep precision is plenty here.
func (r *run) sampleWindows(srv *server, s *segment) error {
	var prevCPU, prevSteal time.Duration
	for k := 0; k <= perSegment; k++ {
		time.Sleep(time.Until(s.start.Add(s.dur * time.Duration(k) / perSegment)))
		steal, err := hostSteal()
		if err != nil {
			return err
		}
		var cpu time.Duration
		if s.p == phNominal {
			if cpu, err = srv.cpu(); err != nil {
				return err
			}
		}
		if w := s.nthOfPhase*perSegment + k - 1; k > 0 {
			r.stealWin[s.p][w] = steal - prevSteal
			r.cpuWin[w] += cpu - prevCPU
		}
		prevCPU, prevSteal = cpu, steal
	}
	return nil
}

// phaseDelta sums f(after) - f(before) over the phase's segments.
func (r *run) phaseDelta(p phase, f func(*scrape) float64) float64 {
	var d float64
	for _, s := range r.segs {
		if s.p == p && s.scrapes[0] != nil && s.scrapes[1] != nil {
			d += f(s.scrapes[1]) - f(s.scrapes[0])
		}
	}
	return d
}

// measuredDelta is a counter's growth over all the measured segments.
func (r *run) measuredDelta(name string) float64 {
	var d float64
	for p := phNominal; p < numPhases; p++ {
		d += r.phaseDelta(p, func(sc *scrape) float64 { return sc.Counters[name] })
	}
	return d
}

// utilization is each phase's CPU time per wall second, of the server
// and of the benchmark process.
func (r *run) utilization() map[string][2]float64 {
	out := map[string][2]float64{}
	for p := phWarm; p < numPhases; p++ {
		var wall float64
		var u [2]float64
		for _, s := range r.segs {
			if s.p == p {
				wall += s.end.Sub(s.start).Seconds()
				u[0] += (s.serverCPU[1] - s.serverCPU[0]).Seconds()
				u[1] += (s.clientCPU[1] - s.clientCPU[0]).Seconds()
			}
		}
		if wall > 0 {
			out[phaseNames[p]] = [2]float64{u[0] / wall, u[1] / wall}
		}
	}
	return out
}
