package main

import (
	"syscall"
	"time"
)

// sleepUntil waits for an open-loop send time. time.Sleep cannot: on
// Linux the runtime's timers wake through epoll with millisecond
// resolution, which made the generator run ~0.5ms late at every
// sub-millisecond interval. nanosleep blocks only this goroutine's
// thread and wakes tens of microseconds late, steadily; that lateness
// is reported as send lag and counted in every latency, which is timed
// from the due time. (Waking early and spinning to the due time instead
// stole the load generator's CPU from the goroutine reading acks.)
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR ends the sleep early; loop
	}
}
