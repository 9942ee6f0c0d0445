package faultinject

import "sync"

// DiskChaos is an armable disk-fault injector matching the
// durable.Options.Hook seam: wire its Hook method into a Store's
// options and every WAL append, fsync, and snapshot write consults it
// first. Disarmed (the zero state) it always permits the operation;
// armed, it fails the selected operations with the configured error.
// Arming and healing are safe concurrently with hook calls, so a chaos
// soak can flap the "disk" under live traffic.
type DiskChaos struct {
	mu       sync.Mutex
	err      error
	ops      map[string]bool // nil while armed means every op fails
	failures int64
}

// NewDiskChaos returns a disarmed injector.
func NewDiskChaos() *DiskChaos { return &DiskChaos{} }

// Fail arms the injector: the named operations ("append", "fsync",
// "snapshot", "truncate") fail with err until Heal. No names means all
// operations fail.
func (c *DiskChaos) Fail(err error, ops ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.err = err
	c.ops = nil
	if len(ops) > 0 {
		c.ops = make(map[string]bool, len(ops))
		for _, op := range ops {
			c.ops[op] = true
		}
	}
}

// Heal disarms the injector: subsequent operations succeed.
func (c *DiskChaos) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.err = nil
	c.ops = nil
}

// Hook is the durable.Options.Hook implementation.
func (c *DiskChaos) Hook(op string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil || (c.ops != nil && !c.ops[op]) {
		return nil
	}
	c.failures++
	return c.err
}

// Failures reports how many operations the injector has failed.
func (c *DiskChaos) Failures() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures
}
