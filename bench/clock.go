// Package bench is the repository's benchmark: fixed-op-count workloads
// driven through the exported APIs of every layer, on a substrate whose
// simulated latency costs nothing but is still counted. See README.md.
package bench

import (
	"sync/atomic"
	"time"
)

// Clock is the benchmark's zero-latency clock. Now, Since and After are
// real time, so background periods (queue flush, monitors, scans) run at
// their configured real rate and never spin; Sleep returns at once and
// only adds to a counter, so simulated WAN and tier latency costs no wall
// time yet stays visible as simnet.sim_wait_ms_per_op.
//
// A clock.Scaled is deliberately not used: it compresses background
// timers too, and with ~1 ms sleep granularity a scaled run measures the
// timer instead of the code.
type Clock struct {
	slept atomic.Int64 // total simulated sleep, ns
}

// Now implements clock.Clock.
func (*Clock) Now() time.Time { return time.Now() }

// Since implements clock.Clock.
func (*Clock) Since(t time.Time) time.Duration { return time.Since(t) }

// After implements clock.Clock.
func (*Clock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements clock.Clock: it records d and returns immediately.
func (c *Clock) Sleep(d time.Duration) {
	if d > 0 {
		c.slept.Add(int64(d))
	}
}

// Slept reports the total simulated latency the substrate would have
// charged so far.
func (c *Clock) Slept() time.Duration { return time.Duration(c.slept.Load()) }
