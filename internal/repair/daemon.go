package repair

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/watch"
)

// Daemon runs the background anti-entropy loop for one replica: each round
// it runs one Merkle sync session against the next peer in round-robin
// order, and records a repair.cycle event (attributed to scope, typically
// the replica name) on journal, which may be nil, when it repaired keys.
type Daemon struct {
	clk     clock.Clock
	store   Store
	cluster Cluster
	geo     Geometry
	period  time.Duration
	metrics *Metrics
	journal *watch.Journal
	scope   string

	mu       sync.Mutex
	next     int // round-robin cursor over cluster.Peers()
	quit     chan struct{}
	stopOnce sync.Once
}

// NewDaemon assembles a daemon that runs a round every period (positive);
// Start launches it.
func NewDaemon(clk clock.Clock, store Store, cluster Cluster, geo Geometry, period time.Duration,
	metrics *Metrics, journal *watch.Journal, scope string) *Daemon {
	return &Daemon{
		clk: clk, store: store, cluster: cluster, geo: geo.normalize(), period: period,
		metrics: metrics, journal: journal, scope: scope,
		quit: make(chan struct{}),
	}
}

// Start launches the background loop; Stop ends it.
func (d *Daemon) Start() {
	go func() {
		for {
			select {
			case <-d.quit:
				return
			case <-d.clk.After(d.period):
				d.RunOnce()
			}
		}
	}()
}

func (d *Daemon) Stop() { d.stopOnce.Do(func() { close(d.quit) }) }

// RunOnce performs one anti-entropy round and returns the sync session's
// stats (zero when no peer was available).
func (d *Daemon) RunOnce() Stats {
	peers := d.cluster.Peers()
	if len(peers) == 0 {
		return Stats{}
	}
	d.mu.Lock()
	peer := peers[d.next%len(peers)]
	d.next++
	d.mu.Unlock()
	d.metrics.Sessions.Inc()
	st, _ := Sync(d.store, d.cluster.Client(peer), d.geo) // an unreachable peer waits for a later round
	d.metrics.DigestRounds.Add(int64(st.Rounds))
	d.metrics.KeysRepaired.Add(int64(st.KeysRepaired))
	d.metrics.SyncBytes.Add(st.TotalBytes())
	if st.KeysRepaired > 0 {
		d.journal.Record("repair.cycle", d.scope,
			fmt.Sprintf("repaired %d keys from %s (%d digest rounds, %d bytes)",
				st.KeysRepaired, peer, st.Rounds, st.TotalBytes()),
			map[string]string{"peer": peer, "keys": fmt.Sprintf("%d", st.KeysRepaired)})
	}
	return st
}
