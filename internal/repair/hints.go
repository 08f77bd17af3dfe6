package repair

import (
	"bytes"
	"sync"
)

// HintLog holds updates that failed to reach a peer, keyed (peer, key)
// with last-writer-wins supersession: a newer version of a key replaces an
// older queued hint, so a hot key partitioned away accumulates exactly one
// hint per peer. Hints live in memory only; a crash loses them and the
// Merkle sync plus respawn bootstrap cover the gap. Safe for concurrent use.
type HintLog struct {
	mu      sync.Mutex
	pending map[string]map[string]Update // peer -> key -> queued update
	metrics *Metrics
}

// NewHintLog returns an empty log reporting the pending gauge through
// metrics (may be nil).
func NewHintLog(metrics *Metrics) *HintLog {
	return &HintLog{pending: make(map[string]map[string]Update), metrics: metrics}
}

// count is the total queued hint count; callers hold l.mu.
func (l *HintLog) count() int {
	n := 0
	for _, m := range l.pending {
		n += len(m)
	}
	return n
}

// gauge publishes the pending count; callers hold l.mu.
func (l *HintLog) gauge() {
	if l.metrics != nil {
		l.metrics.HintsPending.Set(float64(l.count()))
	}
}

// Add queues a copy of u for peer unless an equal-or-newer hint for the
// same key is already queued. Returns whether the hint was recorded. The
// copy is deep: u.Data may alias a receive buffer the caller reuses.
func (l *HintLog) Add(peer string, u Update) bool {
	e := u.Entry()
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.pending[peer]
	if old, ok := m[e.Key]; ok && !newer(e, old.Entry()) {
		return false
	}
	if m == nil {
		m = make(map[string]Update)
		l.pending[peer] = m
	}
	m[e.Key] = Update{Meta: u.Meta.Clone(), Data: bytes.Clone(u.Data)}
	l.gauge()
	return true
}

// Pending returns the total queued hint count.
func (l *HintLog) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count()
}

// PendingFor returns the queued hint count for one peer.
func (l *HintLog) PendingFor(peer string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending[peer])
}

// PeersWithHints lists peers that currently have queued hints.
func (l *HintLog) PeersWithHints() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.pending))
	for p, m := range l.pending {
		if len(m) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// take returns up to limit hints queued for peer. Queued updates are never
// mutated, so the batch shares their slices with the log.
func (l *HintLog) take(peer string, limit int) []Update {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Update, 0, min(limit, len(l.pending[peer])))
	for _, u := range l.pending[peer] {
		if len(out) == limit {
			break
		}
		out = append(out, u)
	}
	return out
}

// ack removes delivered hints unless a newer version was queued while the
// replay was in flight.
func (l *HintLog) ack(peer string, delivered []Update) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, u := range delivered {
		e := u.Entry()
		cur, ok := l.pending[peer][e.Key]
		if !ok || newer(cur.Entry(), e) {
			continue
		}
		delete(l.pending[peer], e.Key)
	}
	l.gauge()
}

// ReplayFor drains peer's queue through push (typically PeerClient.Push) in
// batches, stopping on the first error. It returns how many hints were
// delivered and acknowledged.
func (l *HintLog) ReplayFor(peer string, push func([]Update) (int, error)) (int, error) {
	replayed := 0
	for {
		batch := l.take(peer, pullBatch)
		if len(batch) == 0 {
			return replayed, nil
		}
		if _, err := push(batch); err != nil {
			return replayed, err
		}
		l.ack(peer, batch)
		replayed += len(batch)
		if l.metrics != nil {
			l.metrics.HintsReplayed.Add(int64(len(batch)))
			var size int64
			for _, u := range batch {
				size += updateWireSize(u)
			}
			l.metrics.BytesReplayed.Add(size)
		}
	}
}

// DropPeer discards every hint queued for peer (it left the membership),
// returning how many were dropped.
func (l *HintLog) DropPeer(peer string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.pending[peer]
	delete(l.pending, peer)
	if l.metrics != nil && len(m) > 0 {
		l.metrics.HintsDropped.Add(int64(len(m)))
	}
	l.gauge()
	return len(m)
}
