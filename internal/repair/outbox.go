package repair

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/telemetry"
)

// Shipment is what an outbox carries: an update that knows its LWW summary
// and its encoded size.
type Shipment interface {
	Entry() Entry
	WireSize() int
}

// Outbox keeps, for each peer, the newest update per key that the peer has
// not acked: the paper's queue response (Sec 3.2.3), the coalescing buffer
// of single-peer pushes and the hinted-handoff log in one structure. A
// strictly newer version (LWW) replaces a queued one, which then never
// ships. An entry leaves only when its peer acks it or leaves the
// membership. Updates queued for all peers wait until Spread hands them to
// the members of that moment, so a replica respawned after the enqueue
// still receives them; the members' boxes share one copy of each. The
// outbox does not copy the updates' buffers: whoever hands an update over
// must not modify them again. Entries live in memory; Merkle sync and a
// respawned replica's bootstrap cover a crash.
type Outbox[U Shipment] struct {
	supersede bool
	metrics   *Metrics
	depth     *telemetry.Gauge

	mu    sync.Mutex
	all   *box[U]            // queued for whoever is a member at the next Spread
	peers map[string]*box[U] // per-peer entries
	keys  map[string]int     // slot -> boxes holding it; len is the queue depth
	hints int                // entries whose last attempt failed
}

// box is one destination's entries by slot.
type box[U Shipment] struct {
	items map[string]item[U]
	added int        // bumped by every insert, so Run sees what arrived meanwhile
	busy  bool       // Run is draining the box
	send  sync.Mutex // one drain at a time, so no entry is in flight twice
}

// item is one entry. Once queued, nothing writes the update but Queue's
// in-place supersession in the shared box, so peer boxes share it.
type item[U Shipment] struct {
	u      *U
	failed bool // the last attempt to ship u failed
}

// Sender ships us to peer and returns the ascending indices of the updates
// the peer did not ack. It must not modify the updates.
type Sender[U Shipment] func(ctx context.Context, peer string, us []*U) (failed []int)

// NewOutbox returns an empty outbox; supersede=false keeps every update (the
// ablation baseline). depth, the queue-depth gauge, may be nil.
func NewOutbox[U Shipment](supersede bool, metrics *Metrics, depth *telemetry.Gauge) *Outbox[U] {
	return &Outbox[U]{supersede: supersede, metrics: metrics, depth: depth,
		all: newBox[U](), peers: map[string]*box[U]{}, keys: map[string]int{}}
}

func newBox[U Shipment]() *box[U] { return &box[U]{items: map[string]item[U]{}} }

// Queue adds u for every peer that is a member at the next Spread.
func (o *Outbox[U]) Queue(u U) {
	o.mu.Lock()
	defer o.mu.Unlock()
	slot := o.slot(u)
	if it, ok := o.all.items[slot]; ok {
		// Until Spread no peer box holds the shared box's updates, so a
		// newer version overwrites in place.
		if newer(u.Entry(), (*it.u).Entry()) {
			*it.u = u
		}
		return
	}
	o.put(o.all, slot, item[U]{u: ref(u)})
	o.gauge()
}

// Push adds u for peer and reports whether the caller must start Run for
// peer; otherwise the running one ships u.
func (o *Outbox[U]) Push(peer string, u U) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	b := o.box(peer)
	o.put(b, o.slot(u), item[U]{u: ref(u)})
	o.gauge()
	start := !b.busy
	b.busy = true
	return start
}

// Hint keeps u for peer after a direct delivery failed.
func (o *Outbox[U]) Hint(peer string, u U) {
	o.mu.Lock()
	o.put(o.box(peer), o.slot(u), item[U]{u: ref(u), failed: true})
	o.gauge()
	o.mu.Unlock()
}

func ref[U any](u U) *U { return &u }

// Spread drops the boxes of peers that are not members, hands every update
// queued for all peers to each member's box and returns those updates.
func (o *Outbox[U]) Spread(members []string) []*U {
	o.mu.Lock()
	defer o.mu.Unlock()
	for peer, b := range o.peers {
		if !slices.Contains(members, peer) {
			o.metrics.HintsDropped.Add(int64(len(b.items)))
			o.empty(b)
			delete(o.peers, peer)
		}
	}
	queued := make([]*U, 0, len(o.all.items))
	for slot, it := range o.all.items {
		queued = append(queued, it.u)
		for _, p := range members {
			o.put(o.box(p), slot, it)
		}
	}
	o.empty(o.all)
	o.gauge()
	return queued
}

// Drain ships peer's entries through send once and returns how many it
// shipped and how many of those the peer did not ack. Acked entries leave
// unless a newer version replaced them meanwhile; the others stay, marked
// failed.
func (o *Outbox[U]) Drain(ctx context.Context, peer string, send Sender[U]) (sent, failed int) {
	o.mu.Lock()
	b := o.peers[peer]
	o.mu.Unlock()
	if b == nil {
		return 0, 0
	}
	b.send.Lock()
	defer b.send.Unlock()
	o.mu.Lock()
	us := make([]*U, 0, len(b.items))
	for _, it := range b.items {
		us = append(us, it.u)
	}
	o.mu.Unlock()
	if len(us) == 0 {
		return 0, 0
	}
	bad := send(ctx, peer, us)
	failed = len(bad)

	o.mu.Lock()
	defer o.mu.Unlock()
	for i, u := range us {
		nack := len(bad) > 0 && bad[0] == i
		if nack {
			bad = bad[1:]
		}
		slot := o.slot(*u)
		cur, ok := b.items[slot]
		if !ok || cur.u != u {
			continue // dropped, or replaced by a newer version
		}
		switch {
		case nack && !cur.failed:
			cur.failed = true
			b.items[slot] = cur
			o.hints++
		case !nack:
			if cur.failed {
				o.metrics.HintsReplayed.Inc()
				o.metrics.BytesReplayed.Add(int64((*u).WireSize()))
			}
			delete(b.items, slot)
			o.release(slot, cur)
		}
	}
	o.gauge()
	return len(us), failed
}

// Run drains peer's box until a pass fails or nothing arrived during it.
func (o *Outbox[U]) Run(ctx context.Context, peer string, send Sender[U]) {
	o.mu.Lock()
	b := o.box(peer)
	for {
		added := b.added
		o.mu.Unlock()
		_, failed := o.Drain(ctx, peer, send)
		o.mu.Lock()
		if failed > 0 || b.added == added {
			b.busy = false
			o.mu.Unlock()
			return
		}
	}
}

// Len is the queue depth: how many distinct keys have entries.
func (o *Outbox[U]) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.keys)
}

// The helpers below run under o.mu, which also orders the gauge updates:
// every exported method that changes entries calls gauge before unlocking.

// slot names u's entry: its key, or its whole LWW tuple when supersession
// is off, so every version keeps its own entry.
func (o *Outbox[U]) slot(u U) string {
	e := u.Entry()
	if o.supersede {
		return e.Key
	}
	return fmt.Sprintf("%q %d %d %q", e.Key, e.Version, e.Mtime, e.Origin)
}

func (o *Outbox[U]) box(peer string) *box[U] {
	b := o.peers[peer]
	if b == nil {
		b = newBox[U]()
		o.peers[peer] = b
	}
	return b
}

// put stores it under slot in b unless b holds an equal or newer version.
func (o *Outbox[U]) put(b *box[U], slot string, it item[U]) {
	if cur, ok := b.items[slot]; ok {
		if !newer((*it.u).Entry(), (*cur.u).Entry()) {
			return
		}
		if cur.failed {
			o.hints--
		}
	} else {
		o.keys[slot]++
	}
	b.items[slot] = it
	if it.failed {
		o.hints++
	}
	b.added++
}

// empty forgets every entry of b.
func (o *Outbox[U]) empty(b *box[U]) {
	for slot, it := range b.items {
		o.release(slot, it)
	}
	clear(b.items)
}

// release drops the accounting of it, which left its box.
func (o *Outbox[U]) release(slot string, it item[U]) {
	if o.keys[slot]--; o.keys[slot] == 0 {
		delete(o.keys, slot)
	}
	if it.failed {
		o.hints--
	}
}

func (o *Outbox[U]) gauge() {
	o.depth.Set(float64(len(o.keys)))
	o.metrics.HintsPending.Set(float64(o.hints))
}
