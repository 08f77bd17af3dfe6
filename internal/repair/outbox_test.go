package repair

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/telemetry"
)

// fakePeer is one LWW replica behind the outbox, with the model of what the
// outbox owes it.
type fakePeer struct {
	store map[string]Update // what the replica holds
	want  map[string]Update // newest update handed to its box since it joined
	// handed is the step at which each version last entered its box; acked
	// lists the versions it acked, with the step.
	handed map[Entry]int
	acked  map[string][]ackAt
}

type ackAt struct {
	e    Entry
	step int
}

func newFakePeer() *fakePeer {
	return &fakePeer{store: map[string]Update{}, want: map[string]Update{},
		handed: map[Entry]int{}, acked: map[string][]ackAt{}}
}

func (p *fakePeer) hand(u Update, step int) {
	if w, ok := p.want[u.Meta.Key]; !ok || newer(u.Entry(), w.Entry()) {
		p.want[u.Meta.Key] = u
	}
	p.handed[u.Entry()] = step
}

// TestOutboxProperty feeds one seeded random sequence of operations to an
// outbox in front of three fake peers: queued and pushed updates with
// duplicate and out-of-order versions, hints, drains that fail whole or in
// part, and membership drops and re-adds (a re-added peer is a fresh
// replica). It checks that no version ships to a peer after a newer one,
// handed to that peer's box later than it, was acked there (a superseded
// entry never ships); that after every step the depth and hint levels match
// the boxes, and each member holds or is owed
// the newest version handed to it per key (an entry leaves its box only on
// an ack); and that once every peer answers again each member holds
// exactly that version. The outbox keeps
// no memory of acked entries, so an older version handed over after a newer
// one was acked does ship, and the replica drops it under LWW.
func TestOutboxProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"a", "b", "c"}
	peers := map[string]*fakePeer{}
	members := []string{}
	for _, n := range names {
		peers[n] = newFakePeer()
		members = append(members, n)
	}
	queued := map[string]Update{} // the model of the all-peers box
	m := NewMetrics(telemetry.NewRegistry(), "n", "r")
	o := NewOutbox[Update](true, m, nil)
	ctx := context.Background()
	step := 0
	down := map[string]bool{}

	mk := func() Update {
		key := fmt.Sprintf("k%d", rng.Intn(30))
		ver := int64(1 + rng.Intn(6))
		return Update{Meta: object.Meta{Key: key, Version: object.Version(ver),
			ModifiedAt: time.Unix(0, ver*10), Origin: "o"}, Data: []byte(fmt.Sprint(key, ver))}
	}
	send := func(_ context.Context, name string, us []*Update) []int {
		p := peers[name]
		var failed []int
		cut := len(us)
		if down[name] {
			cut = rng.Intn(len(us) + 1) // a chunk boundary where the RPC failed
		}
		if rng.Intn(4) == 0 { // an update for this peer arrives while the drain is in flight
			u := mk()
			p.hand(u, step)
			o.Hint(name, u)
		}
		for i, u := range us {
			for _, a := range p.acked[u.Meta.Key] {
				if newer(a.e, u.Entry()) && a.step > p.handed[u.Entry()] {
					t.Fatalf("step %d: %s shipped %+v after newer %+v was acked", step, name, u.Entry(), a.e)
				}
			}
			if i >= cut || rng.Intn(8) == 0 { // RPC failure, or the entry's apply failed
				failed = append(failed, i)
				continue
			}
			if cur, ok := p.store[u.Meta.Key]; !ok || newer(u.Entry(), cur.Entry()) {
				p.store[u.Meta.Key] = *u
			}
			p.acked[u.Meta.Key] = append(p.acked[u.Meta.Key], ackAt{u.Entry(), step})
		}
		return failed
	}
	spread := func() {
		for _, n := range names {
			if !slices.Contains(members, n) {
				peers[n] = newFakePeer() // dropped: if it returns, it is a fresh replica
			}
		}
		for _, u := range queued {
			for _, n := range members {
				peers[n].hand(u, step)
			}
		}
		clear(queued)
		o.Spread(members)
	}

	owed := func() {
		// The depth and hint levels match the boxes.
		keys, failed := map[string]bool{}, 0
		boxes := []*box[Update]{o.all}
		for _, b := range o.peers {
			boxes = append(boxes, b)
		}
		for _, b := range boxes {
			for slot, it := range b.items {
				keys[slot] = true
				if it.failed {
					failed++
				}
			}
		}
		if o.Len() != len(keys) || int(m.HintsPending.Value()) != failed {
			t.Fatalf("step %d: depth %d, hints %v; the boxes hold %d keys, %d failed",
				step, o.Len(), m.HintsPending.Value(), len(keys), failed)
		}
		for _, n := range members {
			p := peers[n]
			for key, w := range p.want {
				if got, ok := p.store[key]; ok && !newer(w.Entry(), got.Entry()) {
					continue
				}
				if b := o.peers[n]; b != nil {
					if it, ok := b.items[key]; ok && !newer(w.Entry(), it.u.Entry()) {
						continue
					}
				}
				t.Fatalf("step %d: %s neither holds nor is owed %+v", step, n, w.Entry())
			}
		}
	}

	for step = 1; step <= 5000; step++ {
		switch r := rng.Intn(100); {
		case r < 35:
			u := mk()
			if q, ok := queued[u.Meta.Key]; !ok || newer(u.Entry(), q.Entry()) {
				queued[u.Meta.Key] = u
			}
			o.Queue(u)
		case r < 50 && len(members) > 0:
			name, u := members[rng.Intn(len(members))], mk()
			peers[name].hand(u, step)
			if o.Push(name, u) {
				o.Run(ctx, name, send)
			}
		case r < 58 && len(members) > 0:
			name, u := members[rng.Intn(len(members))], mk()
			peers[name].hand(u, step)
			o.Hint(name, u)
		case r < 70:
			spread()
		case r < 88 && len(members) > 0:
			o.Drain(ctx, members[rng.Intn(len(members))], send)
		case r < 94:
			name := names[rng.Intn(len(names))]
			down[name] = !down[name]
		default:
			name := names[rng.Intn(len(names))]
			if i := slices.Index(members, name); i >= 0 {
				members = slices.Delete(members, i, i+1)
			} else {
				members = append(members, name)
			}
		}
		owed()
	}

	clear(down)
	for round := 0; o.Len() > 0; round++ {
		if round == 50 {
			t.Fatalf("outbox still holds %d keys after %d clean drains", o.Len(), round)
		}
		spread()
		for _, n := range members {
			o.Drain(ctx, n, send)
		}
	}
	if got := m.HintsPending.Value(); got != 0 {
		t.Fatalf("hints = %v on an empty outbox", got)
	}
	for _, n := range members {
		p := peers[n]
		if len(p.store) != len(p.want) {
			t.Fatalf("%s holds %d keys, want %d", n, len(p.store), len(p.want))
		}
		for key, w := range p.want {
			if got := p.store[key]; got.Entry() != w.Entry() || string(got.Data) != string(w.Data) {
				t.Fatalf("%s holds %+v for %s, want %+v", n, got.Entry(), key, w.Entry())
			}
		}
	}
}

// TestOutboxConcurrent races writers, immediate drains, flushes and peers
// that fail at random on one outbox with a fixed membership, then checks
// that a final clean flush leaves every peer holding the newest version
// handed over for it per key. Run it under -race.
func TestOutboxConcurrent(t *testing.T) {
	peers := []string{"a", "b"}
	var mu sync.Mutex
	store := map[string]map[string]Update{"a": {}, "b": {}}
	want := map[string]map[string]Update{"a": {}, "b": {}}
	keep := func(m map[string]Update, u Update) {
		if cur, ok := m[u.Meta.Key]; !ok || newer(u.Entry(), cur.Entry()) {
			m[u.Meta.Key] = u
		}
	}
	var healthy atomic.Bool
	send := func(_ context.Context, peer string, us []*Update) []int {
		mu.Lock()
		defer mu.Unlock()
		var failed []int
		for i, u := range us {
			if !healthy.Load() && (u.Meta.Version%3 == 0 || i > 3) {
				failed = append(failed, i)
				continue
			}
			keep(store[peer], *u)
		}
		return failed
	}
	o := NewOutbox[Update](true, NewMetrics(nil, "", ""), nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(20))
				ver := int64(1 + rng.Intn(50))
				u := Update{Meta: object.Meta{Key: key, Version: object.Version(ver),
					ModifiedAt: time.Unix(0, ver), Origin: fmt.Sprint(w)}}
				peer := peers[rng.Intn(len(peers))]
				switch rng.Intn(5) {
				case 0, 1:
					mu.Lock()
					keep(want["a"], u)
					keep(want["b"], u)
					mu.Unlock()
					o.Queue(u)
				case 2:
					mu.Lock()
					keep(want[peer], u)
					mu.Unlock()
					if o.Push(peer, u) {
						wg.Add(1)
						go func() { defer wg.Done(); o.Run(ctx, peer, send) }()
					}
				case 3:
					mu.Lock()
					keep(want[peer], u)
					mu.Unlock()
					o.Hint(peer, u)
				default:
					o.Spread(peers)
					o.Drain(ctx, peer, send)
				}
			}
		}(w)
	}
	wg.Wait()
	healthy.Store(true)
	o.Spread(peers)
	for _, p := range peers {
		o.Drain(ctx, p, send)
	}
	if o.Len() != 0 {
		t.Fatalf("outbox holds %d keys after a clean flush", o.Len())
	}
	for _, p := range peers {
		for key, w := range want[p] {
			if got := store[p][key]; got.Entry() != w.Entry() {
				t.Fatalf("%s holds %+v for %s, want %+v", p, got.Entry(), key, w.Entry())
			}
		}
	}
}
