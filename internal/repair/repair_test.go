package repair

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/object"
	"repro/internal/telemetry"
)

// memStore is a minimal LWW replica for engine tests.
type memStore struct {
	mu sync.Mutex
	m  map[string]Update
}

func newMemStore() *memStore { return &memStore{m: make(map[string]Update)} }

func (s *memStore) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.m))
	for _, u := range s.m {
		out = append(out, u.Entry())
	}
	return out
}

func (s *memStore) Load(key string) (Update, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.m[key]
	return u, ok
}

func (s *memStore) Apply(u Update) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[u.Meta.Key]; ok && !newer(u.Entry(), old.Entry()) {
		return false
	}
	s.m[u.Meta.Key] = u
	return true
}

func (s *memStore) put(key string, version int64, mtime int64, origin string, data []byte) {
	s.Apply(Update{Meta: object.Meta{
		Key: key, Version: object.Version(version), Origin: origin,
		ModifiedAt: time.Unix(0, mtime), Size: int64(len(data)),
	}, Data: data})
}

func (s *memStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// equalStores reports whether both replicas hold identical (version, mtime,
// origin) sets.
func equalStores(a, b *memStore) bool {
	ea, eb := a.Entries(), b.Entries()
	if len(ea) != len(eb) {
		return false
	}
	bk := make(map[string]Entry, len(eb))
	for _, e := range eb {
		bk[e.Key] = e
	}
	for _, e := range ea {
		o, ok := bk[e.Key]
		if !ok || o != e {
			return false
		}
	}
	return true
}

func TestGeometry(t *testing.T) {
	g := Geometry{Fanout: 4, Depth: 2}
	if got := g.Leaves(); got != 16 {
		t.Fatalf("Leaves = %d, want 16", got)
	}
	if got := g.LeafStart(); got != 5 {
		t.Fatalf("LeafStart = %d, want 5", got)
	}
	if got := g.Nodes(); got != 21 {
		t.Fatalf("Nodes = %d, want 21", got)
	}
	kids := g.Children(0)
	if len(kids) != 4 || kids[0] != 1 || kids[3] != 4 {
		t.Fatalf("Children(0) = %v", kids)
	}
	if g.Children(5) != nil {
		t.Fatal("leaf must have no children")
	}
	for _, key := range []string{"a", "b", "zzz"} {
		l := g.Leaf(key)
		if l < 0 || l >= 16 {
			t.Fatalf("Leaf(%q) = %d out of range", key, l)
		}
	}
}

func TestTreeDetectsAnyFieldChange(t *testing.T) {
	geo := Geometry{Fanout: 4, Depth: 2}
	base := []Entry{{Key: "k1", Version: 1, Mtime: 10, Origin: "a"}, {Key: "k2", Version: 3, Mtime: 20, Origin: "b"}}
	root := func(es []Entry) uint64 {
		d, err := BuildTree(geo, es).Digest(0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	r0 := root(base)
	// Order independence within leaves.
	if r0 != root([]Entry{base[1], base[0]}) {
		t.Fatal("tree digest must be entry-order independent")
	}
	variants := [][]Entry{
		{{Key: "k1", Version: 2, Mtime: 10, Origin: "a"}, base[1]},
		{{Key: "k1", Version: 1, Mtime: 11, Origin: "a"}, base[1]},
		{{Key: "k1", Version: 1, Mtime: 10, Origin: "c"}, base[1]},
		{base[0]},
		{base[0], base[1], {Key: "k3", Version: 1, Mtime: 5, Origin: "a"}},
	}
	for i, v := range variants {
		if root(v) == r0 {
			t.Fatalf("variant %d did not change the root digest", i)
		}
	}
}

func TestTreeBoundsChecked(t *testing.T) {
	tr := BuildTree(Geometry{Fanout: 4, Depth: 2}, nil)
	if _, err := tr.Digest(21); err == nil {
		t.Fatal("out-of-range digest must error")
	}
	if _, err := tr.LeafEntries([]int{16}); err == nil {
		t.Fatal("out-of-range leaf must error")
	}
}

func TestSyncConvergesDivergedReplicas(t *testing.T) {
	a, b := newMemStore(), newMemStore()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%04d", i)
		a.put(key, 1, 100, "a", []byte("v1"))
		b.put(key, 1, 100, "a", []byte("v1"))
	}
	// Diverge both ways: a holds newer versions of some keys, b of others,
	// and each holds keys the other lacks.
	for i := 0; i < 20; i++ {
		a.put(fmt.Sprintf("key-%04d", i), 2, 200, "a", []byte("v2a"))
		b.put(fmt.Sprintf("key-%04d", 100+i), 2, 200, "b", []byte("v2b"))
	}
	a.put("only-a", 1, 50, "a", []byte("x"))
	b.put("only-b", 1, 60, "b", []byte("y"))

	st, err := Sync(a, LocalPeer{S: b}, Geometry{Fanout: 8, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !equalStores(a, b) {
		t.Fatal("replicas did not converge after one session")
	}
	if st.KeysRepaired != 42 { // 20 pulls + 20 pushes + only-a + only-b
		t.Fatalf("KeysRepaired = %d, want 42", st.KeysRepaired)
	}
	if st.Rounds < 1 || st.LeavesDiverged == 0 {
		t.Fatalf("stats look wrong: %+v", st)
	}
	// A second session finds nothing.
	st2, err := Sync(a, LocalPeer{S: b}, Geometry{Fanout: 8, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st2.KeysRepaired != 0 || st2.Rounds != 1 {
		t.Fatalf("converged replicas resynced: %+v", st2)
	}
}

func TestSyncIdenticalReplicasSingleRound(t *testing.T) {
	a, b := newMemStore(), newMemStore()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		a.put(key, 1, int64(i), "o", nil)
		b.put(key, 1, int64(i), "o", nil)
	}
	st, err := Sync(a, LocalPeer{S: b}, DefaultGeometry)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 1 || st.KeysPulled+st.KeysPushed != 0 {
		t.Fatalf("identical replicas should stop at the root: %+v", st)
	}
}

func TestSyncBeatsFullExchangeAt10kKeys(t *testing.T) {
	a, b := newMemStore(), newMemStore()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("object/%05d", i)
		a.put(key, 1, 1000, "seed", []byte("payload-payload-payload"))
		b.put(key, 1, 1000, "seed", []byte("payload-payload-payload"))
	}
	for i := 0; i < 100; i++ {
		a.put(fmt.Sprintf("object/%05d", i*37), 2, 2000, "a", []byte("fresh"))
	}
	st, err := Sync(a, LocalPeer{S: b}, DefaultGeometry)
	if err != nil {
		t.Fatal(err)
	}
	if !equalStores(a, b) {
		t.Fatal("not converged")
	}
	if st.TotalBytes() >= st.FullSyncBytes {
		t.Fatalf("digest sync (%d B) must beat full exchange (%d B)", st.TotalBytes(), st.FullSyncBytes)
	}
	if st.TotalBytes() > st.FullSyncBytes/4 {
		t.Fatalf("expected >=4x savings at 1%% divergence: merkle=%d full=%d", st.TotalBytes(), st.FullSyncBytes)
	}
}

// pending counts peer's entries in o.
func pending(o *Outbox[Update], peer string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if b := o.peers[peer]; b != nil {
		return len(b.items)
	}
	return 0
}

// okSend acks every update and records what it shipped.
func okSend(shipped *[]Update) Sender[Update] {
	return func(_ context.Context, _ string, us []*Update) []int {
		for _, u := range us {
			*shipped = append(*shipped, *u)
		}
		return nil
	}
}

// downSend fails every update, standing in for an unreachable peer.
func downSend(_ context.Context, _ string, us []*Update) []int {
	failed := make([]int, len(us))
	for i := range failed {
		failed[i] = i
	}
	return failed
}

// TestHintLogSupersedesAndReplays: an undelivered update (a hint) lives in
// the outbox under LWW supersession, so a hot key holds one entry per peer,
// and the next drain ships only the newest version.
func TestHintLogSupersedesAndReplays(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg, "n1", "us-east")
	o := NewOutbox[Update](true, m, nil)
	mk := func(ver, mtime int64) Update {
		return Update{Meta: object.Meta{Key: "hot", Version: object.Version(ver), ModifiedAt: time.Unix(0, mtime), Origin: "a"}, Data: []byte("x")}
	}
	o.Hint("peer1", mk(1, 10))
	o.Hint("peer1", mk(2, 20))
	o.Hint("peer1", mk(1, 10)) // stale: superseded, never ships
	if pending(o, "peer1") != 1 || o.Len() != 1 {
		t.Fatalf("pending = %d, depth = %d, want 1/1", pending(o, "peer1"), o.Len())
	}
	if got := m.HintsPending.Value(); got != 1 {
		t.Fatalf("repair_hints_pending = %v, want 1", got)
	}

	var delivered []Update
	if _, failed := o.Drain(context.Background(), "peer1", okSend(&delivered)); failed != 0 {
		t.Fatalf("drain failed %d entries", failed)
	}
	if len(delivered) != 1 || delivered[0].Meta.Version != 2 {
		t.Fatalf("delivered %+v, want the superseding version 2", delivered)
	}
	if m.HintsPending.Value() != 0 || o.Len() != 0 {
		t.Fatal("replayed hints must leave the outbox")
	}
	if got := m.HintsReplayed.Value(); got != 1 {
		t.Fatalf("repair_hints_replayed_total = %d, want 1", got)
	}
}

// TestHintLogAddCopiesUpdate pins the outbox's ownership contract: it keeps
// the caller's buffers instead of copying them (whoever hands an update
// over must not modify it again), so what ships aliases what was queued.
func TestHintLogAddCopiesUpdate(t *testing.T) {
	o := NewOutbox[Update](true, NewMetrics(nil, "", ""), nil)
	u := Update{
		Meta: object.Meta{Key: "k", Version: 1, Origin: "a", ModifiedAt: time.Unix(0, 5),
			Tags: []string{"tag"}, ECK: 2, ECM: 1, ECFrags: []int{0, 2}},
		Data: []byte("orig"),
	}
	o.Hint("peer1", u)
	var got []Update
	o.Drain(context.Background(), "peer1", okSend(&got))
	if len(got) != 1 {
		t.Fatalf("shipped %d updates, want 1", len(got))
	}
	g := got[0]
	if &g.Data[0] != &u.Data[0] || &g.Meta.Tags[0] != &u.Meta.Tags[0] || &g.Meta.ECFrags[0] != &u.Meta.ECFrags[0] {
		t.Fatal("the outbox copied the update; it must ship the caller's buffers")
	}
}

// testCluster wires memStores into a Cluster for daemon tests.
type testCluster struct {
	peers map[string]*memStore
}

func (c *testCluster) Peers() []string {
	out := make([]string, 0, len(c.peers))
	for p := range c.peers {
		out = append(out, p)
	}
	return out
}

func (c *testCluster) Client(peer string) PeerClient { return LocalPeer{S: c.peers[peer]} }

// TestDaemonReplaysHintsWhenPeerReturns: an update a peer missed stays in
// its outbox box, and the next drain (the flush timer) delivers it once the
// peer answers again. No ping gate, no backoff: a failed drain costs one
// RPC per flush.
func TestDaemonReplaysHintsWhenPeerReturns(t *testing.T) {
	m := NewMetrics(telemetry.NewRegistry(), "n1", "us-east")
	o := NewOutbox[Update](true, m, nil)
	o.Queue(Update{Meta: object.Meta{Key: "k", Version: 1, Origin: "local", ModifiedAt: time.Unix(0, 100)}, Data: []byte("v")})
	o.Spread([]string{"r1"})
	ctx := context.Background()

	if _, failed := o.Drain(ctx, "r1", downSend); failed != 1 {
		t.Fatalf("drain to a down peer failed %d entries, want 1", failed)
	}
	if m.HintsPending.Value() != 1 || pending(o, "r1") != 1 {
		t.Fatalf("update left the outbox while its peer was down (hints %v, pending %d)", m.HintsPending.Value(), pending(o, "r1"))
	}
	remote := newMemStore()
	o.Drain(ctx, "r1", func(_ context.Context, _ string, us []*Update) []int {
		for _, u := range us {
			remote.Apply(*u)
		}
		return nil
	})
	if m.HintsPending.Value() != 0 || o.Len() != 0 || m.HintsReplayed.Value() != 1 {
		t.Fatal("update not delivered once the peer returned")
	}
	if u, ok := remote.Load("k"); !ok || string(u.Data) != "v" {
		t.Fatal("remote did not receive the update")
	}
}

// TestDaemonDropsHintsForDepartedPeer: a peer that left the membership
// loses its box at the next Spread, counted as dropped hints.
func TestDaemonDropsHintsForDepartedPeer(t *testing.T) {
	m := NewMetrics(telemetry.NewRegistry(), "n1", "us-east")
	o := NewOutbox[Update](true, m, nil)
	u := Update{Meta: object.Meta{Key: "k", Version: 1, Origin: "l", ModifiedAt: time.Unix(0, 1)}}
	o.Hint("gone", u)
	o.Hint("stays", u)
	o.Spread([]string{"stays"})
	if pending(o, "gone") != 0 || pending(o, "stays") != 1 || m.HintsPending.Value() != 1 {
		t.Fatalf("pending gone=%d stays=%d hints=%v, want 0/1/1", pending(o, "gone"), pending(o, "stays"), m.HintsPending.Value())
	}
	if got := m.HintsDropped.Value(); got != 1 {
		t.Fatalf("repair_hints_dropped_total = %d, want 1", got)
	}
	o.Spread(nil)
	if o.Len() != 0 || m.HintsPending.Value() != 0 {
		t.Fatalf("depth %d, hints %v after every peer left, want 0/0", o.Len(), m.HintsPending.Value())
	}
}

func TestDaemonSyncRoundRobin(t *testing.T) {
	clk := clock.NewSim(time.Time{})
	local, r1 := newMemStore(), newMemStore()
	r1.put("only-r1", 2, 50, "r1", []byte("z"))
	cl := &testCluster{peers: map[string]*memStore{"r1": r1}}
	d := NewDaemon(clk, local, cl, DefaultGeometry, time.Second, NewMetrics(nil, "", ""), nil, "")
	st := d.RunOnce()
	if st.KeysRepaired != 1 {
		t.Fatalf("KeysRepaired = %d, want 1", st.KeysRepaired)
	}
	if _, ok := local.Load("only-r1"); !ok {
		t.Fatal("daemon session did not pull the missing key")
	}
}
