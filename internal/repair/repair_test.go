package repair

import (
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

func TestHintLogSupersedesAndReplays(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg, "n1", "us-east")
	l := NewHintLog(m)
	mk := func(ver, mtime int64) Update {
		return Update{Meta: object.Meta{Key: "hot", Version: object.Version(ver), ModifiedAt: time.Unix(0, mtime), Origin: "a"}, Data: []byte("x")}
	}
	if !l.Add("peer1", mk(1, 10)) {
		t.Fatal("first hint rejected")
	}
	if !l.Add("peer1", mk(2, 20)) {
		t.Fatal("newer hint rejected")
	}
	if l.Add("peer1", mk(1, 10)) {
		t.Fatal("stale hint must be superseded")
	}
	if l.Pending() != 1 || l.PendingFor("peer1") != 1 {
		t.Fatalf("pending = %d (per-peer %d), want 1", l.Pending(), l.PendingFor("peer1"))
	}
	if got := m.HintsPending.Value(); got != 1 {
		t.Fatalf("repair_hints_pending = %v, want 1", got)
	}

	var delivered []Update
	n, err := l.ReplayFor("peer1", func(us []Update) (int, error) {
		delivered = append(delivered, us...)
		return len(us), nil
	})
	if err != nil || n != 1 {
		t.Fatalf("ReplayFor = %d, %v", n, err)
	}
	if len(delivered) != 1 || delivered[0].Meta.Version != 2 {
		t.Fatalf("delivered %+v, want the superseding version 2", delivered)
	}
	if l.Pending() != 0 {
		t.Fatal("replayed hints must be removed")
	}
	if got := m.HintsReplayed.Value(); got != 1 {
		t.Fatalf("repair_hints_replayed_total = %d, want 1", got)
	}
}

// TestHintLogAddCopiesUpdate: a queued hint is the log's own copy. The
// caller may reuse the buffers behind Data and the Meta slices (a put's
// Data can alias a wire frame's receive buffer) without changing what a
// later replay delivers.
func TestHintLogAddCopiesUpdate(t *testing.T) {
	l := NewHintLog(nil)
	u := Update{
		Meta: object.Meta{Key: "k", Version: 1, Origin: "a", ModifiedAt: time.Unix(0, 5),
			Tags: []string{"tag"}, ECK: 2, ECM: 1, ECFrags: []int{0, 2}},
		Data: []byte("orig"),
	}
	if !l.Add("peer1", u) {
		t.Fatal("hint rejected")
	}
	copy(u.Data, "XXXX")
	u.Meta.Tags[0] = "mutated"
	u.Meta.ECFrags[0], u.Meta.ECFrags[1] = 7, 7

	var got []Update
	if _, err := l.ReplayFor("peer1", func(us []Update) (int, error) {
		got = append(got, us...)
		return len(us), nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("replayed %d hints, want 1", len(got))
	}
	g := got[0]
	if string(g.Data) != "orig" || g.Meta.Tags[0] != "tag" || g.Meta.ECFrags[0] != 0 || g.Meta.ECFrags[1] != 2 {
		t.Fatalf("replayed hint aliases the caller's buffers: data=%q tags=%v frags=%v",
			g.Data, g.Meta.Tags, g.Meta.ECFrags)
	}
}

// testCluster wires memStores into a Cluster for daemon tests.
type testCluster struct {
	mu    sync.Mutex
	peers map[string]*memStore
	down  map[string]bool
}

func (c *testCluster) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.peers))
	for p := range c.peers {
		out = append(out, p)
	}
	return out
}

func (c *testCluster) Client(peer string) PeerClient {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down[peer] {
		return downPeer{}
	}
	return LocalPeer{S: c.peers[peer]}
}

func (c *testCluster) Alive(peer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.down[peer]
}

func (c *testCluster) setDown(peer string, down bool) {
	c.mu.Lock()
	c.down[peer] = down
	c.mu.Unlock()
}

// downPeer fails every call, standing in for a partitioned replica.
type downPeer struct{}

func (downPeer) Digests(Geometry, []int) ([]uint64, error) {
	return nil, fmt.Errorf("unreachable")
}
func (downPeer) LeafEntries(Geometry, []int) ([]Entry, error) {
	return nil, fmt.Errorf("unreachable")
}
func (downPeer) Pull([]string) ([]Update, error) { return nil, fmt.Errorf("unreachable") }
func (downPeer) Push([]Update) (int, error)      { return 0, fmt.Errorf("unreachable") }

func TestDaemonReplaysHintsWhenPeerReturns(t *testing.T) {
	clk := clock.NewSim(time.Time{})
	local, remote := newMemStore(), newMemStore()
	local.put("k", 1, 100, "local", []byte("v"))
	cl := &testCluster{peers: map[string]*memStore{"r1": remote}, down: map[string]bool{"r1": true}}
	hints := NewHintLog(nil)
	u, _ := local.Load("k")
	if !hints.Add("r1", u) {
		t.Fatal("hint not queued")
	}
	d := NewDaemon(clk, local, hints, cl, DefaultGeometry, time.Second, nil)

	// Peer down: the hint stays queued and the sync session fails silently.
	d.RunOnce()
	if hints.Pending() != 1 {
		t.Fatal("hint dropped while peer was down")
	}
	// Peer back, but inside the backoff window: the hint stays queued (the
	// Merkle sync leg may still deliver the data — that is fine).
	cl.setDown("r1", false)
	d.RunOnce()
	if hints.Pending() != 1 {
		t.Fatal("hint replayed before its backoff elapsed")
	}
	// Past the backoff: replay delivers.
	clk.Advance(5 * time.Second)
	d.RunOnce()
	if hints.Pending() != 0 {
		t.Fatal("hint not replayed after backoff elapsed")
	}
	if u2, ok := remote.Load("k"); !ok || string(u2.Data) != "v" {
		t.Fatal("remote did not receive the hinted update")
	}
}

func TestDaemonDropsHintsForDepartedPeer(t *testing.T) {
	clk := clock.NewSim(time.Time{})
	local := newMemStore()
	local.put("k", 1, 1, "l", nil)
	cl := &testCluster{peers: map[string]*memStore{}, down: map[string]bool{}}
	m := NewMetrics(telemetry.NewRegistry(), "n1", "us-east")
	hints := NewHintLog(m)
	u, _ := local.Load("k")
	hints.Add("gone", u)
	d := NewDaemon(clk, local, hints, cl, DefaultGeometry, time.Second, m)
	d.RunOnce()
	if hints.Pending() != 0 {
		t.Fatal("hints for departed peer must be dropped")
	}
	if got := m.HintsDropped.Value(); got != 1 {
		t.Fatalf("repair_hints_dropped_total = %d, want 1", got)
	}
	hints.Add("gone", u)
	if dropped := hints.DropPeer("gone"); dropped != 1 {
		t.Fatalf("DropPeer = %d, want 1", dropped)
	}
	if dropped := hints.DropPeer("gone"); dropped != 0 {
		t.Fatalf("second DropPeer = %d, want 0", dropped)
	}
}

func TestDaemonSyncRoundRobin(t *testing.T) {
	clk := clock.NewSim(time.Time{})
	local, r1 := newMemStore(), newMemStore()
	r1.put("only-r1", 2, 50, "r1", []byte("z"))
	cl := &testCluster{peers: map[string]*memStore{"r1": r1}, down: map[string]bool{}}
	d := NewDaemon(clk, local, NewHintLog(nil), cl, DefaultGeometry, time.Second, nil)
	st := d.RunOnce()
	if st.KeysRepaired != 1 {
		t.Fatalf("KeysRepaired = %d, want 1", st.KeysRepaired)
	}
	if _, ok := local.Load("only-r1"); !ok {
		t.Fatal("daemon session did not pull the missing key")
	}
}
