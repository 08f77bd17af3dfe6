package wiera

import (
	"context"
	"sync"

	"repro/internal/object"
	"repro/internal/repair"
	"repro/internal/spawn"
	"repro/internal/transport"
)

// repairManager owns a node's anti-entropy machinery: the background
// Merkle-sync daemon, read-repair scheduling, and the server side of the
// four repair RPCs. It adapts the node's Tiera instance and RPC fabric to
// the transport-agnostic interfaces in internal/repair.
type repairManager struct {
	n       *Node
	metrics *repair.Metrics
	daemon  *repair.Daemon // nil unless antiEntropy is a positive period
	geo     repair.Geometry

	mu       sync.Mutex
	inflight map[string]bool // keys with a read repair already scheduled
}

// newRepairManager assembles the subsystem. Merkle sync runs only with a
// positive antiEntropy period: a placement policy decides what each replica
// holds, and unsolicited sync would replicate keys it keeps local.
func newRepairManager(n *Node, cfg NodeConfig) *repairManager {
	m := &repairManager{
		n:        n,
		metrics:  n.repairMetrics,
		geo:      repair.DefaultGeometry,
		inflight: make(map[string]bool),
	}
	if period := cfg.Params.Repair.AntiEntropy; period > 0 {
		m.daemon = repair.NewDaemon(n.clk, nodeStore{n}, nodeCluster{n}, m.geo, period,
			m.metrics, n.fabric.Events(), n.name)
	}
	return m
}

func (m *repairManager) start() {
	if m != nil && m.daemon != nil {
		m.daemon.Start()
	}
}

func (m *repairManager) stop() {
	if m != nil && m.daemon != nil {
		m.daemon.Stop()
	}
}

// scheduleKeyRepair asynchronously reconciles one key with every peer: pull
// their latest versions, keep the LWW winner locally, and push it back out.
// Triggered by a get that observed a stale version. Per-key in-flight
// dedup keeps a hot stale key from fanning out once per read.
func (m *repairManager) scheduleKeyRepair(key string) {
	m.mu.Lock()
	if m.inflight[key] {
		m.mu.Unlock()
		return
	}
	m.inflight[key] = true
	m.mu.Unlock()
	m.metrics.ReadRepairs.Inc()
	spawn.Go(func() {
		defer func() {
			m.mu.Lock()
			delete(m.inflight, key)
			m.mu.Unlock()
		}()
		m.repairKey(key)
	})
}

func (m *repairManager) repairKey(key string) {
	store := nodeStore{m.n}
	for _, p := range m.n.Peers() {
		client := rpcPeer{n: m.n, peer: p.Name}
		updates, err := client.Pull([]string{key})
		if err != nil {
			continue
		}
		for _, u := range updates {
			if store.Apply(u) {
				m.metrics.KeysRepaired.Inc()
			}
		}
	}
	// Push the winning version back to peers still behind; LWW makes the
	// redundant deliveries no-ops.
	u, ok := store.Load(key)
	if !ok {
		return
	}
	for _, p := range m.n.Peers() {
		_, _ = (rpcPeer{n: m.n, peer: p.Name}).Push([]repair.Update{u})
	}
}

// absorb installs a version fetched from a peer into the local instance in
// the background (the local-miss read path: the next read of key is served
// locally).
func (m *repairManager) absorb(meta object.Meta, data []byte) {
	spawn.Go(func() {
		if ok, err := m.n.local.ApplyRemote(context.Background(), meta, data); err == nil && ok {
			m.metrics.KeysRepaired.Inc()
		}
	})
}

// handle serves the four repair RPCs out of the node's dispatcher.
func (m *repairManager) handle(ctx context.Context, method string, payload []byte) ([]byte, error) {
	store := nodeStore{m.n}
	switch method {
	case MethodRepairDigest:
		var req RepairDigestRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		tree := repair.BuildTree(repair.Geometry{Fanout: req.Fanout, Depth: req.Depth}, store.Entries())
		digests, err := tree.Digests(req.Nodes)
		if err != nil {
			return nil, err
		}
		return transport.Encode(RepairDigestResponse{Digests: digests})
	case MethodRepairEntries:
		var req RepairEntriesRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		tree := repair.BuildTree(repair.Geometry{Fanout: req.Fanout, Depth: req.Depth}, store.Entries())
		entries, err := tree.LeafEntries(req.Leaves)
		if err != nil {
			return nil, err
		}
		return transport.Encode(RepairEntriesResponse{Entries: entries})
	case MethodRepairPull:
		var req RepairPullRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		var resp RepairPullResponse
		for _, key := range req.Keys {
			if u, ok := store.Load(key); ok {
				resp.Updates = append(resp.Updates, UpdateMsg{Meta: u.Meta, Data: u.Data})
			}
		}
		return transport.Encode(resp)
	case MethodRepairPush:
		var req RepairPushRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		accepted := 0
		for _, u := range req.Updates {
			// Erasure-coded versions go through the EC manager: a bundle
			// holding exactly this member's fragments installs verbatim,
			// while a Merkle-sync push carries the sender's bundle and
			// triggers regeneration of our own fragments from parity.
			if u.Meta.IsEC() {
				if m.n.ecm.applyRepair(repair.Update{Meta: u.Meta, Data: u.Data}) {
					accepted++
				}
				continue
			}
			// Ownership-aware apply: a push for a key this shard no longer
			// owns (one migrated by a rebalance) redirects to the
			// in-region owner instead of stranding a version here.
			if ok, err := m.n.shards.applyOrForward(ctx, u); err == nil && ok {
				accepted++
			}
		}
		return transport.Encode(RepairPushResponse{Accepted: accepted})
	default:
		return nil, errUnknownRepairMethod(method)
	}
}

type errUnknownRepairMethod string

func (e errUnknownRepairMethod) Error() string {
	return "wiera: unknown repair method " + string(e)
}

// nodeStore adapts the node's Tiera instance to repair.Store.
type nodeStore struct{ n *Node }

// Entries implements repair.Store over the local object index.
func (s nodeStore) Entries() []repair.Entry {
	objs := s.n.local.Objects()
	keys := objs.Keys()
	out := make([]repair.Entry, 0, len(keys))
	for _, key := range keys {
		meta, err := objs.Latest(key)
		if err != nil {
			continue
		}
		out = append(out, repair.EntryOf(meta))
	}
	return out
}

// Load implements repair.Store.
func (s nodeStore) Load(key string) (repair.Update, bool) {
	meta, err := s.n.local.Objects().Latest(key)
	if err != nil {
		return repair.Update{}, false
	}
	data, meta, err := s.n.local.GetVersion(context.Background(), key, meta.Version)
	if err != nil {
		return repair.Update{}, false
	}
	return repair.Update{Meta: meta, Data: data}, true
}

// Apply implements repair.Store through the LWW remote-apply path.
// Erasure-coded versions divert to the EC manager, which regenerates this
// member's own fragments from parity instead of installing whatever
// bundle the pushing peer holds.
func (s nodeStore) Apply(u repair.Update) bool {
	if u.Meta.IsEC() {
		return s.n.ecm.applyRepair(u)
	}
	ok, err := s.n.local.ApplyRemote(context.Background(), u.Meta, u.Data)
	return err == nil && ok
}

// nodeCluster adapts the node's membership view to repair.Cluster.
type nodeCluster struct{ n *Node }

// Peers implements repair.Cluster.
func (c nodeCluster) Peers() []string { return peerNames(c.n.Peers()) }

func peerNames(peers []PeerInfo) []string {
	out := make([]string, len(peers))
	for i, p := range peers {
		out[i] = p.Name
	}
	return out
}

// Client implements repair.Cluster.
func (c nodeCluster) Client(peer string) repair.PeerClient { return rpcPeer{n: c.n, peer: peer} }

// rpcPeer adapts one remote replica to repair.PeerClient over the fabric.
// Repair RPCs run outside any application trace and flight record.
type rpcPeer struct {
	n    *Node
	peer string
}

// Digests implements repair.PeerClient.
func (p rpcPeer) Digests(geo repair.Geometry, nodes []int) ([]uint64, error) {
	var resp RepairDigestResponse
	req := RepairDigestRequest{Fanout: geo.Fanout, Depth: geo.Depth, Nodes: nodes}
	err := p.n.callPeer(context.Background(), p.peer, MethodRepairDigest, req, &resp)
	return resp.Digests, err
}

// LeafEntries implements repair.PeerClient.
func (p rpcPeer) LeafEntries(geo repair.Geometry, leaves []int) ([]repair.Entry, error) {
	var resp RepairEntriesResponse
	req := RepairEntriesRequest{Fanout: geo.Fanout, Depth: geo.Depth, Leaves: leaves}
	err := p.n.callPeer(context.Background(), p.peer, MethodRepairEntries, req, &resp)
	return resp.Entries, err
}

// Pull implements repair.PeerClient.
func (p rpcPeer) Pull(keys []string) ([]repair.Update, error) {
	var resp RepairPullResponse
	if err := p.n.callPeer(context.Background(), p.peer, MethodRepairPull, RepairPullRequest{Keys: keys}, &resp); err != nil {
		return nil, err
	}
	out := make([]repair.Update, len(resp.Updates))
	for i, u := range resp.Updates {
		out[i] = repair.Update{Meta: u.Meta, Data: u.Data}
	}
	return out, nil
}

// Push implements repair.PeerClient.
func (p rpcPeer) Push(updates []repair.Update) (int, error) {
	msgs := make([]UpdateMsg, len(updates))
	for i, u := range updates {
		msgs[i] = UpdateMsg{Meta: u.Meta, Data: u.Data}
	}
	var resp RepairPushResponse
	if err := p.n.callPeer(context.Background(), p.peer, MethodRepairPush, RepairPushRequest{Updates: msgs}, &resp); err != nil {
		return 0, err
	}
	return resp.Accepted, nil
}
