package wiera

import (
	"context"
	"sync"

	"repro/internal/flight"
	"repro/internal/object"
	"repro/internal/ring"
	"repro/internal/telemetry"
)

// shardManager is a node's view of the keyspace partition: the installed
// instance config with its current (and, mid-rebalance, previous) shard
// map, the node's own shard index, ownership checks for incoming
// operations, and the drain that streams moved keys to their new owners
// when the map changes. A node gets its config with its spawn; an instance
// of one worker per region runs on a one-shard map, whose only shard owns
// every key.
//
// The rebalance protocol leans on three local rules:
//
//  1. Once a map is installed, operations on keys this shard no longer
//     owns NACK with WrongShardError — checked after the op gate, so an
//     in-flight op never lands a write the drain cannot see.
//  2. While the map is unsettled, reads and first writes of keys the node
//     now owns but has not yet received fall back to the previous owner
//     (fetch its latest version and continue the version counter from it,
//     so a migrated v5 can never outrank a freshly acked write).
//  3. Updates arriving for keys the node does not own (late outbox
//     retries, queued fan-outs from old owners) are forwarded to the in-region
//     owner instead of stranding a copy here.
type shardManager struct {
	n *Node

	mu    sync.Mutex
	cfg   InstanceConfig // the installed config
	cur   *ring.Table    // cfg.Map
	prev  *ring.Table    // cfg.Prev during an unsettled rebalance
	shard int            // this node's shard under cur; -1 when leaving the pool

	// migMu serializes whole drains: a re-sent RingDrain waits for the
	// running pass and then finds nothing left to move (idempotence).
	migMu sync.Mutex

	epochG    *telemetry.Gauge
	shardG    *telemetry.Gauge
	vnodesG   *telemetry.Gauge
	keysG     *telemetry.Gauge
	bytesG    *telemetry.Gauge
	inflightG *telemetry.Gauge

	keysMoved  *telemetry.Counter
	bytesMoved *telemetry.Counter
	wrongShard *telemetry.Counter
}

// newShardManager wires the ring_* telemetry families. The node adopts the
// config it was spawned with before it serves.
func newShardManager(n *Node) *shardManager {
	reg := n.fabric.Metrics()
	region := string(n.region)
	gauge := func(name, help string) *telemetry.Gauge {
		return reg.Gauge(name, help, "node", "region").With(n.name, region)
	}
	counter := func(name, help string) *telemetry.Counter {
		return reg.Counter(name, help, "node", "region").With(n.name, region)
	}
	m := &shardManager{
		n:       n,
		epochG:  gauge("ring_epoch", "Shard map epoch installed at this worker."),
		shardG:  gauge("ring_shard", "Shard index this worker serves (-1 while leaving)."),
		vnodesG: gauge("ring_vnodes", "Virtual nodes per shard on this worker's ring."),
		keysG:   gauge("ring_keys", "Keys held by this worker."),
		bytesG:  gauge("ring_bytes", "Bytes (latest versions) held by this worker."),
		inflightG: gauge("ring_migrations_inflight",
			"Key migrations this worker is currently streaming (1 while draining)."),
		keysMoved: counter("ring_keys_moved_total",
			"Keys this worker streamed to new owners during rebalances."),
		bytesMoved: counter("ring_bytes_moved_total",
			"Bytes this worker streamed to new owners during rebalances."),
		wrongShard: counter("ring_wrong_shard_total",
			"Operations NACKed because this worker does not own the key."),
	}
	return m
}

// adopt makes cfg the installed config and returns the node's shard under
// it. Node.install decides whether cfg is new enough.
func (m *shardManager) adopt(cfg InstanceConfig) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cfg = cfg
	m.cur = ring.NewTable(cfg.Map)
	m.prev = nil
	if !cfg.Settled && cfg.Prev != nil {
		m.prev = ring.NewTable(cfg.Prev)
	}
	m.shard = cfg.Map.ShardOf(string(m.n.region), m.n.name)
	return m.shard
}

// config returns the installed config.
func (m *shardManager) config() InstanceConfig {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg
}

// publishGauges sets the ring_* gauges from the installed map.
func (m *shardManager) publishGauges() {
	m.mu.Lock()
	rm, shard := m.cur.Map(), m.shard
	m.mu.Unlock()
	m.epochG.Set(float64(rm.Epoch))
	m.shardG.Set(float64(shard))
	m.vnodesG.Set(float64(rm.VnodeCount()))
	m.updateOwnershipGauges()
}

// view snapshots the manager state for lock-free use on the data path.
func (m *shardManager) view() (cur, prev *ring.Table, shard int, settled bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur, m.prev, m.shard, m.cfg.Settled
}

func (m *shardManager) ownShard() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shard
}

// checkKey NACKs an application operation on a key this shard does not
// own, naming the in-region owner so the caller can retry without a full
// map refresh.
func (m *shardManager) checkKey(key string) error {
	cur, _, shard, _ := m.view()
	owner := cur.Owner(key)
	if owner == shard {
		return nil
	}
	m.wrongShard.Inc()
	return &WrongShardError{
		Epoch: cur.Epoch(), Shard: owner,
		Owner: cur.WorkerForShard(string(m.n.region), owner),
	}
}

// ownsKey reports whether this shard owns key under the current map.
func (m *shardManager) ownsKey(key string) bool {
	cur, _, shard, _ := m.view()
	return cur.Owner(key) == shard
}

// prevOwner names the in-region worker that owned key under the outgoing
// map ("" when settled, not a fallback candidate, or this node itself).
func (m *shardManager) prevOwner(key string) string {
	cur, prev, shard, settled := m.view()
	if settled || prev == nil || cur.Owner(key) != shard {
		return ""
	}
	w := prev.Worker(string(m.n.region), key)
	if w == m.n.name {
		return ""
	}
	return w
}

// bootstrapKey prepares the first write of key during an unsettled
// rebalance: when the node owns key but holds no version yet, it pulls the
// previous owner's latest version so the local version counter continues
// past it. Without this, a fresh worker's v1 write would lose the LWW
// version-number comparison against a later-arriving migrated v5.
func (m *shardManager) bootstrapKey(ctx context.Context, key string) {
	p := m.prevOwner(key)
	if p == "" {
		return
	}
	if _, err := m.n.local.Objects().Latest(key); err == nil {
		return // already have history (drained or previously bootstrapped)
	}
	data, meta, ok := m.fetchFrom(ctx, p, key)
	if !ok {
		// The previous owner has already drained and deleted the key; its
		// push was acknowledged here before the delete, so local state is
		// current (or the key never existed). Nothing to do either way.
		return
	}
	_, _ = m.n.local.ApplyRemote(ctx, meta, data)
	flight.FromContext(ctx).AddHop(flight.Hop{
		Kind: flight.HopRepair, Name: "ring-bootstrap:" + p, Bytes: int64(len(data)),
	})
}

// fetchFromPrev serves a read of an owned-but-missing key during an
// unsettled rebalance from the previous owner. On a miss there it rechecks
// the local store: the drain deletes only after its push is acknowledged,
// so a key absent at the previous owner is either already here or gone.
func (m *shardManager) fetchFromPrev(ctx context.Context, key string) ([]byte, object.Meta, bool) {
	p := m.prevOwner(key)
	if p == "" {
		return nil, object.Meta{}, false
	}
	if data, meta, ok := m.fetchFrom(ctx, p, key); ok {
		return data, meta, true
	}
	data, meta, err := m.n.local.Get(ctx, key)
	return data, meta, err == nil
}

// fetchFrom reads key's latest version from peer (ForwardGet skips the
// peer's ownership check, which would NACK keys it is migrating away).
func (m *shardManager) fetchFrom(ctx context.Context, peer, key string) ([]byte, object.Meta, bool) {
	var resp GetResponse
	err := m.n.callPeer(ctx, peer, MethodForwardGet, GetRequest{Key: key}, &resp)
	return resp.Data, resp.Meta, err == nil
}

// applyOrForward installs a replica update: locally when this shard owns
// the key, otherwise by forwarding to the in-region owner so late outbox
// retries and queued fan-outs from old owners cannot strand versions on
// drained workers. Forwarded updates are marked so a disagreeing map on the
// receiver cannot bounce them forever.
func (m *shardManager) applyOrForward(ctx context.Context, msg UpdateMsg) (bool, error) {
	cur, _, shard, _ := m.view()
	if msg.Forwarded || cur.Owner(msg.Meta.Key) == shard {
		return m.n.local.ApplyRemote(ctx, msg.Meta, msg.Data)
	}
	target := cur.Worker(string(m.n.region), msg.Meta.Key)
	if target == "" || target == m.n.name {
		return m.n.local.ApplyRemote(ctx, msg.Meta, msg.Data)
	}
	msg.Forwarded = true
	var ack UpdateAck
	err := m.n.callPeer(ctx, target, MethodApplyUpdate, msg, &ack)
	return ack.Accepted, err
}

// drain streams every key this shard no longer owns to its new in-region
// owner and deletes the local copies, returning the number of keys moved.
// It freezes the op gate first: in-flight operations complete (and their
// queued updates flush) before the snapshot, and operations parked behind
// the freeze re-check ownership when they resume, so a single pass moves
// everything. Local deletion happens only after the receiving owner has
// acknowledged the push — an acked write is never in zero places.
func (m *shardManager) drain(ctx context.Context) (int, error) {
	m.migMu.Lock()
	defer m.migMu.Unlock()
	cur, _, shard, _ := m.view()
	m.inflightG.Set(1)
	defer m.inflightG.Set(0)

	m.n.gate.freeze()
	defer m.n.gate.thaw()
	m.n.queue.flushNow()

	fa := m.n.flightRec.Begin("ring-drain", "", m.n.name, string(m.n.region), m.n.PolicyName())
	var retErr error
	defer func() { fa.End(retErr) }()

	// Group moved keys by their new in-region owner.
	region := string(m.n.region)
	byTarget := make(map[string][]string)
	for _, key := range m.n.local.Objects().Keys() {
		owner := cur.Owner(key)
		if owner == shard {
			continue
		}
		target := cur.WorkerForShard(region, owner)
		if target == "" || target == m.n.name {
			continue
		}
		byTarget[target] = append(byTarget[target], key)
	}

	moved := 0
	for target, keys := range byTarget {
		n, err := m.pushKeys(ctx, target, keys, fa)
		moved += n
		if err != nil {
			retErr = err
			return moved, err
		}
	}
	m.updateOwnershipGauges()
	return moved, nil
}

// pushKeys streams the latest versions of keys to target in chunks bounded
// by the replication send path's caps (entry count and payload bytes), so a
// large keyspace migrates in bounded messages sized like every other
// batched push. Local copies are deleted only after their chunk is
// acknowledged — an acked write is never in zero places.
func (m *shardManager) pushKeys(ctx context.Context, target string, keys []string, fa *flight.Active) (int, error) {
	maxBytes, maxEntries := m.n.queue.caps()
	moved := 0
	req := RepairPushRequest{}
	// budget sizes the chunk (payload + per-entry overhead); chunkBytes
	// tracks payload only, the unit ring_bytes_moved_total reports.
	var budget, chunkBytes int64
	sent := make([]string, 0, maxEntries)

	flush := func() error {
		if len(req.Updates) == 0 {
			return nil
		}
		// Only the push files its hop on the drain's record; the local reads
		// and deletes around it run on the bare ctx.
		if err := m.n.callPeer(flight.NewContext(ctx, fa), target, MethodRepairPush, req, nil); err != nil {
			return err
		}
		for _, key := range sent {
			_ = m.n.local.Remove(ctx, key)
		}
		m.keysMoved.Add(int64(len(sent)))
		m.bytesMoved.Add(chunkBytes)
		moved += len(sent)
		req = RepairPushRequest{}
		budget, chunkBytes = 0, 0
		sent = sent[:0]
		return nil
	}

	for _, key := range keys {
		meta, err := m.n.local.Objects().Latest(key)
		if err != nil {
			continue
		}
		data, meta, err := m.n.local.GetVersion(ctx, key, meta.Version)
		if err != nil {
			continue
		}
		sz := int64(len(data)) + batchEntryOverhead
		if len(req.Updates) > 0 && (budget+sz > maxBytes || len(req.Updates) >= maxEntries) {
			if err := flush(); err != nil {
				return moved, err
			}
		}
		req.Updates = append(req.Updates, UpdateMsg{Meta: meta, Data: data})
		budget += sz
		chunkBytes += int64(len(data))
		sent = append(sent, key)
	}
	if err := flush(); err != nil {
		return moved, err
	}
	return moved, nil
}

// updateOwnershipGauges refreshes ring_keys / ring_bytes from the local
// store. Called on map installs, after drains, and from statsLocal so a
// CollectStats round trip always leaves the gauges current for wieractl.
func (m *shardManager) updateOwnershipGauges() {
	keys, bytes := m.n.local.Usage()
	m.keysG.Set(float64(keys))
	m.bytesG.Set(float64(bytes))
}

// ringEpoch reports the installed config's epoch.
func (m *shardManager) ringEpoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.Epoch()
}
