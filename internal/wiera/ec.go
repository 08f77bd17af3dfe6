package wiera

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cost"
	"repro/internal/ec"
	"repro/internal/object"
	"repro/internal/policy"
	"repro/internal/repair"
	"repro/internal/spawn"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// ecManager is the node's fourth distribution engine (beside Eventual,
// PrimaryBackup and MultiPrimaries): Reed-Solomon erasure coding with a
// per-object replication/EC chooser. A put through the stripe action
// either replicates (small/hot objects) or encodes the object into k+m
// fragments and stripes them across the shard group's members, each
// member storing a round-robin bundle of fragments (fragment i on member
// i mod n of the sorted membership). Reads gather any k fragments with
// hedged peer requests and reconstruct; anti-entropy regenerates a
// member's own fragments from parity instead of re-copying full objects.
type ecManager struct {
	n      *Node
	scheme ec.Scheme
	// threshold: objects below this size are always fully replicated —
	// fragmenting small objects buys almost no storage and taxes every read
	// with a WAN gather.
	threshold int64
	// hotGets: an object whose previous version was read at least this
	// often is "hot" and stays replicated, because an EC read must fetch
	// ~ (k-own)/k of the object from remote fragment holders on every get.
	hotGets int64

	cmu    chan struct{} // 1-token mutex guarding codecs
	codecs map[ec.Scheme]*ec.Codec

	ecPuts        *telemetry.Counter // ec_puts_total
	replPuts      *telemetry.Counter // ec_replicated_puts_total
	encodeNs      *telemetry.Counter // ec_encode_ns_total
	decodeNs      *telemetry.Counter // ec_decode_ns_total
	reconstructs  *telemetry.Counter // ec_reconstructs_total
	fragsRepaired *telemetry.Counter // ec_fragments_repaired_total
	bytesSaved    *telemetry.Counter // ec_storage_saved_bytes_total
	gatherCancels *telemetry.Counter // ec_gather_cancels_total
}

func newECManager(n *Node, cfg NodeConfig) *ecManager {
	reg := n.fabric.Metrics()
	region := string(n.region)
	counter := func(name, help string) *telemetry.Counter {
		return reg.Counter(name, help, "node", "region").With(n.name, region)
	}
	m := &ecManager{
		n:         n,
		scheme:    cfg.Params.EC.Scheme,
		threshold: cfg.Params.EC.ThresholdBytes,
		hotGets:   int64(cfg.Params.EC.HotGets),
		cmu:       make(chan struct{}, 1),
		codecs:    make(map[ec.Scheme]*ec.Codec),
		ecPuts: counter("ec_puts_total",
			"Objects the stripe chooser stored erasure-coded."),
		replPuts: counter("ec_replicated_puts_total",
			"Objects the stripe chooser stored fully replicated (small/hot/cost)."),
		encodeNs: counter("ec_encode_ns_total",
			"Nanoseconds spent Reed-Solomon encoding on the put path."),
		decodeNs: counter("ec_decode_ns_total",
			"Nanoseconds spent decoding/verifying fragments on the read path."),
		reconstructs: counter("ec_reconstructs_total",
			"Reads that rebuilt missing data fragments with parity math."),
		fragsRepaired: counter("ec_fragments_repaired_total",
			"Fragments regenerated by repair instead of re-copying full objects."),
		bytesSaved: counter("ec_storage_saved_bytes_total",
			"Physical bytes saved by EC puts vs replicating to every member."),
		gatherCancels: counter("ec_gather_cancels_total",
			"Losing hedged fragment requests canceled once k fragments arrived."),
	}
	return m
}

// codecFor returns (building and caching on demand) the codec for a
// scheme — reads and repair must decode whatever scheme a version was
// written under, not just the node's configured one.
func (m *ecManager) codecFor(s ec.Scheme) (*ec.Codec, error) {
	m.cmu <- struct{}{}
	defer func() { <-m.cmu }()
	if c, ok := m.codecs[s]; ok {
		return c, nil
	}
	c, err := ec.New(s.K, s.M)
	if err != nil {
		return nil, err
	}
	m.codecs[s] = c
	return c, nil
}

// members returns the sorted names of the full shard group (self plus
// peers). Sorting makes fragment ranks consistent across members without
// coordination: everyone derives the same assignment from the same view.
func (m *ecManager) members() []string {
	names := []string{m.n.name}
	for _, p := range m.n.Peers() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}

// storageClass prices the chooser's storage term with the local
// instance's first (write-target) tier class.
func (m *ecManager) storageClass() cost.TierClass {
	for _, label := range m.n.local.TierOrder() {
		if t, ok := m.n.local.Tier(label); ok {
			return t.Class()
		}
	}
	return cost.ClassMemory
}

// useEC is the per-object chooser: replication vs EC(k,m) at write time.
func (m *ecManager) useEC(key string, size int64, members int) bool {
	total := m.scheme.Shards()
	// Durability gate: losing one full member (one region) must leave at
	// least k fragments, or EC would be strictly less durable than the
	// replication it replaces.
	if members < 2 || total-ceilDiv(total, members) < m.scheme.K {
		return false
	}
	if size < m.threshold {
		return false
	}
	// Heat gate: the previous version's access count approximates the
	// read rate this version will see.
	var heat int64
	if prev, err := m.n.local.Objects().Latest(key); err == nil {
		heat = prev.AccessCnt
		if heat >= m.hotGets {
			return false
		}
	}
	// Cost check (Table 4): monthly storage for full replication vs the
	// EC stripe, plus the WAN read amplification EC adds — every get
	// fetches the fragments this member lacks from remote holders, where
	// a replicated read is free and local.
	class := m.storageClass()
	gb := float64(size) / float64(1<<30)
	replMonthly, err1 := cost.StorageMonthly(class, gb*float64(members))
	ecMonthly, err2 := cost.StorageMonthly(class, gb*m.scheme.Overhead())
	if err1 != nil || err2 != nil {
		return true // unpriced class: the size and heat gates already passed
	}
	ownFrac := float64(len(ec.Assign(total, members, 0))) / float64(m.scheme.K)
	if ownFrac > 1 {
		ownFrac = 1
	}
	remoteBytes := int64(float64(size) * (1 - ownFrac))
	readAmp := float64(heat) * cost.TransferCost(cost.ClassMemory, cost.NetInterAWS, remoteBytes)
	return ecMonthly+readAmp < replMonthly
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// stripe executes the stripe(what: insert.object, to: all_regions)
// global action: chooser-gated erasure coding across the group.
func (m *ecManager) stripe(e *globalPutExec, call *policy.ActionCall) error {
	to, err := call.StringArg("to")
	if err != nil {
		return err
	}
	if to != "all_regions" {
		return fmt.Errorf("wiera: stripe targets all_regions, got %q", to)
	}
	members := m.members()
	if !m.useEC(e.key, int64(len(e.data)), len(members)) {
		// Replication path: full local copy, lazy propagation — exactly
		// the Eventual engine's store+queue, chosen per object.
		meta, err := m.n.local.PutTagged(e.ctx, e.key, e.data, e.tags)
		if err != nil {
			return err
		}
		e.meta, e.hasMeta = meta, true
		m.n.queue.out.Queue(UpdateMsg{Meta: meta, Data: e.data})
		m.replPuts.Inc()
		return nil
	}
	return m.putEC(e, members)
}

// putEC encodes the object and stripes fragment bundles across members.
// The writer's own bundle installs synchronously (the put is durable
// locally before it acks); remote bundles ship at once through the outbox,
// where an unreachable member's bundle waits for the next flush.
func (m *ecManager) putEC(e *globalPutExec, members []string) error {
	codec, err := m.codecFor(m.scheme)
	if err != nil {
		return err
	}
	encodeStart := m.n.clk.Now()
	shards, err := codec.Encode(e.data)
	if err != nil {
		return err
	}
	m.encodeNs.Add(int64(m.n.clk.Since(encodeStart)))

	now := m.n.clk.Now()
	version := object.Version(1)
	if prev, err := m.n.local.Objects().Latest(e.key); err == nil {
		version = prev.Version + 1
	}
	base := object.Meta{
		Key: e.key, Version: version, Size: int64(len(e.data)), Origin: m.n.name,
		CreatedAt: now, ModifiedAt: now, AccessedAt: now,
		Tags: append([]string(nil), e.tags...),
		ECK:  m.scheme.K, ECM: m.scheme.M,
	}
	total := m.scheme.Shards()
	fragSize := int(base.FragSize())
	selfInstalled := false
	var stored int64
	for rank, name := range members {
		frags := ec.Assign(total, len(members), rank)
		if len(frags) == 0 {
			continue
		}
		bundle := make([]byte, 0, len(frags)*fragSize)
		for _, f := range frags {
			bundle = append(bundle, shards[f]...)
		}
		meta := base.Clone()
		meta.ECFrags = frags
		stored += int64(len(bundle))
		if name == m.n.name {
			if _, err := m.n.local.ApplyRemote(e.ctx, meta, bundle); err != nil {
				return err
			}
			selfInstalled = true
			continue
		}
		m.n.queue.push(name, UpdateMsg{Meta: meta, Data: bundle})
	}
	if !selfInstalled {
		return fmt.Errorf("wiera: stripe: node %s not in its own membership", m.n.name)
	}
	e.meta, e.hasMeta = base.Clone(), true // app-visible meta describes the object, not a bundle
	m.ecPuts.Inc()
	if saved := int64(len(members))*base.Size - stored; saved > 0 {
		m.bytesSaved.Add(saved)
	}
	return nil
}

// reconstruct resolves a locally stored fragment bundle into the full
// object: gather any k fragments (own bundle first, then hedged peer
// fetches), invert, join, truncate to the logical size.
func (m *ecManager) reconstruct(ctx context.Context, bundle []byte, meta object.Meta) ([]byte, object.Meta, error) {
	shards, codec, err := m.gatherShards(ctx, meta, bundle)
	if err != nil {
		return nil, object.Meta{}, err
	}
	out, err := codec.Join(shards, meta.Size)
	if err != nil {
		return nil, object.Meta{}, err
	}
	outMeta := meta.Clone()
	outMeta.ECFrags = nil // the returned payload is the whole object
	return out, outMeta, nil
}

// gatherShards assembles the full k+m fragment set for one EC version,
// seeded with a locally held bundle (possibly empty) and completed by
// asking every group peer at once — hedged requests: whichever answers
// arrive first complete the k-set, stragglers are ignored. Fragments
// only combine when the peer's LWW tuple matches exactly; fragments of
// different writes of the same key never mix.
func (m *ecManager) gatherShards(ctx context.Context, meta object.Meta, own []byte) ([][]byte, *ec.Codec, error) {
	codec, err := m.codecFor(ec.Scheme{K: meta.ECK, M: meta.ECM})
	if err != nil {
		return nil, nil, err
	}
	total := codec.Shards()
	fragSize := int(meta.FragSize())
	shards := make([][]byte, total)
	have := 0
	insert := func(md object.Meta, data []byte) {
		if md.Version != meta.Version || md.ECK != meta.ECK || md.ECM != meta.ECM ||
			!md.ModifiedAt.Equal(meta.ModifiedAt) || md.Origin != meta.Origin ||
			int(md.FragSize()) != fragSize {
			return
		}
		for j, f := range md.ECFrags {
			lo, hi := j*fragSize, (j+1)*fragSize
			if f < 0 || f >= total || shards[f] != nil || hi > len(data) {
				continue
			}
			if fragSize == 0 {
				shards[f] = []byte{}
			} else {
				shards[f] = data[lo:hi]
			}
			have++
		}
	}
	insert(meta, own)

	if have < codec.K() {
		peers := m.n.Peers()
		type answer struct {
			resp ECFragResponse
			err  error
		}
		payload, err := transport.Encode(ECFragRequest{Key: meta.Key, Version: meta.Version})
		if err != nil {
			return nil, nil, err
		}
		// The fan-out is hedged: every peer is asked at once and the k-set
		// completes from whichever answers land first. The derived context
		// cancels the losing in-flight calls the moment k fragments are
		// gathered, so a slow or partitioned peer costs nothing beyond its
		// aborted RPC — no goroutine or request outlives the gather.
		hctx, cancelHedge := context.WithCancel(ctx)
		defer cancelHedge()
		ch := make(chan answer, len(peers))
		for _, p := range peers {
			spawn.Go(func() {
				var a answer
				a.err = m.n.callPeerRaw(hctx, p.Name, MethodECFrag, payload, &a.resp)
				ch <- a
			})
		}
		consumed := 0
		for ; consumed < len(peers) && have < codec.K(); consumed++ {
			a := <-ch
			if a.err != nil {
				continue // a peer without the fragment (or unreachable) just doesn't count
			}
			insert(a.resp.Meta, a.resp.Data)
		}
		if losers := len(peers) - consumed; losers > 0 && have >= codec.K() {
			cancelHedge()
			m.gatherCancels.Add(int64(losers))
		}
	}
	if have < codec.K() {
		return nil, nil, fmt.Errorf("wiera: %s@v%d: only %d of %d fragments reachable (need %d)",
			meta.Key, meta.Version, have, total, codec.K())
	}

	missingData := false
	for i := 0; i < codec.K(); i++ {
		if shards[i] == nil {
			missingData = true
			break
		}
	}
	decodeStart := m.n.clk.Now()
	if err := codec.Reconstruct(shards); err != nil {
		return nil, nil, err
	}
	m.decodeNs.Add(int64(m.n.clk.Since(decodeStart)))
	if missingData {
		m.reconstructs.Inc()
	}
	return shards, codec, nil
}

// handleECFrag serves a peer's gather: the raw stored payload for the
// requested version, verbatim (the bundle for EC versions). No
// reconstruction happens here — that is the point of the RPC.
func (m *ecManager) handleECFrag(ctx context.Context, payload []byte) ([]byte, error) {
	var req ECFragRequest
	if err := transport.Decode(payload, &req); err != nil {
		return nil, err
	}
	version := req.Version
	if version <= 0 {
		meta, err := m.n.local.Objects().Latest(req.Key)
		if err != nil {
			return nil, err
		}
		version = meta.Version
	}
	data, meta, err := m.n.local.GetVersion(ctx, req.Key, version)
	if err != nil {
		return nil, err
	}
	return transport.Encode(ECFragResponse{Meta: meta, Data: data})
}

// applyRepair handles an anti-entropy update for an erasure-coded
// version. Installing whatever bundle the pushing peer happens to hold
// would duplicate that peer's fragments here and leave this member's own
// assignment unrepaired — so the node instead regenerates its own
// fragments from any k reachable ones (the pushed bundle seeds the
// gather). When the group cannot currently supply k fragments, the
// offered bundle installs verbatim as a fallback: extra fragments are
// still correct (ECFrags records exactly what the payload holds), just
// non-canonical placement.
//
// Outbox deliveries do not come through here: they carry the bundle
// crafted for this member at write time and apply verbatim.
func (m *ecManager) applyRepair(u repair.Update) bool {
	if cur, err := m.n.local.Objects().Latest(u.Meta.Key); err == nil && !object.Newer(u.Meta, cur) {
		// EC members share identical LWW tuples per version, so "not
		// newer" means this version (or a later one) is already here.
		return false
	}
	ctx := context.Background()
	members := m.members()
	rank := -1
	for i, name := range members {
		if name == m.n.name {
			rank = i
			break
		}
	}
	total := u.Meta.ECK + u.Meta.ECM
	want := ec.Assign(total, len(members), rank)
	if rank >= 0 && slices.Equal(u.Meta.ECFrags, want) {
		ok, err := m.n.local.ApplyRemote(ctx, u.Meta, u.Data)
		return err == nil && ok
	}
	shards, _, err := m.gatherShards(ctx, u.Meta, u.Data)
	if err != nil || len(want) == 0 {
		ok, aerr := m.n.local.ApplyRemote(ctx, u.Meta, u.Data)
		return aerr == nil && ok
	}
	fragSize := int(u.Meta.FragSize())
	bundle := make([]byte, 0, len(want)*fragSize)
	for _, f := range want {
		bundle = append(bundle, shards[f]...)
	}
	meta := u.Meta.Clone()
	meta.ECFrags = want
	ok, err := m.n.local.ApplyRemote(ctx, meta, bundle)
	if err == nil && ok {
		m.fragsRepaired.Add(int64(len(want)))
		return true
	}
	return false
}

// placementLocal is this node's row of a placement answer.
func (m *ecManager) placementLocal(key string) PlacementLocalResponse {
	meta, err := m.n.local.Objects().Latest(key)
	if err != nil {
		return PlacementLocalResponse{}
	}
	return PlacementLocalResponse{Has: true, Meta: meta}
}

// handlePlacement assembles the full layout of a key's latest version:
// this node's row plus a parallel meta-only query to every peer.
func (m *ecManager) handlePlacement(ctx context.Context, key string) ([]byte, error) {
	type row struct {
		peer PeerInfo
		loc  PlacementLocalResponse
	}
	peers := m.n.Peers()
	rows := make([]row, len(peers)+1)
	rows[0] = row{peer: PeerInfo{Name: m.n.name, Region: m.n.region}, loc: m.placementLocal(key)}
	payload, err := transport.Encode(PlacementRequest{Key: key})
	if err != nil {
		return nil, err
	}
	eachPeer(peers, func(i int, p PeerInfo) {
		r := &rows[i+1]
		r.peer = p
		// A peer that cannot answer is listed as not holding the key.
		_ = m.n.callPeerRaw(ctx, p.Name, MethodPlacementLocal, payload, &r.loc)
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].peer.Name < rows[j].peer.Name })

	resp := PlacementResponse{Key: key}
	var newest *object.Meta
	for _, r := range rows {
		entry := PlacementEntry{Node: r.peer.Name, Region: r.peer.Region}
		if r.loc.Has {
			meta := r.loc.Meta
			entry.Has = true
			entry.Version = meta.Version
			entry.Frags = append([]int(nil), meta.ECFrags...)
			entry.Bytes = meta.StoredBytes()
			if newest == nil || object.Newer(meta, *newest) {
				mc := meta.Clone()
				newest = &mc
			}
		}
		resp.Entries = append(resp.Entries, entry)
	}
	if newest == nil {
		return nil, object.ErrNotFound{Key: key}
	}
	resp.Version = newest.Version
	resp.Size = newest.Size
	resp.ECK = newest.ECK
	resp.ECM = newest.ECM
	return transport.Encode(resp)
}

// statsSnapshot feeds the EC section of NodeStats.
func (m *ecManager) statsSnapshot() (ecPuts, replPuts, reconstructs, fragsRepaired, bytesSaved, gatherCancels int64) {
	if m == nil {
		return 0, 0, 0, 0, 0, 0
	}
	return m.ecPuts.Value(), m.replPuts.Value(), m.reconstructs.Value(),
		m.fragsRepaired.Value(), m.bytesSaved.Value(), m.gatherCancels.Value()
}
