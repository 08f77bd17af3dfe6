package wiera

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/transport"
)

// MethodCollectStats serves the aggregated per-instance view from the
// Wiera server.
const MethodCollectStats = "wiera.collectStats"

// MethodStats serves a node's workload counters (Sec 3.1's workload
// monitor: "users' locations (number of requests from each instance),
// access patterns, and object sizes").
const MethodStats = "wiera.stats"

// NodeStats is one node's workload summary.
type NodeStats struct {
	Name       string
	Region     string
	PolicyName string
	Primary    string
	IsPrimary  bool

	// Shard is the worker's shard index under the instance's ring (-1 while
	// it leaves the pool); RingEpoch is the installed map's epoch.
	Shard     int
	RingEpoch int64

	Puts       int64
	Gets       int64
	PutMeanMs  float64
	PutP99Ms   float64
	GetMeanMs  float64
	GetP99Ms   float64
	StaleReads int64
	FreshReads int64
	QueueDepth int
	Keys       int
	BytesUsed  int64

	// Repair view (internal/repair); hints are outbox entries whose last
	// delivery attempt failed.
	HintsPending  int
	HintsReplayed int64
	KeysRepaired  int64
	ReadRepairs   int64

	// Batched replication view (repl_batch_* counters); all zero when the
	// instance runs with maxBatchBytes: false.
	BatchFlushes       int64
	BatchChunks        int64
	BatchUpdates       int64
	BatchBytes         int64
	BatchEntryFailures int64

	// Erasure-coding view (ec_* counters); all zero unless the policy uses
	// the stripe action.
	ECPuts          int64
	ECReplPuts      int64
	ECReconstructs  int64
	ECFragsRepaired int64
	ECBytesSaved    int64
	ECGatherCancels int64

	// SLO view: the worst objective's slow-window burn rate from the last
	// engine evaluation, and whether any objective's alert is firing. Zero
	// when the node declares no objectives.
	SLOBurn   float64
	SLOFiring bool

	// Heat view (heat_* counters); all zero unless heatTrack is enabled.
	HeatTrackedKeys int
	HotKeys         int
	HotCached       int
	HeatPromotions  int64
	HeatDemotions   int64
	HotGets         int64
	HeatTop         []HeatKey

	// Tenancy view (tenant_* counters); nil unless the instance declares
	// tenants.
	Tenants []TenantStats
}

// statsLocal builds the node's own summary.
func (n *Node) statsLocal() NodeStats {
	var used int64
	for _, label := range n.local.TierOrder() {
		if t, ok := n.local.Tier(label); ok {
			used += t.Used()
		}
	}
	toMs := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	ecPuts, ecRepl, ecRecon, ecFrags, ecSaved, ecCancels := n.ecm.statsSnapshot()
	hs := n.heat.statsSnapshot()
	var sloBurn float64
	var sloFiring bool
	for _, st := range n.sloEngine.Statuses() {
		if st.SlowBurn > sloBurn {
			sloBurn = st.SlowBurn
		}
		sloFiring = sloFiring || st.Firing
	}
	// A stats round trip doubles as the gauge refresh for wieractl ring:
	// CollectStats before a metrics dump leaves ring_keys/ring_bytes current.
	n.shards.updateOwnershipGauges()
	return NodeStats{
		Name:       n.name,
		Region:     string(n.region),
		PolicyName: n.PolicyName(),
		Primary:    n.Primary(),
		IsPrimary:  n.IsPrimary(),
		Shard:      n.shards.ownShard(),
		RingEpoch:  n.shards.ringEpoch(),
		Puts:       int64(n.PutLatency.Count()),
		Gets:       int64(n.GetLatency.Count()),
		PutMeanMs:  toMs(n.PutLatency.Mean()),
		PutP99Ms:   toMs(n.PutLatency.Percentile(99)),
		GetMeanMs:  toMs(n.GetLatency.Mean()),
		GetP99Ms:   toMs(n.GetLatency.Percentile(99)),
		StaleReads: n.StaleReads(),
		FreshReads: n.FreshReads(),
		QueueDepth: n.queue.out.Len(),
		Keys:       n.local.Objects().Len(),
		BytesUsed:  used,

		HintsPending:  int(n.repairMetrics.HintsPending.Value()),
		HintsReplayed: n.repairMetrics.HintsReplayed.Value(),
		KeysRepaired:  n.repairMetrics.KeysRepaired.Value(),
		ReadRepairs:   n.repairMetrics.ReadRepairs.Value(),

		BatchFlushes:       n.queue.flushes.Value(),
		BatchChunks:        n.queue.chunks.Value(),
		BatchUpdates:       n.queue.updates.Value(),
		BatchBytes:         n.queue.bytes.Value(),
		BatchEntryFailures: n.queue.entryFailures.Value(),

		ECPuts:          ecPuts,
		ECReplPuts:      ecRepl,
		ECReconstructs:  ecRecon,
		ECFragsRepaired: ecFrags,
		ECBytesSaved:    ecSaved,
		ECGatherCancels: ecCancels,

		SLOBurn:   sloBurn,
		SLOFiring: sloFiring,

		HeatTrackedKeys: hs.tracked,
		HotKeys:         hs.hot,
		HotCached:       hs.cached,
		HeatPromotions:  hs.promotions,
		HeatDemotions:   hs.demotions,
		HotGets:         hs.hotGets,
		HeatTop:         hs.top,

		Tenants: n.tenants.snapshot(),
	}
}

// InstanceStats aggregates one Wiera instance's workload and network view —
// the inputs the paper's data placement manager would consume (automated
// placement itself is the paper's future work).
type InstanceStats struct {
	InstanceID string
	Policy     string
	Primary    string
	Nodes      []NodeStats
	// RTTms is the network monitor's inter-node latency matrix
	// ("latencies between instances", Sec 3.1), in milliseconds, keyed by
	// "from->to" node names.
	RTTms map[string]float64
}

// CollectStats queries every node of an instance and assembles the
// aggregated view (the WUI-side entry point of the network and workload
// monitors).
func (s *Server) CollectStats(instanceID string) (*InstanceStats, error) {
	s.mu.Lock()
	st, ok := s.instances[instanceID]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("wiera: no instance %q", instanceID)
	}
	nodes := slices.Clone(st.cfg.Members)
	out := &InstanceStats{
		InstanceID: instanceID, Policy: st.cfg.Policy, Primary: st.cfg.primaryOf(0),
		RTTms: make(map[string]float64),
	}
	s.mu.Unlock()

	payload, err := transport.Encode(Empty{})
	if err != nil {
		return nil, err
	}
	for _, pi := range nodes {
		raw, err := s.ep.Call(context.Background(), pi.Name, MethodStats, payload)
		if err != nil {
			continue // dead nodes are the heartbeat's business
		}
		var ns NodeStats
		if err := transport.Decode(raw, &ns); err != nil {
			return nil, err
		}
		out.Nodes = append(out.Nodes, ns)
	}
	net := s.fabric.Network()
	for _, a := range nodes {
		for _, b := range nodes {
			if a.Name == b.Name {
				continue
			}
			key := a.Name + "->" + b.Name
			out.RTTms[key] = float64(net.RTT(a.Region, b.Region)) / float64(time.Millisecond)
		}
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Name < out.Nodes[j].Name })
	return out, nil
}

// Render prints the aggregated view as a text report.
func (is *InstanceStats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instance %s  policy=%s  primary=%s\n", is.InstanceID, is.Policy, is.Primary)
	for _, n := range is.Nodes {
		role := ""
		if n.IsPrimary {
			role = " (primary)"
		}
		if n.Shard >= 0 {
			role += fmt.Sprintf(" [shard %d @ epoch %d]", n.Shard, n.RingEpoch)
		}
		fmt.Fprintf(&b, "  %-24s %-10s%s\n", n.Name, n.Region, role)
		fmt.Fprintf(&b, "    puts=%d mean=%.1fms p99=%.1fms  gets=%d mean=%.1fms p99=%.1fms\n",
			n.Puts, n.PutMeanMs, n.PutP99Ms, n.Gets, n.GetMeanMs, n.GetP99Ms)
		fmt.Fprintf(&b, "    keys=%d bytes=%d queued=%d stale/fresh=%d/%d\n",
			n.Keys, n.BytesUsed, n.QueueDepth, n.StaleReads, n.FreshReads)
		fmt.Fprintf(&b, "    repair: hints=%d replayed=%d repaired=%d readRepairs=%d\n",
			n.HintsPending, n.HintsReplayed, n.KeysRepaired, n.ReadRepairs)
		if n.BatchChunks > 0 {
			fmt.Fprintf(&b, "    batch: flushes=%d chunks=%d updates=%d bytes=%d entryFailures=%d\n",
				n.BatchFlushes, n.BatchChunks, n.BatchUpdates, n.BatchBytes, n.BatchEntryFailures)
		}
		if n.ECPuts > 0 || n.ECReplPuts > 0 {
			fmt.Fprintf(&b, "    ec: puts=%d replicated=%d reconstructs=%d fragsRepaired=%d bytesSaved=%d gatherCancels=%d\n",
				n.ECPuts, n.ECReplPuts, n.ECReconstructs, n.ECFragsRepaired, n.ECBytesSaved, n.ECGatherCancels)
		}
		if n.SLOBurn > 0 || n.SLOFiring {
			fmt.Fprintf(&b, "    slo: burn=%.2f firing=%v\n", n.SLOBurn, n.SLOFiring)
		}
		if n.HeatTrackedKeys > 0 || n.HotKeys > 0 || n.HotGets > 0 {
			fmt.Fprintf(&b, "    heat: tracked=%d hot=%d cached=%d promoted=%d demoted=%d hotGets=%d\n",
				n.HeatTrackedKeys, n.HotKeys, n.HotCached, n.HeatPromotions, n.HeatDemotions, n.HotGets)
		}
		for _, t := range n.Tenants {
			fmt.Fprintf(&b, "    tenant %-10s w=%d ops=%d throttled=%d in=%dB out=%dB queueP99=%.1fms putP99=%.1fms getP99=%.1fms\n",
				t.ID, t.Weight, t.Ops, t.Throttled, t.BytesIn, t.BytesOut, t.QueueP99Ms, t.PutP99Ms, t.GetP99Ms)
		}
	}
	if len(is.RTTms) > 0 {
		keys := make([]string, 0, len(is.RTTms))
		for k := range is.RTTms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("  network monitor (RTT ms):\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "    %-50s %.0f\n", k, is.RTTms[k])
		}
	}
	return b.String()
}
