package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/simnet"
	"repro/internal/wiera"
)

// BatchFlushResult measures the replication group commit (DESIGN.md Sec 8):
// a three-region eventual-consistency instance queues a large update backlog,
// then flushes it once per-key (one MethodApplyUpdate RPC per queued entry,
// the pre-batching wire protocol) and once batched (per-peer chunked
// MethodApplyUpdateBatch fan-out). Both runs use identical topologies and
// calibrated WAN RTTs; the flush is timed on the deployment clock, so the
// durations mostly count sequential WAN round trips. A second batched phase
// flushes into a live partition and verifies the partial-failure contract:
// every acknowledged write reaches the reachable peer immediately and the
// partitioned peer after the heal, retried from the outbox.
type BatchFlushResult struct {
	// Keys is the queued backlog size per timing run; Regions the
	// deployment width (1 writer + Regions-1 WAN peers).
	Keys    int
	Regions int
	// PerKeyFlush and BatchedFlush are the clock-time flush durations;
	// Speedup is their ratio (the ISSUE floor is 5x).
	PerKeyFlush  time.Duration
	BatchedFlush time.Duration
	Speedup      float64
	// Chunks and Updates are the batched run's repl_batch_* counters at the
	// writer: Updates spans both peers; Chunks shows the RPC collapse
	// (ceil(Keys/128) per peer at 64 B values).
	Chunks  int64
	Updates int64
	// Partition-phase accounting: PartitionKeys writes were acknowledged
	// with one peer unreachable, then flushed. ReachableKeys counts those
	// present on the healthy peer right after the flush; LostAckedWrites
	// counts acked keys missing from any replica after heal + replay
	// (must be zero); Healed reports whether the partitioned peer caught
	// up before the deadline.
	PartitionKeys   int
	ReachableKeys   int
	LostAckedWrites int
	Healed          bool
}

// batchFlushSrc is the three-region eventual-consistency policy under test.
const batchFlushSrc = `
Wiera BatchFlushEventual {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}};
	Region3 = {name: LowLatencyInstance, region: eu-west,
		tier1 = {name: memory, size: 5G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		queue(what: insert.object, to: all_regions);
	}
}`

// batchFlushDeploy builds one three-region deployment, returning the writer
// and its two WAN peers. queueFlush is set far beyond the experiment so only
// the explicit FlushQueue calls drain the backlog.
func batchFlushDeploy(params map[string]string) (*Deployment, *wiera.Node, *wiera.Node, *wiera.Node, error) {
	d, err := NewDeployment(2000, simnet.USWest, simnet.USEast, simnet.EUWest)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	base := map[string]string{"t": "500ms", "queueFlush": "10m", "antiEntropy": "1s"}
	for k, v := range params {
		base[k] = v
	}
	if _, err := d.Server.StartInstances(wiera.StartInstancesRequest{
		InstanceID: "bf", PolicySrc: batchFlushSrc, Params: base,
	}); err != nil {
		d.Close()
		return nil, nil, nil, nil, err
	}
	west, err := d.Node("bf/us-west")
	if err != nil {
		d.Close()
		return nil, nil, nil, nil, err
	}
	east, err := d.Node("bf/us-east")
	if err != nil {
		d.Close()
		return nil, nil, nil, nil, err
	}
	eu, err := d.Node("bf/eu-west")
	if err != nil {
		d.Close()
		return nil, nil, nil, nil, err
	}
	return d, west, east, eu, nil
}

// queueBacklog acknowledges keys locally at the writer, leaving them in the
// update queue.
func queueBacklog(n *wiera.Node, prefix string, keys int) error {
	payload := make([]byte, 64)
	for i := 0; i < keys; i++ {
		if _, err := n.Put(context.Background(), fmt.Sprintf("%s/%05d", prefix, i), payload, nil); err != nil {
			return err
		}
	}
	return nil
}

// timedFlush drains the writer's queue and returns the clock-time cost.
func timedFlush(d *Deployment, n *wiera.Node) time.Duration {
	start := d.Clk.Now()
	n.FlushQueue()
	return d.Clk.Now().Sub(start)
}

// BatchFlush runs the group-commit experiment.
func BatchFlush(opts Options) (*BatchFlushResult, error) {
	keys := 1000
	if opts.Quick {
		keys = 200
	}
	res := &BatchFlushResult{Keys: keys, Regions: 3, PartitionKeys: keys / 4}

	// Per-key ablation run: maxBatchBytes=false selects the one-RPC-per-
	// entry flush loop.
	{
		d, west, _, _, err := batchFlushDeploy(map[string]string{"maxBatchBytes": "false"})
		if err != nil {
			return nil, err
		}
		if err := queueBacklog(west, "k", keys); err != nil {
			d.Close()
			return nil, err
		}
		res.PerKeyFlush = timedFlush(d, west)
		d.Close()
	}

	// Batched run on an identical topology, then the partition phase on the
	// same deployment.
	d, west, east, eu, err := batchFlushDeploy(nil)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	if err := queueBacklog(west, "k", keys); err != nil {
		return nil, err
	}
	res.BatchedFlush = timedFlush(d, west)
	if res.BatchedFlush > 0 {
		res.Speedup = float64(res.PerKeyFlush) / float64(res.BatchedFlush)
	}
	if stats, err := d.Server.CollectStats("bf"); err == nil {
		for _, ns := range stats.Nodes {
			if ns.Name == "bf/us-west" {
				res.Chunks, res.Updates = ns.BatchChunks, ns.BatchUpdates
			}
		}
	}

	// Partition phase: acknowledge another backlog while eu-west is
	// unreachable, flush into the partition, and verify no acked write is
	// lost. The flush delivers everything to us-east and keeps the failed
	// eu-west entries in the outbox; heal + retry must close the gap.
	d.Net.Partition(simnet.USWest, simnet.EUWest)
	if err := queueBacklog(west, "p", res.PartitionKeys); err != nil {
		return nil, err
	}
	eastBefore := east.Local().Objects().Len()
	west.FlushQueue()
	res.ReachableKeys = east.Local().Objects().Len() - eastBefore
	d.Net.Heal(simnet.USWest, simnet.EUWest)

	// The retry rides the next flush tick (queueFlush), so poll on a wall
	// deadline (the scaled clock compresses the period 2000x).
	total := keys + res.PartitionKeys
	deadline := time.Now().Add(30 * time.Second)
	for eu.Local().Objects().Len() < total {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.Healed = eu.Local().Objects().Len() >= total
	for i := 0; i < res.PartitionKeys; i++ {
		key := fmt.Sprintf("p/%05d", i)
		for _, n := range []*wiera.Node{west, east, eu} {
			if _, err := n.Local().Objects().Latest(key); err != nil {
				res.LostAckedWrites++
				break
			}
		}
	}
	return res, nil
}

// Render prints the group-commit report.
func (r *BatchFlushResult) Render() string {
	var b strings.Builder
	b.WriteString("Replication group commit (batched flush fan-out, 3 regions)\n")
	fmt.Fprintf(&b, "backlog: %d keys queued at us-west, flushed to %d WAN peers\n\n",
		r.Keys, r.Regions-1)
	rows := [][]string{
		{"per-key fan-out", ms(r.PerKeyFlush), fmt.Sprintf("%d RPCs per peer", r.Keys)},
		{"batched fan-out", ms(r.BatchedFlush), fmt.Sprintf("%d chunks, %d updates", r.Chunks, r.Updates)},
	}
	b.WriteString(table([]string{"flush", "clock ms", "wire"}, rows))
	fmt.Fprintf(&b, "speedup: %.1fx\n\n", r.Speedup)
	fmt.Fprintf(&b, "partition phase: %d acked writes flushed with eu-west unreachable\n", r.PartitionKeys)
	fmt.Fprintf(&b, "  reachable peer delivery: %d/%d immediately; healed: %v; lost acked writes: %d\n",
		r.ReachableKeys, r.PartitionKeys, r.Healed, r.LostAckedWrites)
	return b.String()
}

// ShapeHolds verifies the ISSUE's acceptance floor.
func (r *BatchFlushResult) ShapeHolds() error {
	if r.Speedup < 5 {
		return fmt.Errorf("batchflush: %.1fx speedup, want >=5x", r.Speedup)
	}
	if r.Chunks == 0 || r.Chunks >= int64(r.Keys) {
		return fmt.Errorf("batchflush: %d chunks for %d keys, batching did not collapse RPCs", r.Chunks, r.Keys)
	}
	if r.ReachableKeys != r.PartitionKeys {
		return fmt.Errorf("batchflush: reachable peer got %d/%d keys during partition",
			r.ReachableKeys, r.PartitionKeys)
	}
	if !r.Healed {
		return fmt.Errorf("batchflush: partitioned peer never caught up after heal")
	}
	if r.LostAckedWrites != 0 {
		return fmt.Errorf("batchflush: %d acknowledged writes lost", r.LostAckedWrites)
	}
	return nil
}
