package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/simnet"
	"repro/internal/wiera"
)

// ECCostResult compares full 3x replication against erasure coding with
// the per-object replication/EC chooser (DESIGN.md Sec 9). Two identical
// three-region deployments store the same mixed workload — large cold
// objects, small objects, and hot rewritten objects — one under plain
// store+queue replication, one under the stripe action with EC(4+2).
// The harness audits physical placement per object, prices both layouts
// at Table 4 storage rates, then severs an entire region and re-reads
// every erasure-coded object through parity reconstruction, including
// objects acknowledged during the partition.
type ECCostResult struct {
	// Workload shape: LargeKeys cold objects of LargeSize bytes (the EC
	// candidates), SmallKeys of SmallSize bytes (below the size
	// threshold), HotKeys of LargeSize bytes read past the heat gate and
	// then rewritten.
	LargeKeys int
	LargeSize int64
	SmallKeys int
	SmallSize int64
	HotKeys   int

	// Chooser classification at the writer: large cold objects stored
	// erasure-coded, small objects kept replicated, hot rewrites kept
	// replicated despite their size.
	LargeEC   int
	SmallRepl int
	HotRepl   int

	// Physical bytes across all three regions for the large cold objects
	// only (the equal-durability comparison the cost claim is about), and
	// their Table 4 monthly storage cost.
	ReplBytes     int64
	ECBytes       int64
	ReplMonthly   float64
	ECMonthly     float64
	CostReduction float64

	// Region-loss audit: with eu-west fully severed, every erasure-coded
	// object must read back byte-identical via parity reconstruction.
	// PartitionPuts are additional objects acknowledged during the
	// partition (their eu-west fragments kept in the outbox); LostAckedWrites counts
	// objects unreadable during the loss or missing anywhere after heal
	// (must be zero). Reconstructs is the writer's ec_reconstructs_total.
	AuditedDuringLoss int
	PartitionPuts     int
	Reconstructs      int64
	LostAckedWrites   int
	Healed            bool
}

// ecCostReplSrc is the replication baseline: every object fully copied to
// all three regions (lazily, like EventualConsistency).
const ecCostReplSrc = `
Wiera ECCostRepl {
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

// ecCostStripeSrc is the EC instance: the stripe action runs the
// per-object chooser (same topology and tiers as the baseline).
const ecCostStripeSrc = `
Wiera ECCostStripe {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}};
	Region3 = {name: LowLatencyInstance, region: eu-west,
		tier1 = {name: memory, size: 5G}};
	event(insert.into) : response {
		stripe(what: insert.object, to: all_regions);
	}
}`

// ecPayload builds a deterministic payload so reconstruction can be
// verified byte-for-byte.
func ecPayload(key string, size int64) []byte {
	out := make([]byte, size)
	seed := byte(len(key))
	for _, c := range []byte(key) {
		seed = seed*31 + c
	}
	for i := range out {
		out[i] = seed + byte(i%251)
	}
	return out
}

// ecCostDeploy starts one instance over a fresh three-region deployment.
func ecCostDeploy(id, src string) (*Deployment, *wiera.Node, []*wiera.Node, error) {
	d, err := NewDeployment(2000, simnet.USWest, simnet.USEast, simnet.EUWest)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := d.Server.StartInstances(wiera.StartInstancesRequest{
		InstanceID: id, PolicySrc: src,
		Params: map[string]string{"t": "500ms", "queueFlush": "50ms", "antiEntropy": "1s"},
	}); err != nil {
		d.Close()
		return nil, nil, nil, err
	}
	var nodes []*wiera.Node
	for _, r := range []simnet.Region{simnet.USWest, simnet.USEast, simnet.EUWest} {
		n, err := d.Node(id + "/" + string(r))
		if err != nil {
			d.Close()
			return nil, nil, nil, err
		}
		nodes = append(nodes, n)
	}
	return d, nodes[0], nodes, nil
}

// waitKeys polls until every node holds at least want keys (fan-out and
// outbox retries are asynchronous), on a wall-clock deadline.
func waitKeys(nodes []*wiera.Node, want int, deadline time.Duration) bool {
	until := time.Now().Add(deadline)
	for {
		done := true
		for _, n := range nodes {
			if n.Local().Objects().Len() < want {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if time.Now().After(until) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// physicalBytes sums the physical payload bytes every node stores for the
// given keys (the fragment bundle for EC versions, the full object for
// replicas). Keys a node does not hold contribute nothing.
func physicalBytes(nodes []*wiera.Node, keys []string) int64 {
	var total int64
	for _, n := range nodes {
		for _, k := range keys {
			if m, err := n.Local().Objects().Latest(k); err == nil {
				total += m.StoredBytes()
			}
		}
	}
	return total
}

// ECCost runs the replication-vs-EC storage experiment.
func ECCost(opts Options) (*ECCostResult, error) {
	res := &ECCostResult{
		LargeKeys: 24, LargeSize: 256 << 10,
		SmallKeys: 30, SmallSize: 4 << 10,
		HotKeys: 4, PartitionPuts: 4,
	}
	if opts.Quick {
		res.LargeKeys, res.SmallKeys, res.HotKeys = 8, 10, 2
	}
	largeKey := func(i int) string { return fmt.Sprintf("large/%04d", i) }
	smallKey := func(i int) string { return fmt.Sprintf("small/%04d", i) }
	hotKey := func(i int) string { return fmt.Sprintf("hot/%04d", i) }
	var largeKeys []string
	for i := 0; i < res.LargeKeys; i++ {
		largeKeys = append(largeKeys, largeKey(i))
	}
	totalKeys := res.LargeKeys + res.SmallKeys + res.HotKeys

	ctx := context.Background()
	loadMixed := func(w *wiera.Node) error {
		for i := 0; i < res.LargeKeys; i++ {
			if _, err := w.Put(ctx, largeKey(i), ecPayload(largeKey(i), res.LargeSize), nil); err != nil {
				return err
			}
		}
		for i := 0; i < res.SmallKeys; i++ {
			if _, err := w.Put(ctx, smallKey(i), ecPayload(smallKey(i), res.SmallSize), nil); err != nil {
				return err
			}
		}
		for i := 0; i < res.HotKeys; i++ {
			if _, err := w.Put(ctx, hotKey(i), ecPayload(hotKey(i), res.LargeSize), nil); err != nil {
				return err
			}
		}
		return nil
	}

	// Baseline: plain 3x replication of the identical workload.
	{
		d, west, nodes, err := ecCostDeploy("repl", ecCostReplSrc)
		if err != nil {
			return nil, err
		}
		if err := loadMixed(west); err != nil {
			d.Close()
			return nil, err
		}
		west.FlushQueue()
		if !waitKeys(nodes, totalKeys, 30*time.Second) {
			d.Close()
			return nil, fmt.Errorf("eccost: replication baseline never converged")
		}
		res.ReplBytes = physicalBytes(nodes, largeKeys)
		d.Close()
	}

	// EC instance: same workload through the stripe chooser.
	d, west, nodes, err := ecCostDeploy("ec", ecCostStripeSrc)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	if err := loadMixed(west); err != nil {
		return nil, err
	}
	west.FlushQueue()
	if !waitKeys(nodes, totalKeys, 30*time.Second) {
		return nil, fmt.Errorf("eccost: EC instance never converged")
	}

	// Heat the hot objects past the chooser's gate, then rewrite them: the
	// new versions must come back as full replicas despite their size.
	for i := 0; i < res.HotKeys; i++ {
		for r := 0; r < 6; r++ {
			if _, _, err := west.Get(ctx, hotKey(i)); err != nil {
				return nil, fmt.Errorf("eccost: heating %s: %w", hotKey(i), err)
			}
		}
	}
	for i := 0; i < res.HotKeys; i++ {
		if _, err := west.Put(ctx, hotKey(i), ecPayload(hotKey(i)+"!v2", res.LargeSize), nil); err != nil {
			return nil, err
		}
	}
	west.FlushQueue()

	// Chooser classification audit at the writer.
	for i := 0; i < res.LargeKeys; i++ {
		if m, err := west.Local().Objects().Latest(largeKey(i)); err == nil && m.IsEC() {
			res.LargeEC++
		}
	}
	for i := 0; i < res.SmallKeys; i++ {
		if m, err := west.Local().Objects().Latest(smallKey(i)); err == nil && !m.IsEC() {
			res.SmallRepl++
		}
	}
	for i := 0; i < res.HotKeys; i++ {
		if m, err := west.Local().Objects().Latest(hotKey(i)); err == nil && m.Version >= 2 && !m.IsEC() {
			res.HotRepl++
		}
	}

	// Storage bytes and Table 4 monthly cost for the large cold objects.
	res.ECBytes = physicalBytes(nodes, largeKeys)
	res.ReplMonthly, _ = cost.StorageMonthly(cost.ClassMemory, float64(res.ReplBytes)/float64(1<<30))
	res.ECMonthly, _ = cost.StorageMonthly(cost.ClassMemory, float64(res.ECBytes)/float64(1<<30))
	if res.ECBytes > 0 {
		res.CostReduction = float64(res.ReplBytes) / float64(res.ECBytes)
	}

	// Region loss: sever eu-west from both surviving regions, acknowledge
	// a few more large writes (their eu-west fragments wait in the outbox), and
	// re-read every erasure-coded object from the writer. Each read must
	// reconstruct the fragments the lost region held from parity.
	d.Net.Partition(simnet.USWest, simnet.EUWest)
	d.Net.Partition(simnet.USEast, simnet.EUWest)
	partKey := func(i int) string { return fmt.Sprintf("part/%04d", i) }
	for i := 0; i < res.PartitionPuts; i++ {
		if _, err := west.Put(ctx, partKey(i), ecPayload(partKey(i), res.LargeSize), nil); err != nil {
			return nil, err
		}
	}
	audit := append([]string(nil), largeKeys...)
	for i := 0; i < res.PartitionPuts; i++ {
		audit = append(audit, partKey(i))
	}
	for _, k := range audit {
		data, _, err := west.Get(ctx, k)
		if err != nil || !bytes.Equal(data, ecPayload(k, res.LargeSize)) {
			res.LostAckedWrites++
			continue
		}
		res.AuditedDuringLoss++
	}
	if stats, err := d.Server.CollectStats("ec"); err == nil {
		for _, ns := range stats.Nodes {
			res.Reconstructs += ns.ECReconstructs
		}
	}

	// Heal; the outbox must deliver eu-west its fragment bundles of the
	// partition-era writes.
	d.Net.Heal(simnet.USWest, simnet.EUWest)
	d.Net.Heal(simnet.USEast, simnet.EUWest)
	eu := nodes[2]
	wantEU := totalKeys + res.PartitionPuts
	res.Healed = waitKeys([]*wiera.Node{eu}, wantEU, 30*time.Second)
	for i := 0; i < res.PartitionPuts; i++ {
		if _, err := eu.Local().Objects().Latest(partKey(i)); err != nil {
			res.LostAckedWrites++
		}
	}
	return res, nil
}

// Render prints the storage-cost report.
func (r *ECCostResult) Render() string {
	var b strings.Builder
	b.WriteString("Erasure-coded storage vs 3x replication (3 regions, EC 4+2)\n")
	fmt.Fprintf(&b, "workload: %d large cold x %d KiB, %d small x %d KiB, %d hot rewritten\n\n",
		r.LargeKeys, r.LargeSize>>10, r.SmallKeys, r.SmallSize>>10, r.HotKeys)
	rows := [][]string{
		{"3x replication", fmt.Sprintf("%d", r.ReplBytes), fmt.Sprintf("%.4f", r.ReplMonthly)},
		{"EC(4+2) stripe", fmt.Sprintf("%d", r.ECBytes), fmt.Sprintf("%.4f", r.ECMonthly)},
	}
	b.WriteString(table([]string{"layout (large cold objects)", "physical bytes", "$/month"}, rows))
	fmt.Fprintf(&b, "storage-cost reduction: %.2fx (floor 1.8x)\n\n", r.CostReduction)
	fmt.Fprintf(&b, "chooser: %d/%d large erasure-coded, %d/%d small replicated, %d/%d hot rewrites replicated\n",
		r.LargeEC, r.LargeKeys, r.SmallRepl, r.SmallKeys, r.HotRepl, r.HotKeys)
	fmt.Fprintf(&b, "region loss (eu-west severed): %d/%d objects read back intact (%d via parity reconstruction)\n",
		r.AuditedDuringLoss, r.LargeKeys+r.PartitionPuts, r.Reconstructs)
	fmt.Fprintf(&b, "  %d writes acked during the partition; healed: %v; lost acked writes: %d\n",
		r.PartitionPuts, r.Healed, r.LostAckedWrites)
	return b.String()
}

// ShapeHolds verifies the ISSUE's acceptance floors.
func (r *ECCostResult) ShapeHolds() error {
	if r.CostReduction < 1.8 {
		return fmt.Errorf("eccost: %.2fx storage-cost reduction, want >= 1.8x", r.CostReduction)
	}
	if r.LargeEC != r.LargeKeys {
		return fmt.Errorf("eccost: chooser erasure-coded %d/%d large cold objects", r.LargeEC, r.LargeKeys)
	}
	if r.SmallRepl != r.SmallKeys {
		return fmt.Errorf("eccost: chooser kept %d/%d small objects replicated", r.SmallRepl, r.SmallKeys)
	}
	if r.HotRepl != r.HotKeys {
		return fmt.Errorf("eccost: chooser kept %d/%d hot rewrites replicated", r.HotRepl, r.HotKeys)
	}
	if r.AuditedDuringLoss != r.LargeKeys+r.PartitionPuts {
		return fmt.Errorf("eccost: only %d/%d objects reconstructed during region loss",
			r.AuditedDuringLoss, r.LargeKeys+r.PartitionPuts)
	}
	if r.Reconstructs == 0 {
		return fmt.Errorf("eccost: no parity reconstructions recorded during region loss")
	}
	if !r.Healed {
		return fmt.Errorf("eccost: severed region never caught up after heal")
	}
	if r.LostAckedWrites != 0 {
		return fmt.Errorf("eccost: %d acknowledged writes lost", r.LostAckedWrites)
	}
	return nil
}
