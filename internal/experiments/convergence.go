package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/object"
	"repro/internal/repair"
	"repro/internal/simnet"
	"repro/internal/wiera"
	"repro/internal/ycsb"
)

// ConvergenceResult measures the anti-entropy subsystem (internal/repair):
// two regions run YCSB-A through a WAN partition, then heal. The harness
// reports time-to-convergence, whether any acknowledged write was lost, and
// the repair traffic of the Merkle digest sync against a naive full-key
// exchange over the same >=10k-key store. The paper's eventual-consistency
// mode (Sec 3.2.3) leaves partitioned replicas permanently diverged; this
// experiment quantifies what closing that gap costs.
type ConvergenceResult struct {
	// Keys is the seeded store size; DivergentKeys counts keys whose
	// replicas disagreed when the partition healed.
	Keys          int
	DivergentKeys int
	// AckedWrites counts puts acknowledged during the partition;
	// LostAckedWrites counts those missing from either replica after
	// convergence (must be zero).
	AckedWrites     int
	LostAckedWrites int
	// Converged reports whether the replicas reached identical
	// (version, mtime) sets; ConvergeTime is the wall time from heal to
	// convergence (the simulated clock runs 2000x wall time, so clock
	// durations here mostly measure sequential WAN message count), and
	// Period the anti-entropy round interval in clock time.
	Converged    bool
	ConvergeTime time.Duration
	Period       time.Duration
	// MerkleBytes is the estimated wire cost of the digest-tree session
	// that reconciled the divergence; NaiveBytes is what a full-key
	// exchange (both replicas shipping complete summary lists) would cost
	// on the same store. DigestRounds is the O(log n) descent depth.
	MerkleBytes  int64
	NaiveBytes   int64
	DigestRounds int
	KeysRepaired int
	// HintsReplayed counts outbox entries delivered after a failed attempt,
	// summed over both nodes.
	HintsReplayed int64
}

// convergenceSrc is the two-region eventual-consistency policy under test.
const convergenceSrc = `
Wiera ConvergenceEventual {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		queue(what: insert.object, to: all_regions);
	}
}`

// ackedStore wraps the YCSB adapter and records every acknowledged put.
type ackedStore struct {
	inner ycsb.Store
	mu    *sync.Mutex
	acked map[string]bool
}

func (s ackedStore) Put(key string, value []byte) error {
	err := s.inner.Put(key, value)
	if err == nil {
		s.mu.Lock()
		s.acked[key] = true
		s.mu.Unlock()
	}
	return err
}

func (s ackedStore) Get(key string) ([]byte, error) { return s.inner.Get(key) }

// snapStore is a frozen copy of one replica's live state, used to replay
// the reconciliation session offline with exact protocol byte accounting.
type snapStore struct{ m map[string]repair.Update }

func (s snapStore) Entries() []repair.Entry {
	out := make([]repair.Entry, 0, len(s.m))
	for _, u := range s.m {
		out = append(out, u.Entry())
	}
	return out
}

func (s snapStore) Load(key string) (repair.Update, bool) {
	u, ok := s.m[key]
	return u, ok
}

func (s snapStore) Apply(u repair.Update) bool {
	if old, ok := s.m[u.Meta.Key]; ok && !object.Newer(u.Meta, old.Meta) {
		return false
	}
	s.m[u.Meta.Key] = u
	return true
}

// snapshotNode freezes a node's latest versions.
func snapshotNode(n *wiera.Node) snapStore {
	s := snapStore{m: make(map[string]repair.Update)}
	objs := n.Local().Objects()
	for _, key := range objs.Keys() {
		meta, err := objs.Latest(key)
		if err != nil {
			continue
		}
		data, meta, err := n.Local().GetVersion(context.Background(), key, meta.Version)
		if err != nil {
			continue
		}
		s.m[key] = repair.Update{Meta: meta, Data: data}
	}
	return s
}

// nodeEntries snapshots a node's (key -> version/mtime/origin) view.
func nodeEntries(n *wiera.Node) map[string]repair.Entry {
	out := make(map[string]repair.Entry)
	objs := n.Local().Objects()
	for _, key := range objs.Keys() {
		if meta, err := objs.Latest(key); err == nil {
			out[key] = repair.EntryOf(meta)
		}
	}
	return out
}

func entriesEqual(a, b map[string]repair.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for k, e := range a {
		if b[k] != e {
			return false
		}
	}
	return true
}

// Convergence runs the partition/heal experiment.
func Convergence(opts Options) (*ConvergenceResult, error) {
	const period = time.Second
	seedKeys := 10000
	ops := 2000
	if opts.Quick {
		ops = 400
	}
	d, err := NewDeployment(2000, simnet.USWest, simnet.USEast)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	nodes, err := d.Server.StartInstances(wiera.StartInstancesRequest{
		InstanceID: "conv", PolicySrc: convergenceSrc,
		Params: map[string]string{
			"t": "500ms", "queueFlush": "250ms", "antiEntropy": "1s",
		},
	})
	if err != nil {
		return nil, err
	}
	var west, east *wiera.Node
	for _, pi := range nodes {
		n, err := d.Node(pi.Name)
		if err != nil {
			return nil, err
		}
		if pi.Region == simnet.USWest {
			west = n
		} else {
			east = n
		}
	}
	res := &ConvergenceResult{Keys: seedKeys, Period: period}

	// Seed both replicas with an identical >=10k-key store directly (no WAN
	// cost): the byte-savings claim is about locating a small divergence
	// inside a large keyspace.
	ctx := context.Background()
	seedTime := d.Clk.Now()
	for i := 0; i < seedKeys; i++ {
		meta := object.Meta{
			Key: fmt.Sprintf("seed/%05d", i), Version: 1, Origin: "seed",
			ModifiedAt: seedTime, Size: 32,
		}
		data := []byte(fmt.Sprintf("seed-value-%05d-padding-padding", i))
		if _, err := west.Local().ApplyRemote(ctx, meta, data); err != nil {
			return nil, err
		}
		if _, err := east.Local().ApplyRemote(ctx, meta, data); err != nil {
			return nil, err
		}
	}

	// YCSB-A records load through the west node and replicate while the
	// WAN is healthy.
	w := shrunkWorkload(ycsb.WorkloadA, 200, 256)
	w.Prefix = "ycsb/"
	var mu sync.Mutex
	acked := make(map[string]bool)
	westCli, err := ycsb.NewClient(w, ackedStore{nodeStore{west}, &mu, acked}, opts.Seed)
	if err != nil {
		return nil, err
	}
	eastCli, err := ycsb.NewClient(w, ackedStore{nodeStore{east}, &mu, acked}, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	if err := westCli.Load(); err != nil {
		return nil, err
	}
	// Deadlines below are wall time: a bulk flush pays one simulated WAN
	// round trip per message, so clock-time deadlines would lapse after a
	// handful of sequential deliveries.
	deadline := time.Now().Add(30 * time.Second)
	for !entriesEqual(nodeEntries(west), nodeEntries(east)) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("convergence: replicas never synced the YCSB load")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Partition, then run YCSB-A on both sides: updates succeed locally,
	// fan-out fails peerward, and the two replicas diverge.
	d.Net.Partition(simnet.USWest, simnet.USEast)
	var wg sync.WaitGroup
	for _, cli := range []*ycsb.Client{westCli, eastCli} {
		wg.Add(1)
		go func(cli *ycsb.Client) {
			defer wg.Done()
			cli.RunOps(ops, d.Clk.Now)
		}(cli)
	}
	wg.Wait()
	// Let the queue flush fail against the partition so undeliverable
	// updates stay in the outboxes as hints.
	time.Sleep(100 * time.Millisecond)

	preWest, preEast := nodeEntries(west), nodeEntries(east)
	for k, e := range preWest {
		if preEast[k] != e {
			res.DivergentKeys++
		}
	}
	for k := range preEast {
		if _, ok := preWest[k]; !ok {
			res.DivergentKeys++
		}
	}

	// Replay the reconciliation offline on frozen snapshots: the same
	// session protocol the daemon runs, with exact byte accounting, against
	// the naive full-exchange cost on the same store.
	st, err := repair.Sync(snapshotNode(west), repair.LocalPeer{S: snapshotNode(east)}, repair.DefaultGeometry)
	if err != nil {
		return nil, err
	}
	res.MerkleBytes = st.TotalBytes()
	res.NaiveBytes = st.FullSyncBytes
	res.DigestRounds = st.Rounds
	res.KeysRepaired = st.KeysRepaired

	// Heal and measure live convergence (outbox retries + Merkle sessions).
	d.Net.Heal(simnet.USWest, simnet.USEast)
	healedAt := time.Now()
	deadline = healedAt.Add(60 * time.Second)
	for {
		if entriesEqual(nodeEntries(west), nodeEntries(east)) {
			res.Converged = true
			res.ConvergeTime = time.Since(healedAt)
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Zero lost acknowledged writes: every key acked during the partition
	// must be present on both replicas.
	mu.Lock()
	res.AckedWrites = len(acked)
	for key := range acked {
		if _, err := west.Local().Objects().Latest(key); err != nil {
			res.LostAckedWrites++
			continue
		}
		if _, err := east.Local().Objects().Latest(key); err != nil {
			res.LostAckedWrites++
		}
	}
	mu.Unlock()

	if stats, err := d.Server.CollectStats("conv"); err == nil {
		for _, ns := range stats.Nodes {
			res.HintsReplayed += ns.HintsReplayed
		}
	}
	return res, nil
}

// Render prints the convergence report.
func (r *ConvergenceResult) Render() string {
	var b strings.Builder
	b.WriteString("Anti-entropy convergence (partition + YCSB-A + heal)\n")
	fmt.Fprintf(&b, "store: %d seeded keys, %d divergent at heal, %d acked partition writes\n",
		r.Keys, r.DivergentKeys, r.AckedWrites)
	fmt.Fprintf(&b, "converged: %v in %s (anti-entropy period %s); lost acked writes: %d\n",
		r.Converged, r.ConvergeTime, r.Period, r.LostAckedWrites)
	fmt.Fprintf(&b, "hints replayed after heal: %d\n\n", r.HintsReplayed)
	b.WriteString("repair traffic on the same divergence (wire-size model):\n")
	rows := [][]string{
		{"Merkle digest sync", fmt.Sprintf("%d", r.MerkleBytes),
			fmt.Sprintf("%d rounds, %d keys moved", r.DigestRounds, r.KeysRepaired)},
		{"naive full-key exchange", fmt.Sprintf("%d", r.NaiveBytes),
			"both replicas ship complete key lists"},
	}
	b.WriteString(table([]string{"strategy", "bytes", "notes"}, rows))
	if r.MerkleBytes > 0 {
		fmt.Fprintf(&b, "savings: %.1fx\n", float64(r.NaiveBytes)/float64(r.MerkleBytes))
	}
	return b.String()
}

// ShapeHolds verifies the experiment's claims.
func (r *ConvergenceResult) ShapeHolds() error {
	if r.Keys < 10000 {
		return fmt.Errorf("convergence: store too small (%d keys, need >=10000)", r.Keys)
	}
	if r.DivergentKeys == 0 {
		return fmt.Errorf("convergence: partition produced no divergence")
	}
	if !r.Converged {
		return fmt.Errorf("convergence: replicas did not converge after heal")
	}
	if r.LostAckedWrites != 0 {
		return fmt.Errorf("convergence: %d acknowledged writes lost", r.LostAckedWrites)
	}
	if r.MerkleBytes >= r.NaiveBytes {
		return fmt.Errorf("convergence: digest sync (%d B) not cheaper than full exchange (%d B)",
			r.MerkleBytes, r.NaiveBytes)
	}
	return nil
}
