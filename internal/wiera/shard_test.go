package wiera

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// shardedCluster starts an instance with N workers per region and returns a
// colocated client.
func shardedCluster(t *testing.T, id string, workers int) (*cluster, *Client, []PeerInfo) {
	t.Helper()
	// EventualConsistency declares a single region (us-west), so each shard
	// group has one member — the simplest sharded layout.
	c := newCluster(t, simnet.USWest)
	nodes := c.start(t, id, "EventualConsistency", map[string]string{
		"workers": fmt.Sprintf("%d", workers),
	})
	cli, err := NewClient(c.fabric, "cli-"+id, simnet.USWest, c.server.Name(), id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return c, cli, nodes
}

func TestShardedInstanceServesAcrossWorkers(t *testing.T) {
	const workers = 3
	c, cli, nodes := shardedCluster(t, "sh", workers)
	if len(nodes) != workers {
		t.Fatalf("nodes = %v, want %d workers", nodes, workers)
	}
	if cli.RingEpoch() == 0 {
		t.Fatalf("client did not receive a ring (epoch 0)")
	}
	const keys = 120
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if _, err := cli.Put(context.Background(), key, []byte("v:"+key)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%03d", i)
		data, _, err := cli.Get(context.Background(), key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if string(data) != "v:"+key {
			t.Fatalf("get %s = %q", key, data)
		}
	}
	// Every shard in the client's region holds a share of the keyspace.
	rm, err := c.server.Ring("sh")
	if err != nil || rm == nil {
		t.Fatalf("Ring = %v, %v", rm, err)
	}
	if rm.Shards() != workers {
		t.Fatalf("shards = %d, want %d", rm.Shards(), workers)
	}
	for _, name := range rm.Workers[string(simnet.USWest)] {
		n := c.node(t, name)
		if got := n.local.Objects().Len(); got == 0 {
			t.Fatalf("worker %s holds no keys — keyspace not partitioned", name)
		}
	}
}

func TestWrongShardNACK(t *testing.T) {
	c, cli, _ := shardedCluster(t, "ws", 2)
	const key = "nack-probe"
	if _, err := cli.Put(context.Background(), key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	rm, err := c.server.Ring("ws")
	if err != nil {
		t.Fatal(err)
	}
	table := ring.NewTable(rm)
	owner := table.Owner(key)
	wrong := table.WorkerForShard(string(simnet.USWest), 1-owner)
	right := table.WorkerForShard(string(simnet.USWest), owner)

	ep, err := c.fabric.NewEndpoint("prober", simnet.USWest)
	if err != nil {
		t.Fatal(err)
	}
	defer c.fabric.Remove("prober")
	payload, _ := transport.Encode(GetRequest{Key: key})
	_, err = ep.Call(context.Background(), wrong, MethodGet, payload)
	ws := AsWrongShard(err)
	if ws == nil {
		t.Fatalf("direct call to wrong worker: err = %v, want wrong-shard NACK", err)
	}
	if ws.Epoch != rm.Epoch || ws.Shard != owner || ws.Owner != right {
		t.Fatalf("NACK = %+v, want epoch=%d shard=%d owner=%s", ws, rm.Epoch, owner, right)
	}
	// The NACK's redirect serves the op.
	if _, err := ep.Call(context.Background(), ws.Owner, MethodGet, payload); err != nil {
		t.Fatalf("redirect call: %v", err)
	}
}

func TestAddWorkerRebalancesOnline(t *testing.T) {
	c, cli, _ := shardedCluster(t, "grow", 2)
	ctx := context.Background()
	const preKeys = 150
	for i := 0; i < preKeys; i++ {
		key := fmt.Sprintf("pre-%03d", i)
		if _, err := cli.Put(ctx, key, []byte("v1:"+key)); err != nil {
			t.Fatal(err)
		}
	}

	// Writers keep updating while the pool grows; every acked write must
	// survive the rebalance. Each writer owns a third of the keys: two
	// overlapping puts of one key may be acked in either order, so "last
	// acked" would not name the value that must survive.
	c2 := cli
	var acked sync.Map // key -> last acked value
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				key := fmt.Sprintf("pre-%03d", (w+3*i)%preKeys)
				val := fmt.Sprintf("v2:%s:%d:%d", key, w, i)
				if _, err := c2.Put(ctx, key, []byte(val)); err == nil {
					acked.Store(key, val)
				}
			}
		}(w)
	}

	moved, err := c.server.AddWorker("grow")
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("AddWorker: %v", err)
	}
	if moved == 0 {
		t.Fatal("AddWorker moved no keys")
	}
	rm, err := c.server.Ring("grow")
	if err != nil {
		t.Fatal(err)
	}
	if rm.Shards() != 3 {
		t.Fatalf("shards after grow = %d, want 3", rm.Shards())
	}

	// Post-run audit: every key readable, and keys the writers got acked
	// after their last successful Put hold at least that value's key prefix.
	for i := 0; i < preKeys; i++ {
		key := fmt.Sprintf("pre-%03d", i)
		data, _, err := cli.Get(ctx, key)
		if err != nil {
			t.Fatalf("lost key %s after rebalance: %v", key, err)
		}
		if want, ok := acked.Load(key); ok {
			if string(data) != want.(string) {
				t.Fatalf("key %s = %q, want last acked %q", key, data, want)
			}
		}
	}
	// The new shard's workers ended up owning keys.
	for _, region := range rm.Regions() {
		n := c.node(t, rm.Workers[region][2])
		if n.local.Objects().Len() == 0 {
			t.Fatalf("new worker %s owns no keys after rebalance", n.name)
		}
	}
}

func TestRemoveWorkerDrainsEverything(t *testing.T) {
	c, cli, _ := shardedCluster(t, "shrink", 3)
	ctx := context.Background()
	const keys = 100
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k-%03d", i)
		if _, err := cli.Put(ctx, key, []byte("v:"+key)); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := c.server.RemoveWorker("shrink")
	if err != nil {
		t.Fatalf("RemoveWorker: %v", err)
	}
	rm, _ := c.server.Ring("shrink")
	if rm.Shards() != 2 {
		t.Fatalf("shards after shrink = %d, want 2", rm.Shards())
	}
	_ = moved // the leaving shard may own few keys; readability is the check
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k-%03d", i)
		data, _, err := cli.Get(ctx, key)
		if err != nil {
			t.Fatalf("lost key %s after shrink: %v", key, err)
		}
		if string(data) != "v:"+key {
			t.Fatalf("key %s = %q", key, data)
		}
	}
	// Shrinking a one-shard instance is refused.
	c2, _, _ := shardedCluster(t, "mono", 1)
	if _, err := c2.server.RemoveWorker("mono"); err == nil {
		t.Fatal("RemoveWorker on a one-worker instance should fail")
	}
}

func TestStrayUpdateForwarding(t *testing.T) {
	c, cli, _ := shardedCluster(t, "stray", 2)
	ctx := context.Background()
	const key = "stray-key"
	if _, err := cli.Put(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	rm, _ := c.server.Ring("stray")
	table := ring.NewTable(rm)
	owner := table.Owner(key)
	wrongName := table.WorkerForShard(string(simnet.USWest), 1-owner)
	rightName := table.WorkerForShard(string(simnet.USWest), owner)
	right := c.node(t, rightName)
	meta, err := right.local.Objects().Latest(key)
	if err != nil {
		t.Fatal(err)
	}
	// Hand the non-owner an update for a key it does not own (a replayed
	// hint after a rebalance): it must forward, not strand it.
	meta.Version++
	ep, err := c.fabric.NewEndpoint("stray-prober", simnet.USWest)
	if err != nil {
		t.Fatal(err)
	}
	defer c.fabric.Remove("stray-prober")
	payload, _ := transport.Encode(UpdateMsg{Meta: meta, Data: []byte("v2")})
	raw, err := ep.Call(ctx, wrongName, MethodApplyUpdate, payload)
	if err != nil {
		t.Fatalf("apply at non-owner: %v", err)
	}
	var ack UpdateAck
	if err := transport.Decode(raw, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Accepted {
		t.Fatal("stray update not accepted")
	}
	wrong := c.node(t, wrongName)
	if _, err := wrong.local.Objects().Latest(key); err == nil {
		t.Fatal("stray update stranded at non-owner")
	}
	if m, err := right.local.Objects().Latest(key); err != nil || m.Version != meta.Version {
		t.Fatalf("owner latest = %+v, %v; want version %d", m, err, meta.Version)
	}
}

// TestClientRoutingRace hammers keyed routing while the view is swapped
// underneath it; run with -race (make race-ring).
func TestClientRoutingRace(t *testing.T) {
	c, cli, nodes := shardedCluster(t, "race", 2)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := cli.Put(ctx, fmt.Sprintf("r-%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	rm, _ := c.server.Ring("race")
	var wg sync.WaitGroup
	var stop atomic.Bool
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				key := fmt.Sprintf("r-%02d", (g*7+i)%20)
				if _, _, err := cli.Get(ctx, key); err != nil {
					t.Errorf("get %s: %v", key, err)
					return
				}
				_, _ = cli.Closest()
				_ = cli.Nodes()
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		cli.SetNodes(nodes)
		cli.SetRing(rm.Clone())
		if i%10 == 0 {
			_ = cli.Refresh(ctx)
		}
	}
	stop.Store(true)
	wg.Wait()
}
