package wiera

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// heatCluster starts a sharded single-region instance with heat tracking
// on. The heat interval is set far beyond the test's runtime so the
// background loop stays dormant and tests drive tick() deterministically.
func heatCluster(t *testing.T, id string, workers int, params map[string]string) (*cluster, *Client) {
	t.Helper()
	c := newCluster(t, simnet.USWest)
	p := map[string]string{
		"workers":   fmt.Sprintf("%d", workers),
		"heatTrack": "true", "heatInterval": "120h",
	}
	for k, v := range params {
		p[k] = v
	}
	c.start(t, id, "EventualConsistency", p)
	cli, err := NewClient(c.fabric, "cli-"+id, simnet.USWest, c.server.Name(), id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return c, cli
}

// waitFor polls cond for up to five (real) seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// heatPair resolves key's owner and its single replica target in a
// two-worker instance.
func heatPair(t *testing.T, c *cluster, id, key string) (own, rep *Node) {
	t.Helper()
	rm, err := c.server.Ring(id)
	if err != nil {
		t.Fatal(err)
	}
	table := ring.NewTable(rm)
	shard := table.Owner(key)
	ownName := table.WorkerForShard(string(simnet.USWest), shard)
	repName := table.WorkerForShard(string(simnet.USWest), 1-shard)
	return c.node(t, ownName), c.node(t, repName)
}

func TestHotKeyPromotionServesFromReplica(t *testing.T) {
	c, cli := heatCluster(t, "hot", 2, map[string]string{
		"heatPromoteRate": "30", "heatDemoteRate": "10", "heatReplicas": "1",
	})
	ctx := context.Background()
	const key = "hot-key"
	if _, err := cli.Put(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	own, rep := heatPair(t, c, "hot", key)
	if own.heat == nil || rep.heat == nil {
		t.Fatal("heatTrack param did not enable the tracker")
	}

	// Before promotion the non-owner NACKs a direct get for the key.
	ep, err := c.fabric.NewEndpoint("heat-prober", simnet.USWest)
	if err != nil {
		t.Fatal(err)
	}
	defer c.fabric.Remove("heat-prober")
	payload, _ := transport.Encode(GetRequest{Key: key})
	if _, err := ep.Call(ctx, rep.name, MethodGet, payload); AsWrongShard(err) == nil {
		t.Fatalf("pre-promotion direct get at non-owner: err = %v, want wrong-shard", err)
	}

	// First tick only syncs the ring epoch (an epoch change retires
	// promotions); hammering afterwards builds the heat that the second
	// tick turns into a promotion.
	own.heat.tick()
	for i := 0; i < 100; i++ {
		if _, _, err := cli.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	own.heat.tick()

	replicas := own.heat.replicasFor(key)
	if len(replicas) != 1 || replicas[0] != rep.name {
		t.Fatalf("replicasFor(%s) = %v, want [%s]", key, replicas, rep.name)
	}
	if hs := rep.heat.statsSnapshot(); hs.cached != 1 {
		t.Fatalf("replica cached = %d, want 1", hs.cached)
	}

	// The replica now answers the get from its hot cache — no NACK.
	raw, err := ep.Call(ctx, rep.name, MethodGet, payload)
	if err != nil {
		t.Fatalf("post-promotion direct get at replica: %v", err)
	}
	var resp GetResponse
	if err := transport.Decode(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "v1" {
		t.Fatalf("replica served %q, want v1", resp.Data)
	}
	if hs := rep.heat.statsSnapshot(); hs.hotGets != 1 {
		t.Fatalf("replica hotGets = %d, want 1", hs.hotGets)
	}

	// The owner's response advertises the replica set; the client caches it
	// and rotates subsequent reads across the copies.
	if _, _, err := cli.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	if hint := cli.hotHint(key); len(hint) != 1 || hint[0] != rep.name {
		t.Fatalf("client hint = %v, want [%s]", hint, rep.name)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := cli.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	if hs := rep.heat.statsSnapshot(); hs.hotGets < 2 {
		t.Fatalf("rotation never reached the replica (hotGets = %d)", hs.hotGets)
	}
}

func TestHotKeyDemotionTombstonesReplica(t *testing.T) {
	c, cli := heatCluster(t, "cool", 2, map[string]string{
		"heatPromoteRate": "30", "heatDemoteRate": "10", "heatReplicas": "1",
	})
	ctx := context.Background()
	const key = "cooling-key"
	if _, err := cli.Put(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	own, rep := heatPair(t, c, "cool", key)
	own.heat.tick()
	for i := 0; i < 100; i++ {
		if _, _, err := cli.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	own.heat.tick()
	if len(own.heat.replicasFor(key)) == 0 {
		t.Fatal("key never promoted")
	}
	if hint := cli.hotHint(key); hint == nil {
		// Learn the hint before the demotion so the stale-hint recovery
		// below actually has something to recover from.
		if _, _, err := cli.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}

	// No further traffic: the decaying sketch cools the key below the
	// demote threshold within a few ticks.
	for i := 0; i < 6; i++ {
		own.heat.tick()
	}
	if got := own.heat.replicasFor(key); len(got) != 0 {
		t.Fatalf("key still promoted after cooling: %v", got)
	}
	if hs := own.heat.statsSnapshot(); hs.demotions != 1 {
		t.Fatalf("owner demotions = %d, want 1", hs.demotions)
	}
	if hs := rep.heat.statsSnapshot(); hs.cached != 0 {
		t.Fatalf("replica still caches %d hot keys after drop", hs.cached)
	}

	// A stale install racing the drop must not resurrect the replica.
	meta, err := own.local.Objects().Latest(key)
	if err != nil {
		t.Fatal(err)
	}
	rep.heat.handleInstall(HotInstallMsg{Meta: meta, Data: []byte("zombie"), Owner: own.name})
	if hs := rep.heat.statsSnapshot(); hs.cached != 0 {
		t.Fatal("tombstone did not block a racing install")
	}

	// The client's cached hint is now stale; the demoted replica NACKs,
	// the hint is dropped, and the read recovers via the owner.
	for i := 0; i < 4 && cli.hotHint(key) != nil; i++ {
		data, _, err := cli.Get(ctx, key)
		if err != nil {
			t.Fatalf("get with stale hint: %v", err)
		}
		if string(data) != "v1" {
			t.Fatalf("get with stale hint = %q", data)
		}
	}
	if hint := cli.hotHint(key); hint != nil {
		t.Fatalf("stale hint survived: %v", hint)
	}
}

func TestHotReplicaRefreshAfterPut(t *testing.T) {
	c, cli := heatCluster(t, "fresh", 2, map[string]string{
		"heatPromoteRate": "30", "heatDemoteRate": "10", "heatReplicas": "1",
	})
	ctx := context.Background()
	const key = "fresh-key"
	if _, err := cli.Put(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	own, rep := heatPair(t, c, "fresh", key)
	own.heat.tick()
	for i := 0; i < 100; i++ {
		if _, _, err := cli.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	own.heat.tick()
	if len(own.heat.replicasFor(key)) == 0 {
		t.Fatal("key never promoted")
	}
	if _, err := cli.Put(ctx, key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// afterPut refreshes the replica asynchronously; poll the cache.
	waitFor(t, "hot replica refresh", func() bool {
		data, _, ok := rep.heat.serveHot(key)
		return ok && string(data) == "v2"
	})
}

func TestRebalanceInProgressTypedNACK(t *testing.T) {
	c, _, _ := shardedCluster(t, "busy", 2)
	c.server.mu.Lock()
	c.server.instances["busy"].rebalancing = true
	c.server.mu.Unlock()

	_, err := c.server.AddWorker("busy")
	nack := AsRebalanceInProgress(err)
	if nack == nil || nack.InstanceID != "busy" {
		t.Fatalf("AddWorker during rebalance: err = %v, want typed NACK", err)
	}
	if _, err := c.server.RemoveWorker("busy"); AsRebalanceInProgress(err) == nil {
		t.Fatalf("RemoveWorker during rebalance: err = %v, want typed NACK", err)
	}

	// The NACK is its status code, not its text: wrapping keeps it, an error
	// that merely reads the same is something else.
	if got := AsRebalanceInProgress(fmt.Errorf("wiera: retries exhausted: %w", err)); got == nil || got.InstanceID != "busy" {
		t.Fatalf("wrapping lost the NACK: %v", err)
	}
	if AsRebalanceInProgress(errors.New(err.Error())) != nil {
		t.Fatal("error text alone classified as rebalance NACK")
	}

	// Clearing the guard lets the next membership change through.
	c.server.mu.Lock()
	c.server.instances["busy"].rebalancing = false
	c.server.mu.Unlock()
	if _, err := c.server.AddWorker("busy"); err != nil {
		t.Fatalf("AddWorker after settle: %v", err)
	}
}
