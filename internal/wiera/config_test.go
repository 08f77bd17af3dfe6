package wiera

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/simnet"
)

// pbThree is a three-region primary-backup policy led by us-west.
const pbThree = `
Wiera PB3 {
	Region1 = {name: LowLatencyInstance, region: us-west, primary: true,
		tier1 = {name: memory, size: 1G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 1G}};
	Region3 = {name: LowLatencyInstance, region: eu-west,
		tier1 = {name: memory, size: 1G}};
	event(insert.into) : response {
		if (local_instance.isPrimary == true) {
			store(what: insert.object, to: local_instance);
			copy(what: insert.object, to: all_regions);
		} else {
			forward(what: insert.object, to: primary_instance);
		}
	}
}`

// TestSpawnedWorkersRunCurrentPolicy: a worker spawned after a consistency
// switch — by a grow or by a heartbeat respawn — starts on the instance's
// current config and so runs the policy in force, not the one the instance
// was started with.
func TestSpawnedWorkersRunCurrentPolicy(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast, simnet.EUWest)
	c.start(t, "sw", "MultiPrimariesConsistency", nil)
	if err := c.server.ApplyChange(ChangeRequestMsg{
		InstanceID: "sw", What: "consistency", To: "EventualConsistency", From: "test",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.server.AddWorker("sw"); err != nil {
		t.Fatal(err)
	}
	c.node(t, "sw/us-east").Crash()
	c.server.HeartbeatOnce()

	want, err := c.server.CurrentPolicy("sw")
	if err != nil || want != "EventualConsistency" {
		t.Fatalf("CurrentPolicy = %q, %v", want, err)
	}
	nodes, _, err := c.server.InstanceView("sw")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 6 || !slices.ContainsFunc(nodes, func(n PeerInfo) bool { return n.Name == "sw/us-east#2" }) {
		t.Fatalf("members after grow and respawn = %v", nodes)
	}
	for _, n := range nodes {
		if got := c.node(t, n.Name).PolicyName(); got != want {
			t.Errorf("%s runs %q, want %q", n.Name, got, want)
		}
	}
}

// TestStaleConfigIgnored: a config delivered after a newer one — a
// reordered push — leaves the node on the newer one's primary and peers.
func TestStaleConfigIgnored(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast, simnet.EUWest)
	c.startSrc(t, "st", pbThree, nil)
	n := c.node(t, "st/us-west")
	cur := n.shards.config()

	newer := cur.clone()
	newer.Map.Epoch = cur.Epoch() + 2
	newer.PrimaryRegion = simnet.USEast
	newer.Members = slices.DeleteFunc(newer.Members, func(m PeerInfo) bool { return m.Region == simnet.EUWest })
	older := cur.clone()
	older.Map.Epoch = cur.Epoch() + 1
	older.PrimaryRegion = simnet.EUWest

	for _, cfg := range []InstanceConfig{newer, older} {
		if err := c.server.push(cfg, []PeerInfo{{Name: n.Name(), Region: n.Region()}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Primary(); got != "st/us-east" {
		t.Errorf("primary = %q, want st/us-east (epoch %d)", got, newer.Epoch())
	}
	if got := n.Peers(); len(got) != 1 || got[0].Name != "st/us-east" {
		t.Errorf("peers = %v, want [st/us-east] (epoch %d)", got, newer.Epoch())
	}
	if got := n.shards.ringEpoch(); got != newer.Epoch() {
		t.Errorf("installed epoch = %d, want %d", got, newer.Epoch())
	}
}

// TestRespawnRacesPrimaryMove runs a heartbeat respawn and a primary move at
// once, in orders a seed picks. The two share one checkout: whichever loses
// is retried after both return. Afterwards every member's peers and primary
// are what the server's config derives, and the respawned worker is in its
// group peers' lists.
func TestRespawnRacesPrimaryMove(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := newCluster(t, simnet.USWest, simnet.USEast, simnet.EUWest)
			c.startSrc(t, "rp", pbThree, map[string]string{"workers": "2"})
			c.node(t, "rp/eu-west/w1").Crash()

			yields := [2]int{rng.Intn(4096), rng.Intn(4096)}
			move := ChangeRequestMsg{InstanceID: "rp", What: "primary_instance", To: "rp/us-east", From: "test"}
			var moveErr error
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for range yields[0] {
					runtime.Gosched()
				}
				c.server.HeartbeatOnce()
			}()
			go func() {
				defer wg.Done()
				for range yields[1] {
					runtime.Gosched()
				}
				moveErr = c.server.ApplyChange(move)
			}()
			wg.Wait()
			if moveErr != nil {
				if AsRebalanceInProgress(moveErr) == nil {
					t.Fatal(moveErr)
				}
				if err := c.server.ApplyChange(move); err != nil {
					t.Fatal(err)
				}
			}
			c.server.HeartbeatOnce() // a no-op unless the first round lost the checkout

			c.server.mu.Lock()
			cfg := c.server.instances["rp"].cfg.clone()
			c.server.mu.Unlock()
			if p, _ := c.server.CurrentPrimary("rp"); p != "rp/us-east" {
				t.Fatalf("primary = %q, want rp/us-east", p)
			}
			const respawned = "rp/eu-west/w1#2"
			if !slices.ContainsFunc(cfg.Members, func(m PeerInfo) bool { return m.Name == respawned }) {
				t.Fatalf("members = %v, want %s among them", cfg.Members, respawned)
			}
			for _, m := range cfg.Members {
				node := c.node(t, m.Name)
				shard := cfg.Map.ShardOf(string(m.Region), m.Name)
				if got, want := node.Primary(), cfg.primaryOf(shard); got != want {
					t.Errorf("%s: primary %q, want %q", m.Name, got, want)
				}
				want := slices.DeleteFunc(cfg.group(shard), func(p PeerInfo) bool { return p.Name == m.Name })
				if got := node.Peers(); !slices.Equal(got, want) {
					t.Errorf("%s: peers %v, want %v", m.Name, got, want)
				}
				if shard == 1 && m.Name != respawned &&
					!slices.ContainsFunc(node.Peers(), func(p PeerInfo) bool { return p.Name == respawned }) {
					t.Errorf("%s: peers %v lack %s", m.Name, node.Peers(), respawned)
				}
			}
		})
	}
}

// TestLocalChangeWithoutServer: a node with no Wiera server applies a
// change_policy itself, as its own config one epoch on.
func TestLocalChangeWithoutServer(t *testing.T) {
	c := newCluster(t, simnet.USEast)
	g, _ := policy.Builtin("MultiPrimariesConsistency")
	l, _ := policy.Builtin("LowLatencyInstance")
	params, err := ParseParams(map[string]string{"t": "1s"}, l, g)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(NodeConfig{
		Name: "solo", Region: simnet.USEast, Fabric: c.fabric,
		LocalSpec: l, GlobalSpec: g, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	epoch := n.shards.ringEpoch()
	if err := n.requestPolicyChangeVia("consistency", "EventualConsistency", ""); err != nil {
		t.Fatal(err)
	}
	if err := n.requestPolicyChangeVia("primary_instance", "solo", ""); err != nil {
		t.Fatal(err)
	}
	if n.PolicyName() != "EventualConsistency" || !n.IsPrimary() || n.shards.ringEpoch() != epoch+2 {
		t.Fatalf("policy %q, primary %v, epoch %d (was %d)", n.PolicyName(), n.IsPrimary(), n.shards.ringEpoch(), epoch)
	}
	if err := n.requestPolicyChangeVia("primary_instance", "elsewhere", ""); err == nil {
		t.Fatal("a primary outside the membership was accepted")
	}
}
