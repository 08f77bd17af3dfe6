package wiera

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/coord"
	"repro/internal/policy"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// cluster is a complete in-process Wiera deployment for tests: fabric,
// coordination service, Wiera server, and Tiera servers in the standard
// regions.
type cluster struct {
	clk    clock.Clock
	net    *simnet.Network
	fabric *transport.Fabric
	coord  *coord.Server
	zk     *transport.Endpoint // the coordination service's endpoint
	server *Server
	tss    map[simnet.Region]*TieraServer
}

func newCluster(t *testing.T, regions ...simnet.Region) *cluster {
	return newClusterScaled(t, 2000, regions...)
}

// newClusterScaled lets timing-sensitive tests (threshold monitors) pick a
// smaller compression factor: real-world scheduling noise is multiplied by
// the factor, so monitors comparing clock durations need headroom.
func newClusterScaled(t *testing.T, factor float64, regions ...simnet.Region) *cluster {
	t.Helper()
	return newClusterOn(t, clock.NewScaled(factor), regions...) // factor 2000: 70ms WAN RTT -> 35us real
}

// zeroLatencyClock is real time in which simulated WAN and tier latency cost
// nothing: Sleep returns at once, while background timers keep their real
// periods instead of firing compressed.
type zeroLatencyClock struct{ clock.Real }

func (zeroLatencyClock) Sleep(time.Duration) {}

func newClusterOn(t *testing.T, clk clock.Clock, regions ...simnet.Region) *cluster {
	t.Helper()
	if len(regions) == 0 {
		regions = simnet.DefaultRegions()
	}
	net := simnet.New(clk)
	fabric := transport.NewFabric(net)
	cs := coord.NewServer(clk)
	zkEP, err := fabric.NewEndpoint("zk", simnet.USEast)
	if err != nil {
		t.Fatal(err)
	}
	zkEP.Serve(cs.Handler())
	srv, err := NewServer(ServerConfig{Fabric: fabric, CoordDst: "zk"})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{clk: clk, net: net, fabric: fabric, coord: cs, zk: zkEP, server: srv,
		tss: make(map[simnet.Region]*TieraServer)}
	for _, r := range regions {
		ts, err := NewTieraServer(fabric, r, srv, "zk")
		if err != nil {
			t.Fatal(err)
		}
		c.tss[r] = ts
	}
	t.Cleanup(func() {
		for _, ts := range c.tss {
			ts.Close()
		}
		srv.Close()
		fabric.Close()
	})
	return c
}

// start launches a Wiera instance from a builtin global policy.
func (c *cluster) start(t *testing.T, id, policyName string, params map[string]string) []PeerInfo {
	t.Helper()
	src, err := policy.BuiltinSource(policyName)
	if err != nil {
		t.Fatal(err)
	}
	return c.startSrc(t, id, src, params)
}

func (c *cluster) startSrc(t *testing.T, id, src string, params map[string]string) []PeerInfo {
	t.Helper()
	if params == nil {
		params = map[string]string{}
	}
	if _, ok := params["t"]; !ok {
		params["t"] = "500ms"
	}
	nodes, err := c.server.StartInstances(StartInstancesRequest{
		InstanceID: id, PolicySrc: src, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func (c *cluster) node(t *testing.T, name string) *Node {
	t.Helper()
	n := lookupNode(name)
	if n == nil {
		t.Fatalf("no node %q", name)
	}
	return n
}

func TestStartInstancesSpawnsDeclaredRegions(t *testing.T) {
	c := newCluster(t)
	nodes := c.start(t, "mp", "MultiPrimariesConsistency", nil)
	if len(nodes) != 3 {
		t.Fatalf("nodes = %v", nodes)
	}
	regions := map[simnet.Region]bool{}
	for _, n := range nodes {
		regions[n.Region] = true
	}
	if !regions[simnet.USWest] || !regions[simnet.USEast] || !regions[simnet.EUWest] {
		t.Fatalf("regions = %v", regions)
	}
	// Each node knows its peers.
	n := c.node(t, nodes[0].Name)
	if len(n.Peers()) != 2 {
		t.Fatalf("peers = %v", n.Peers())
	}
	// getInstances returns the same list.
	got, err := c.server.GetInstances("mp")
	if err != nil || len(got) != 3 {
		t.Fatalf("GetInstances = %v, %v", got, err)
	}
}

func TestStartInstancesErrors(t *testing.T) {
	c := newCluster(t)
	if _, err := c.server.StartInstances(StartInstancesRequest{PolicySrc: "x"}); err == nil {
		t.Fatal("missing id should fail")
	}
	if _, err := c.server.StartInstances(StartInstancesRequest{InstanceID: "a", PolicySrc: "not a policy"}); err == nil {
		t.Fatal("bad source should fail")
	}
	localSrc, _ := policy.BuiltinSource("LowLatencyInstance")
	if _, err := c.server.StartInstances(StartInstancesRequest{InstanceID: "a", PolicySrc: localSrc}); err == nil {
		t.Fatal("local policy should fail")
	}
	noRegions := "Wiera Empty { event(insert.into) : response { store(what: insert.object, to: local_instance); } }"
	if _, err := c.server.StartInstances(StartInstancesRequest{InstanceID: "a", PolicySrc: noRegions}); err == nil {
		t.Fatal("no regions should fail")
	}
	c.start(t, "dup", "EventualConsistency", nil)
	src, _ := policy.BuiltinSource("EventualConsistency")
	if _, err := c.server.StartInstances(StartInstancesRequest{InstanceID: "dup", PolicySrc: src, Params: map[string]string{"t": "1s"}}); err == nil {
		t.Fatal("duplicate id should fail")
	}
	if _, err := c.server.GetInstances("ghost"); err == nil {
		t.Fatal("unknown instance should fail")
	}
	if err := c.server.StopInstances("ghost"); err == nil {
		t.Fatal("stopping unknown instance should fail")
	}
}

func TestMultiPrimariesSynchronousReplication(t *testing.T) {
	c := newCluster(t)
	nodes := c.start(t, "mp", "MultiPrimariesConsistency", nil)
	west := c.node(t, nodes[0].Name)
	meta, err := west.Put(context.Background(), "k", []byte("v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 1 {
		t.Fatalf("version = %d", meta.Version)
	}
	// Synchronous: every other node must already have the data.
	for _, pi := range nodes[1:] {
		n := c.node(t, pi.Name)
		data, m, err := n.Local().Get(context.Background(), "k")
		if err != nil || string(data) != "v1" {
			t.Fatalf("node %s: %q, %v", pi.Name, data, err)
		}
		if m.Version != 1 {
			t.Fatalf("node %s version = %d", pi.Name, m.Version)
		}
	}
	// Global lock released after the put (release is asynchronous).
	deadline := time.Now().Add(2 * time.Second)
	for c.coord.Holder("k") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lock still held by %d", c.coord.Holder("k"))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSyncCopyRunsPeersInParallel: with one-way costs a < b to the two
// peers, a MultiPrimaries put's synchronous copy costs about b's round trip,
// not a's plus b's; eachPeer, which it runs on, likewise takes the longest
// of its calls. The clock's sleeps really wait, so a serial loop over the
// peers shows up as the sum.
func TestSyncCopyRunsPeersInParallel(t *testing.T) {
	// Serial would exceed parallel by 2a; the limit between them leaves a of
	// headroom for the lock, the tier and the scheduler, each of whose real
	// delays the clock multiplies by its factor.
	const a, b = 200 * time.Millisecond, 300 * time.Millisecond
	c := newClusterScaled(t, 10, simnet.USEast, simnet.USWest, simnet.EUWest)
	oneWay := map[simnet.Region]time.Duration{simnet.USWest: a, simnet.EUWest: b}
	for r, d := range oneWay {
		c.net.SetRTT(simnet.USEast, r, 2*d)
	}
	var n *Node
	for _, p := range c.start(t, "par", "MultiPrimariesConsistency", nil) {
		if p.Region == simnet.USEast {
			n = c.node(t, p.Name)
		}
	}
	parallel, serial := 2*b, 2*a+2*b
	limit := (parallel + serial) / 2
	// The fastest of three runs: scheduling noise only ever adds.
	fastest := func(run func()) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := c.clk.Now()
			run()
			if d := c.clk.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	put := fastest(func() {
		if _, err := n.Put(context.Background(), "k", []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	})
	if put < parallel || put >= limit {
		t.Errorf("MultiPrimaries put took %v: want about %v (the slower peer), under %v (serial: %v)", put, parallel, limit, serial)
	}
	peers := n.Peers()
	fan := fastest(func() {
		eachPeer(peers, func(_ int, p PeerInfo) { c.clk.Sleep(2 * oneWay[p.Region]) })
	})
	t.Logf("put %v, eachPeer %v (parallel %v, serial %v)", put, fan, parallel, serial)
	if fan < parallel || fan >= limit {
		t.Errorf("eachPeer took %v: want about %v (the slower call), under %v (serial: %v)", fan, parallel, limit, serial)
	}
}

// TestFailedReleaseIsCounted: a release the coordination service refuses
// leaves the key locked for every other region, so the node counts it and
// journals it with the key instead of dropping the error.
func TestFailedReleaseIsCounted(t *testing.T) {
	c := newCluster(t, simnet.USEast, simnet.USWest, simnet.EUWest)
	coordHandler := c.coord.Handler()
	c.zk.Serve(func(ctx context.Context, method string, payload []byte) ([]byte, error) {
		if method == "coord.release" {
			return nil, fmt.Errorf("release refused")
		}
		return coordHandler(ctx, method, payload)
	})
	nodes := c.start(t, "rel", "MultiPrimariesConsistency", nil)
	n := c.node(t, nodes[0].Name)
	if _, err := n.Put(context.Background(), "stuck", []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	// The release is asynchronous: wait for its failure to be filed.
	deadline := time.Now().Add(5 * time.Second)
	for n.releaseFailures.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the failed release was not counted")
		}
		time.Sleep(time.Millisecond)
	}
	if got := n.releaseFailures.Value(); got != 1 {
		t.Fatalf("release failures = %d, want 1", got)
	}
	if c.coord.Holder("stuck") == 0 {
		t.Fatal("the key is unlocked although its release failed")
	}
	var found bool
	for _, ev := range c.fabric.Events().Events(0) {
		if ev.Type == "lock.release_failed" && ev.Attrs["key"] == "stuck" &&
			strings.Contains(ev.Msg, `"stuck"`) && strings.Contains(ev.Msg, "release refused") {
			found = true
		}
	}
	if !found {
		t.Fatal("no lock.release_failed event naming the key and the cause")
	}
}

func TestPrimaryBackupForwarding(t *testing.T) {
	c := newCluster(t)
	nodes := c.start(t, "pb", "PrimaryBackupConsistency", nil)
	var primary, backup *Node
	for _, pi := range nodes {
		n := c.node(t, pi.Name)
		if n.IsPrimary() {
			primary = n
		} else {
			backup = n
		}
	}
	if primary == nil || backup == nil {
		t.Fatal("no primary/backup split")
	}
	// A put at the backup is forwarded to the primary, which stores and
	// fans out synchronously.
	meta, err := backup.Put(context.Background(), "k", []byte("v"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 1 {
		t.Fatalf("version = %d", meta.Version)
	}
	if _, _, err := primary.Local().Get(context.Background(), "k"); err != nil {
		t.Fatalf("primary missing data: %v", err)
	}
	if _, _, err := backup.Local().Get(context.Background(), "k"); err != nil {
		t.Fatalf("backup missing data after sync copy: %v", err)
	}
	if primary.Local().PutCount() == 0 {
		t.Fatal("primary local put count is zero")
	}
}

func TestEventualConsistencyQueueAndConvergence(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	src := `
Wiera EventualConsistency {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		queue(what: insert.object, to: all_regions);
	}
}`
	nodes := c.startSrc(t, "ev", src, nil)
	west := c.node(t, nodes[0].Name)
	east := c.node(t, nodes[1].Name)
	if _, err := west.Put(context.Background(), "k", []byte("from-west"), nil); err != nil {
		t.Fatal(err)
	}
	// Not yet replicated (queued).
	if _, _, err := east.Local().Get(context.Background(), "k"); err == nil {
		t.Log("replication already happened (flush raced); acceptable")
	}
	west.queue.flushNow()
	data, _, err := east.Local().Get(context.Background(), "k")
	if err != nil || string(data) != "from-west" {
		t.Fatalf("east after flush: %q, %v", data, err)
	}
	// Concurrent writes at both sides converge under LWW after flushes.
	if _, err := west.Put(context.Background(), "c", []byte("west"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := east.Put(context.Background(), "c", []byte("east"), nil); err != nil {
		t.Fatal(err)
	}
	west.queue.flushNow()
	east.queue.flushNow()
	west.queue.flushNow() // LWW redelivery is harmless
	dw, mw, err := west.Local().Get(context.Background(), "c")
	if err != nil {
		t.Fatal(err)
	}
	de, me, err := east.Local().Get(context.Background(), "c")
	if err != nil {
		t.Fatal(err)
	}
	if mw.Version != me.Version || string(dw) != string(de) {
		t.Fatalf("replicas diverge: %q(v%d) vs %q(v%d)", dw, mw.Version, de, me.Version)
	}
}

func TestQueueSupersedesOlderVersions(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	nodes := c.start(t, "ev", "EventualConsistency", nil)
	_ = nodes
	west := c.node(t, "ev/us-west")
	for i := 0; i < 5; i++ {
		if _, err := west.Put(context.Background(), "k", []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := west.queue.Len(); got != 1 {
		t.Fatalf("queue keys = %d, want 1 (superseded)", got)
	}
}

func TestClientClosestAndFailover(t *testing.T) {
	c := newCluster(t)
	c.start(t, "mp", "MultiPrimariesConsistency", nil)
	cli, err := NewClient(c.fabric, "client-1", simnet.EUWest, c.server.Name(), "mp")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	closest, err := cli.Closest()
	if err != nil || closest != "mp/eu-west" {
		t.Fatalf("closest = %q, %v", closest, err)
	}
	if _, err := cli.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	data, _, err := cli.Get(context.Background(), "k")
	if err != nil || string(data) != "v" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	vs, err := cli.VersionList(context.Background(), "k")
	if err != nil || len(vs) != 1 {
		t.Fatalf("VersionList = %v, %v", vs, err)
	}
	if _, _, err := cli.GetVersion(context.Background(), "k", 1); err != nil {
		t.Fatal(err)
	}
	// Kill the closest node: the client fails over to the next one.
	c.node(t, "mp/eu-west").Crash()
	data, _, err = cli.Get(context.Background(), "k")
	if err != nil || string(data) != "v" {
		t.Fatalf("Get after crash = %q, %v", data, err)
	}
	if err := cli.RemoveVersion(context.Background(), "k", 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.Remove(context.Background(), "k"); err == nil {
		t.Log("remove after removeVersion cleaned key") // version was the only one
	}
}

func TestDynamicConsistencySwitch(t *testing.T) {
	c := newClusterScaled(t, 40)
	dyn, _ := policy.BuiltinSource("DynamicConsistency")
	nodes := c.start(t, "dc", "MultiPrimariesConsistency", map[string]string{"dynamic": dyn})
	west := c.node(t, nodes[0].Name)

	// Normal operation: stays on MultiPrimaries.
	for i := 0; i < 3; i++ {
		if _, err := west.Put(context.Background(), fmt.Sprintf("k%d", i), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := c.server.CurrentPolicy("dc"); got != "MultiPrimariesConsistency" {
		t.Fatalf("policy = %q", got)
	}

	// Inject a large delay on the west-east path: puts from west now take
	// >800ms. Sustained for >30s (clock time) it must switch to eventual.
	c.net.InjectDelay(simnet.USWest, simnet.USEast, 2*time.Second)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := west.Put(context.Background(), "hot", []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
		if got, _ := c.server.CurrentPolicy("dc"); got == "EventualConsistency" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never switched to eventual consistency")
		}
	}
	if got := west.PolicyName(); got != "EventualConsistency" {
		t.Fatalf("west policy = %q", got)
	}

	// Clear the delay: after sustained fast puts it must switch back.
	c.net.ClearDelay(simnet.USWest, simnet.USEast)
	deadline = time.Now().Add(15 * time.Second)
	for {
		if _, err := west.Put(context.Background(), "hot", []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
		if got, _ := c.server.CurrentPolicy("dc"); got == "MultiPrimariesConsistency" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never switched back to multi-primaries")
		}
	}
}

func TestChangePrimaryOnForwardedMajority(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.EUWest, simnet.AsiaEast)
	dyn, _ := policy.BuiltinSource("ChangePrimary")
	// Primary starts in Asia East (as in the paper's Sec 5.2); EU West
	// then sends the bulk of the traffic.
	src := `
Wiera PrimaryBackupConsistency {
	Region1 = {name: LowLatencyInstance, region: asia-east, primary: true,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: eu-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region3 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	event(insert.into) : response {
		if (local_instance.isPrimary == true) {
			store(what: insert.object, to: local_instance);
			queue(what: insert.object, to: all_regions);
		} else {
			forward(what: insert.object, to: primary_instance);
		}
	}
}`
	// Use a short period threshold so the test converges quickly.
	shortDyn := strings.Replace(dyn, "600s", "2s", 1)
	c.startSrc(t, "cp", src, map[string]string{"dynamic": shortDyn})
	if p, _ := c.server.CurrentPrimary("cp"); p != "cp/asia-east" {
		t.Fatalf("initial primary = %q", p)
	}
	eu := c.node(t, "cp/eu-west")
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; ; i++ {
		if _, err := eu.Put(context.Background(), fmt.Sprintf("k%d", i%8), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
		if p, _ := c.server.CurrentPrimary("cp"); p == "cp/eu-west" {
			break
		}
		if time.Now().After(deadline) {
			p, _ := c.server.CurrentPrimary("cp")
			t.Fatalf("primary never moved to eu-west (still %q)", p)
		}
	}
	// New primary serves local puts without forwarding.
	if !eu.IsPrimary() {
		t.Fatal("eu node does not consider itself primary")
	}
}

func TestHeartbeatRespawnsFailedReplica(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	nodes := c.start(t, "ha", "EventualConsistency", nil)
	if len(nodes) != 1 {
		// EventualConsistency builtin declares one region; use a two-region
		// source instead.
		t.Fatalf("unexpected node count %d", len(nodes))
	}
	c.server.StopInstances("ha")

	src := `
Wiera TwoRegions {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		copy(what: insert.object, to: all_regions);
	}
}`
	nodes = c.startSrc(t, "ha2", src, nil)
	west := c.node(t, "ha2/us-west")
	if _, err := west.Put(context.Background(), "k", []byte("precious"), nil); err != nil {
		t.Fatal(err)
	}
	// Kill the east replica and run a heartbeat sweep.
	c.node(t, "ha2/us-east").Crash()
	c.server.HeartbeatOnce()
	got, err := c.server.GetInstances("ha2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("membership after respawn = %v", got)
	}
	var respawned string
	for _, n := range got {
		if n.Region == simnet.USEast {
			respawned = n.Name
		}
	}
	if respawned == "" || respawned == "ha2/us-east" {
		t.Fatalf("no respawned east node in %v", got)
	}
	// The respawned replica bootstrapped the data from a live peer.
	nn := c.node(t, respawned)
	data, _, err := nn.Local().Get(context.Background(), "k")
	if err != nil || string(data) != "precious" {
		t.Fatalf("respawned node data = %q, %v", data, err)
	}
}

func TestHeartbeatPromotesNewPrimary(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	src := `
Wiera PB2 {
	Region1 = {name: LowLatencyInstance, region: us-west, primary: true,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	event(insert.into) : response {
		if (local_instance.isPrimary == true) {
			store(what: insert.object, to: local_instance);
			copy(what: insert.object, to: all_regions);
		} else {
			forward(what: insert.object, to: primary_instance);
		}
	}
}`
	c.startSrc(t, "pb2", src, map[string]string{"minReplicas": "1"})
	// Force min replicas to 1 so the dead primary is not respawned.
	c.server.mu.Lock()
	c.server.instances["pb2"].minReplicas = 1
	c.server.mu.Unlock()

	c.node(t, "pb2/us-west").Crash()
	c.server.HeartbeatOnce()
	p, err := c.server.CurrentPrimary("pb2")
	if err != nil {
		t.Fatal(err)
	}
	if p != "pb2/us-east" {
		t.Fatalf("promoted primary = %q", p)
	}
	east := c.node(t, "pb2/us-east")
	if !east.IsPrimary() {
		t.Fatal("east does not know it is primary")
	}
	// Puts still work.
	if _, err := east.Put(context.Background(), "k", []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
}

func TestStopInstancesShutsDownNodes(t *testing.T) {
	c := newCluster(t)
	nodes := c.start(t, "tmp", "MultiPrimariesConsistency", nil)
	if err := c.server.StopInstances("tmp"); err != nil {
		t.Fatal(err)
	}
	// Give the async shutdowns a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if lookupNode(nodes[0].Name) == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("nodes not shut down")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGetForwardingPolicy(t *testing.T) {
	// Sec 5.4 setting: gets at the Azure node are forwarded to the AWS
	// memory node.
	c := newCluster(t, simnet.AzureUSEast, simnet.USEast)
	src := `
Wiera RemoteMemory {
	Region1 = {name: PersistentInstance, region: azure-us-east, primary: true};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	event(insert.into) : response {
		if (local_instance.isPrimary == true) {
			store(what: insert.object, to: local_instance);
			copy(what: insert.object, to: all_regions);
		} else {
			forward(what: insert.object, to: primary_instance);
		}
	}
	event(get.from) : response {
		forward(what: get.key, to: us-east);
	}
}`
	c.startSrc(t, "rm", src, nil)
	azure := c.node(t, "rm/azure-us-east")
	aws := c.node(t, "rm/us-east")
	if _, err := azure.Put(context.Background(), "k", []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	awsGetsBefore := aws.Local().GetCount()
	data, _, err := azure.Get(context.Background(), "k")
	if err != nil || string(data) != "v" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if aws.Local().GetCount() != awsGetsBefore+1 {
		t.Fatal("get was not forwarded to the AWS node")
	}
}

func TestNodeConfigValidation(t *testing.T) {
	c := newCluster(t, simnet.USEast)
	g, _ := policy.Builtin("EventualConsistency")
	l, _ := policy.Builtin("LowLatencyInstance")
	if _, err := NewNode(NodeConfig{}); err == nil {
		t.Fatal("missing fabric should fail")
	}
	if _, err := NewNode(NodeConfig{Fabric: c.fabric, GlobalSpec: l}); err == nil {
		t.Fatal("local spec as global should fail")
	}
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
	// Single node, no peers: puts work locally, queue flushes are no-ops.
	if _, err := n.Put(context.Background(), "k", []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	n.queue.flushNow()
	data, _, err := n.Get(context.Background(), "k")
	if err != nil || string(data) != "v" {
		t.Fatalf("solo get = %q, %v", data, err)
	}
}

func TestRespawnName(t *testing.T) {
	if got := respawnName("x/us-east"); got != "x/us-east#2" {
		t.Fatalf("respawnName = %q", got)
	}
	if got := respawnName("x/us-east#2"); got != "x/us-east#3" {
		t.Fatalf("respawnName = %q", got)
	}
}

func TestMergeTierOverrides(t *testing.T) {
	base, _ := policy.Builtin("LowLatencyInstance")
	merged := mergeTierOverrides(base, []policy.TierDecl{
		{Label: "tier1", Attrs: []policy.Attr{{Name: "name", Val: policy.IdentVal("memory")}, {Name: "size", Val: policy.SizeVal(1 << 20)}}},
		{Label: "tier9", Attrs: []policy.Attr{{Name: "name", Val: policy.IdentVal("s3")}}},
	})
	if len(merged.Tiers) != 3 {
		t.Fatalf("tiers = %d", len(merged.Tiers))
	}
	v, _ := policy.FindAttr(merged.Tiers[0].Attrs, "size")
	if v.Size != 1<<20 {
		t.Fatalf("override lost: %v", v)
	}
	// Base spec unchanged.
	v, _ = policy.FindAttr(base.Tiers[0].Attrs, "size")
	if v.Size != 5<<30 {
		t.Fatalf("base mutated: %v", v)
	}
	if same := mergeTierOverrides(base, nil); same != base {
		t.Fatal("no-override merge should return the base spec")
	}
}

func TestServerRPCInterface(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	ep, err := c.fabric.NewEndpoint("app", simnet.USWest)
	if err != nil {
		t.Fatal(err)
	}
	src := `
Wiera Two {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		queue(what: insert.object, to: all_regions);
	}
}`
	payload, _ := transport.Encode(StartInstancesRequest{
		InstanceID: "rpc", PolicySrc: src, Params: map[string]string{"t": "1s"},
	})
	raw, err := ep.Call(context.Background(), "wiera", MethodStartInstances, payload)
	if err != nil {
		t.Fatal(err)
	}
	var resp StartInstancesResponse
	if err := transport.Decode(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 2 {
		t.Fatalf("nodes = %v", resp.Nodes)
	}
	payload, _ = transport.Encode(GetInstancesRequest{InstanceID: "rpc"})
	if _, err := ep.Call(context.Background(), "wiera", MethodGetInstances, payload); err != nil {
		t.Fatal(err)
	}
	payload, _ = transport.Encode(StopInstancesRequest{InstanceID: "rpc"})
	if _, err := ep.Call(context.Background(), "wiera", MethodStopInstances, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Call(context.Background(), "wiera", "bogus", nil); err == nil {
		t.Fatal("unknown method should fail")
	}
}

func TestOpGate(t *testing.T) {
	g := newOpGate()
	if _, err := g.enter(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		g.freeze()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("freeze returned while an op was active")
	case <-time.After(10 * time.Millisecond):
	}
	g.exit()
	<-done
	// New entries block while frozen.
	entered := make(chan error, 1)
	go func() { _, err := g.enter(); entered <- err }()
	select {
	case <-entered:
		t.Fatal("enter succeeded while frozen")
	case <-time.After(10 * time.Millisecond):
	}
	g.thaw()
	if err := <-entered; err != nil {
		t.Fatal(err)
	}
	g.exit()
	// kill unblocks with an error.
	g.freeze()
	killed := make(chan error, 1)
	go func() { _, err := g.enter(); killed <- err }()
	time.Sleep(5 * time.Millisecond)
	g.kill()
	if err := <-killed; err == nil {
		t.Fatal("enter after kill should fail")
	}
}

func TestCollectStats(t *testing.T) {
	c := newCluster(t)
	nodes := c.start(t, "st", "MultiPrimariesConsistency", nil)
	west := c.node(t, nodes[0].Name)
	for i := 0; i < 5; i++ {
		if _, err := west.Put(context.Background(), fmt.Sprintf("k%d", i), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := west.Get(context.Background(), "k0"); err != nil {
		t.Fatal(err)
	}
	stats, err := c.server.CollectStats("st")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(stats.Nodes))
	}
	var westStats *NodeStats
	for i := range stats.Nodes {
		if stats.Nodes[i].Name == nodes[0].Name {
			westStats = &stats.Nodes[i]
		}
	}
	if westStats == nil || westStats.Puts != 5 || westStats.Gets != 1 {
		t.Fatalf("west stats = %+v", westStats)
	}
	if westStats.PutMeanMs <= 0 {
		t.Fatal("no put latency recorded")
	}
	if westStats.Keys != 5 {
		t.Fatalf("keys = %d", westStats.Keys)
	}
	// The network monitor reports inter-node RTTs.
	if len(stats.RTTms) != 6 { // 3 nodes, 6 directed pairs
		t.Fatalf("rtt pairs = %d", len(stats.RTTms))
	}
	if ms := stats.RTTms[nodes[0].Name+"->"+nodes[1].Name]; ms <= 0 {
		t.Fatalf("rtt = %v", ms)
	}
	if out := stats.Render(); !strings.Contains(out, "network monitor") {
		t.Fatalf("render missing sections:\n%s", out)
	}
	if _, err := c.server.CollectStats("ghost"); err == nil {
		t.Fatal("unknown instance should fail")
	}
}

func TestPartitionHealEventualConvergence(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	src := `
Wiera EventualConsistency {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		queue(what: insert.object, to: all_regions);
	}
}`
	c.startSrc(t, "ph", src, nil)
	west := c.node(t, "ph/us-west")
	east := c.node(t, "ph/us-east")

	// Partition the replicas, then write on both sides.
	c.net.Partition(simnet.USWest, simnet.USEast)
	if _, err := west.Put(context.Background(), "k", []byte("west-during-partition"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := east.Put(context.Background(), "k", []byte("east-during-partition"), nil); err != nil {
		t.Fatal(err)
	}
	west.queue.flushNow() // delivery fails (unreachable); must not crash
	if _, _, err := east.Local().Get(context.Background(), "k"); err != nil {
		t.Fatal("east lost its own write during partition")
	}

	// Heal and overwrite once more; the system must converge.
	c.net.Heal(simnet.USWest, simnet.USEast)
	if _, err := west.Put(context.Background(), "k", []byte("after-heal"), nil); err != nil {
		t.Fatal(err)
	}
	west.queue.flushNow()
	east.queue.flushNow()
	dw, mw, err := west.Local().Get(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	de, me, err := east.Local().Get(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if mw.Version != me.Version || string(dw) != string(de) {
		t.Fatalf("diverged after heal: %q(v%d) vs %q(v%d)", dw, mw.Version, de, me.Version)
	}
}

func TestPolicyChangeUnderConcurrentLoad(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	src := `
Wiera EventualConsistency {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		queue(what: insert.object, to: all_regions);
	}
}`
	c.startSrc(t, "pc", src, nil)
	west := c.node(t, "pc/us-west")

	// Writers hammer while the server swaps the consistency model twice.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var putErrs, putOK atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := west.Put(context.Background(), fmt.Sprintf("w%d-k%d", w, i%16), []byte("v"), nil); err != nil {
					putErrs.Add(1)
				} else {
					putOK.Add(1)
				}
			}
		}(w)
	}
	for i := 0; i < 3; i++ {
		target := "MultiPrimariesConsistency"
		if i%2 == 1 {
			target = "EventualConsistency"
		}
		if err := c.server.ApplyChange(ChangeRequestMsg{
			InstanceID: "pc", What: "consistency", To: target, From: "test",
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if putErrs.Load() > 0 {
		t.Fatalf("%d puts failed during policy changes", putErrs.Load())
	}
	if putOK.Load() == 0 {
		t.Fatal("no puts completed")
	}
	// Final state: multi-primaries (i=2 set it back).
	if got := west.PolicyName(); got != "MultiPrimariesConsistency" {
		t.Fatalf("final policy = %q", got)
	}
	// Writes still work after the churn and replicate synchronously now.
	if _, err := west.Put(context.Background(), "final", []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	east := c.node(t, "pc/us-east")
	if _, _, err := east.Local().Get(context.Background(), "final"); err != nil {
		t.Fatal("synchronous replication broken after policy churn")
	}
}

func TestSnapshotSyncTransfersAllKeys(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	src := `
Wiera Solo {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
	}
}`
	c.startSrc(t, "sn", src, nil)
	west := c.node(t, "sn/us-west")
	east := c.node(t, "sn/us-east")
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := west.Put(context.Background(), key, []byte(key+"-data"), nil); err != nil {
			t.Fatal(err)
		}
	}
	// No replication policy: east is empty until it syncs a snapshot.
	if _, _, err := east.Local().Get(context.Background(), "k0"); err == nil {
		t.Fatal("east should be empty before sync")
	}
	if err := east.SyncFrom(west.Name()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		data, _, err := east.Local().Get(context.Background(), key)
		if err != nil || string(data) != key+"-data" {
			t.Fatalf("after sync, %s = %q, %v", key, data, err)
		}
	}
}

// Sec 3.2.2 modular instances: a second Wiera instance mounts the first
// one's node as a read-only storage tier (the paper's RAW-BIG-DATA /
// INTERMEDIATE-DATA assembly).
func TestModularInstanceAcrossWieraInstances(t *testing.T) {
	c := newCluster(t, simnet.USEast)
	// The raw-data instance: a durable store holding the input data set.
	rawSrc := `
Wiera RawBigData {
	Region1 = {name: PersistentInstance, region: us-east};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
	}
}`
	// Not startSrc: it binds t, which PersistentInstance does not declare.
	if _, err := c.server.StartInstances(StartInstancesRequest{InstanceID: "bigdata", PolicySrc: rawSrc}); err != nil {
		t.Fatal(err)
	}
	raw := c.node(t, "bigdata/us-east")
	if _, err := raw.Put(context.Background(), "input-000", []byte("raw bytes"), nil); err != nil {
		t.Fatal(err)
	}

	// The intermediate instance mounts bigdata's node as read-only tier2.
	interLocal := `
Tiera IntermediateData {
	tier1: {name: memory, size: 1G};
	tier2: {name: instance, ref: "bigdata/us-east", readonly: true};
}`
	interGlobal := `
Wiera Intermediate {
	Region1 = {name: IntermediateData, region: us-east};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
	}
}`
	nodes, err := c.server.StartInstances(StartInstancesRequest{
		InstanceID: "inter", PolicySrc: interGlobal,
		LocalSpecs: map[string]string{"IntermediateData": interLocal},
		Params:     map[string]string{},
	})
	if err != nil {
		t.Fatal(err)
	}
	inter := c.node(t, nodes[0].Name)

	// Reads of raw data fall through tier1 (miss) to the mounted instance.
	data, _, err := inter.Local().Get(context.Background(), "input-000")
	if err != nil || string(data) != "raw bytes" {
		t.Fatalf("read through instance tier = %q, %v", data, err)
	}
	// Intermediate results land in the local memory tier, not in bigdata.
	if _, err := inter.Put(context.Background(), "result-000", []byte("derived"), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := raw.Local().Get(context.Background(), "result-000"); err == nil {
		t.Fatal("write leaked into the read-only backing instance")
	}
	// The read-only tier rejects writes directly.
	t2, ok := inter.Local().Tier("tier2")
	if !ok {
		t.Fatal("tier2 missing")
	}
	if err := t2.Put(context.Background(), "x", []byte("y")); err == nil {
		t.Fatal("read-only instance tier accepted a write")
	}
	// A dangling ref fails cleanly.
	badLocal := `
Tiera Bad {
	tier1: {name: instance, ref: "no/such/node"};
}`
	badGlobal := `
Wiera BadG {
	Region1 = {name: Bad, region: us-east};
	event(insert.into) : response { store(what: insert.object, to: local_instance); }
}`
	if _, err := c.server.StartInstances(StartInstancesRequest{
		InstanceID: "bad", PolicySrc: badGlobal,
		LocalSpecs: map[string]string{"Bad": badLocal},
	}); err == nil {
		t.Fatal("dangling instance ref should fail")
	}
}

func TestStartInstancesTeardownOnPartialFailure(t *testing.T) {
	// Only us-west has a Tiera server; a policy also requesting eu-west
	// must fail and tear down the node it already spawned.
	c := newCluster(t, simnet.USWest)
	src := `
Wiera Partial {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 1G}, tier2 = {name: ebs-ssd, size: 1G}};
	Region2 = {name: LowLatencyInstance, region: eu-west,
		tier1 = {name: memory, size: 1G}, tier2 = {name: ebs-ssd, size: 1G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
	}
}`
	if _, err := c.server.StartInstances(StartInstancesRequest{
		InstanceID: "partial", PolicySrc: src, Params: map[string]string{"t": "1s"},
	}); err == nil {
		t.Fatal("start with a missing region server should fail")
	}
	// The spawned us-west node must have been shut down.
	deadline := time.Now().Add(2 * time.Second)
	for lookupNode("partial/us-west") != nil {
		if time.Now().After(deadline) {
			t.Fatal("partially spawned node not torn down")
		}
		time.Sleep(time.Millisecond)
	}
	// The instance id is reusable after the failure.
	if _, err := c.server.GetInstances("partial"); err == nil {
		t.Fatal("failed instance should not be registered")
	}
}

func TestMinReplicasParam(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	src := `
Wiera Two {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 1G}, tier2 = {name: ebs-ssd, size: 1G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 1G}, tier2 = {name: ebs-ssd, size: 1G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
	}
}`
	c.startSrc(t, "mr", src, map[string]string{"minReplicas": "1"})
	// Kill one replica: with minReplicas=1 the heartbeat must NOT respawn.
	c.node(t, "mr/us-east").Crash()
	c.server.HeartbeatOnce()
	nodes, err := c.server.GetInstances("mr")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].Name != "mr/us-west" {
		t.Fatalf("membership = %v, want just us-west (minReplicas=1)", nodes)
	}
}
