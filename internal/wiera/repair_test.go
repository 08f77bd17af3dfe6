package wiera

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/repair"
	"repro/internal/simnet"
)

// eventual2Src is a two-region eventual-consistency policy (the builtin
// EventualConsistency declares only one region; anti-entropy needs peers).
const eventual2Src = `
Wiera EventualTwoRegions {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		queue(what: insert.object, to: all_regions);
	}
}`

// entrySet snapshots a node's (key -> version/mtime/origin) view through
// the same summary the repair subsystem syncs.
func entrySet(n *Node) map[string]repair.Entry {
	out := make(map[string]repair.Entry)
	for _, e := range (nodeStore{n}).Entries() {
		out[e.Key] = e
	}
	return out
}

// waitConverged polls until both nodes hold identical version sets.
func waitConverged(t *testing.T, a, b *Node, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		ea, eb := entrySet(a), entrySet(b)
		if len(ea) == len(eb) {
			same := true
			for k, e := range ea {
				if eb[k] != e {
					same = false
					break
				}
			}
			if same && len(ea) > 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge: %s has %d keys, %s has %d",
				a.Name(), len(entrySet(a)), b.Name(), len(entrySet(b)))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFlushFailureBecomesHintThenReplays(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	nodes := c.startSrc(t, "ev", eventual2Src, map[string]string{"queueFlush": "100ms"})
	if len(nodes) != 2 {
		t.Fatalf("nodes = %v", nodes)
	}
	west := c.node(t, "ev/us-west")
	east := c.node(t, "ev/us-east")

	c.net.Partition(simnet.USWest, simnet.USEast)
	if _, err := west.Put(context.Background(), "k1", []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	// Drive the flush deterministically: delivery to the partitioned east
	// fails, and the update must stay in east's outbox box as a hint, not
	// vanish.
	west.queue.flushNow()
	if got := west.queue.out.Len(); got != 1 {
		t.Fatalf("queue depth = %d, want 1", got)
	}
	if got := int(west.repairMetrics.HintsPending.Value()); got != 1 {
		t.Fatalf("hints = %d, want 1", got)
	}

	c.net.Heal(simnet.USWest, simnet.USEast)
	west.queue.flushNow()
	if got := int(west.repairMetrics.HintsPending.Value()); got != 0 {
		t.Fatalf("hints still pending after heal: %d", got)
	}
	if got := west.repairMetrics.HintsReplayed.Value(); got != 1 {
		t.Fatalf("hints replayed = %d, want 1", got)
	}
	if _, err := east.local.Objects().Latest("k1"); err != nil {
		t.Fatal("east never received the hinted update")
	}
	waitConverged(t, west, east, 2*time.Second)
}

func TestCrashedPeerMidFlushDoesNotLoseUpdate(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	c.startSrc(t, "cr", eventual2Src, map[string]string{"queueFlush": "100ms"})
	west := c.node(t, "cr/us-west")
	east := c.node(t, "cr/us-east")

	if _, err := west.Put(context.Background(), "k1", []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	// Kill the peer while its update is still queued, then flush.
	east.Crash()
	west.queue.flushNow()
	if got := int(west.repairMetrics.HintsPending.Value()); got != 1 {
		t.Fatalf("hints for crashed east = %d, want 1", got)
	}

	// The control plane respawns the replica under a new name and
	// bootstraps it; the update must surface there.
	c.server.HeartbeatOnce()
	respawned := c.node(t, "cr/us-east#2")
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := respawned.local.Objects().Latest("k1"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("respawned replica never received k1")
		}
		time.Sleep(time.Millisecond)
	}
	// The dead name's box is dropped at the first flush under the new
	// membership.
	west.queue.flushNow()
	if got := west.repairMetrics.HintsDropped.Value(); got != 1 || west.queue.out.Len() != 0 {
		t.Fatalf("departed peer's entry not dropped: dropped %d, depth %d", got, west.queue.out.Len())
	}
	waitConverged(t, west, respawned, 2*time.Second)
}

func TestQueueSupersedeKeepsNewestAndBoundsOrder(t *testing.T) {
	c := newCluster(t, simnet.USWest)
	c.start(t, "q", "EventualConsistency", map[string]string{"queueFlush": "10m"})
	n := c.node(t, "q/us-west")
	q := n.queue

	now := time.Now()
	mk := func(ver int64) UpdateMsg {
		return UpdateMsg{Meta: object.Meta{Key: "hot", Version: object.Version(ver),
			ModifiedAt: now.Add(time.Duration(ver)), Origin: n.Name()}}
	}
	q.out.Queue(mk(5))
	// A re-enqueued older version (a late enqueue racing a fresh put) must
	// not clobber the newer queued one.
	q.out.Queue(mk(3))
	// A hot key updated in a loop keeps one entry.
	for v := int64(6); v < 1000; v++ {
		q.out.Queue(mk(v))
	}
	q.out.Queue(mk(3))
	if q.out.Len() != 1 {
		t.Fatalf("queue depth = %d, want 1 for a single hot key", q.out.Len())
	}
	if got := q.out.Spread(nil); len(got) != 1 || got[0].Meta.Version != 999 {
		t.Fatalf("queued %+v, want exactly v999", got)
	}
}

func TestQueueReenqueuesWhenRepairDisabled(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	c.startSrc(t, "nr", eventual2Src, map[string]string{
		"queueFlush": "10m", "antiEntropy": "false"})
	west := c.node(t, "nr/us-west")
	east := c.node(t, "nr/us-east")
	if west.repair != nil {
		t.Fatal("antiEntropy=false must disable the repair subsystem")
	}

	c.net.Partition(simnet.USWest, simnet.USEast)
	if _, err := west.Put(context.Background(), "k1", []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	west.queue.flushNow()
	if west.queue.out.Len() != 1 {
		t.Fatalf("undeliverable update left the outbox: queue len %d", west.queue.out.Len())
	}
	c.net.Heal(simnet.USWest, simnet.USEast)
	west.queue.flushNow()
	if west.queue.out.Len() != 0 {
		t.Fatalf("queue not drained after heal: %d", west.queue.out.Len())
	}
	if _, err := east.local.Objects().Latest("k1"); err != nil {
		t.Fatal("east missing k1 after retried flush")
	}
}

// queueToEastSrc sends each put lazily to one named region instead of all.
const queueToEastSrc = `
Wiera QueueToEast {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		queue(what: insert.object, to: us-east);
	}
}`

// waitPushFailed waits until n's immediate push into the partition has
// failed, so the heal cannot overtake it.
func waitPushFailed(t *testing.T, n *Node) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for n.queue.entryFailures.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the push into the partition never failed")
		}
		time.Sleep(time.Millisecond)
	}
}

// flushUntil calls FlushQueue on n until done holds, failing after a few
// seconds.
func flushUntil(t *testing.T, n *Node, what string, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not delivered after the heal", what)
		}
		n.FlushQueue()
		time.Sleep(time.Millisecond)
	}
}

// TestSingleTargetQueueSurvivesPartitionWithoutRepair: a put acked while
// its one target region was unreachable reaches it after the heal, with the
// repair subsystem off.
func TestSingleTargetQueueSurvivesPartitionWithoutRepair(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	c.startSrc(t, "qe", queueToEastSrc, map[string]string{"queueFlush": "10m", "antiEntropy": "false"})
	west := c.node(t, "qe/us-west")
	east := c.node(t, "qe/us-east")

	c.net.Partition(simnet.USWest, simnet.USEast)
	if _, err := west.Put(context.Background(), "k1", []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	waitPushFailed(t, west)
	c.net.Heal(simnet.USWest, simnet.USEast)
	flushUntil(t, west, "k1", func() bool {
		_, err := east.local.Objects().Latest("k1")
		return err == nil
	})
}

// TestECBundleSurvivesPartitionWithoutRepair: an EC put whose fragment
// bundle push to one member failed during a partition leaves every member
// holding its fragments after the heal, all k+m of them, with the repair
// subsystem off.
func TestECBundleSurvivesPartitionWithoutRepair(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast, simnet.EUWest)
	c.startSrc(t, "ecq", ecStripeSrc, map[string]string{
		"ecThresholdBytes": "4K", "antiEntropy": "false", "queueFlush": "10m"})
	west := c.node(t, "ecq/us-west")
	ctx := context.Background()

	c.net.Partition(simnet.USWest, simnet.EUWest)
	if _, err := west.Put(ctx, "big", ecTestPayload("big", 32<<10), nil); err != nil {
		t.Fatal(err)
	}
	waitPushFailed(t, west)
	c.net.Heal(simnet.USWest, simnet.EUWest)
	members := []*Node{west, c.node(t, "ecq/us-east"), c.node(t, "ecq/eu-west")}
	flushUntil(t, west, "fragments of big", func() bool {
		frags := 0
		for _, n := range members {
			if m, err := n.local.Objects().Latest("big"); err == nil {
				frags += len(m.ECFrags)
			}
		}
		return frags == 6
	})
}

func TestPartitionHealConvergenceEventual(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	c.startSrc(t, "conv", eventual2Src, map[string]string{
		"queueFlush": "100ms", "antiEntropy": "500ms"})
	west := c.node(t, "conv/us-west")
	east := c.node(t, "conv/us-east")
	ctx := context.Background()

	// Baseline keys reach both replicas.
	for i := 0; i < 10; i++ {
		if _, err := west.Put(ctx, fmt.Sprintf("base-%d", i), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, west, east, 5*time.Second)

	// Writes on both sides of a partition: queue flushes fail peerward.
	c.net.Partition(simnet.USWest, simnet.USEast)
	for i := 0; i < 10; i++ {
		if _, err := west.Put(ctx, fmt.Sprintf("west-%d", i), []byte("w"), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := east.Put(ctx, fmt.Sprintf("east-%d", i), []byte("e"), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Conflicting writes to the same key on both sides.
	if _, err := west.Put(ctx, "both", []byte("from-west"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := east.Put(ctx, "both", []byte("from-east"), nil); err != nil {
		t.Fatal(err)
	}
	west.queue.flushNow()
	east.queue.flushNow()

	c.net.Heal(simnet.USWest, simnet.USEast)
	// One anti-entropy period (500ms clock / factor 2000) is microseconds
	// of real time; the 5s real deadline is many periods.
	waitConverged(t, west, east, 5*time.Second)

	// Zero lost acknowledged writes: every acked key is on both replicas.
	for i := 0; i < 10; i++ {
		for _, key := range []string{fmt.Sprintf("west-%d", i), fmt.Sprintf("east-%d", i)} {
			if _, err := west.local.Objects().Latest(key); err != nil {
				t.Fatalf("west missing acked key %s", key)
			}
			if _, err := east.local.Objects().Latest(key); err != nil {
				t.Fatalf("east missing acked key %s", key)
			}
		}
	}
}

func TestPartitionHealConvergencePrimaryBackup(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	c.start(t, "pb", "PrimaryBackupConsistency", map[string]string{"antiEntropy": "500ms"})
	west := c.node(t, "pb/us-west") // primary
	east := c.node(t, "pb/us-east")
	ctx := context.Background()

	if !west.IsPrimary() {
		t.Fatalf("primary = %q", west.Primary())
	}
	for i := 0; i < 5; i++ {
		if _, err := west.Put(ctx, fmt.Sprintf("base-%d", i), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, west, east, 5*time.Second)

	c.net.Partition(simnet.USWest, simnet.USEast)
	// Primary-side puts store locally but fail the synchronous copy; the
	// failed copy must stay in the backup's outbox box.
	for i := 0; i < 5; i++ {
		_, _ = west.Put(ctx, fmt.Sprintf("part-%d", i), []byte("w"), nil)
	}
	if got := west.repairMetrics.HintsPending.Value(); got == 0 {
		t.Fatal("failed primary-backup copies left nothing in the outbox")
	}

	c.net.Heal(simnet.USWest, simnet.USEast)
	waitConverged(t, west, east, 5*time.Second)
	for i := 0; i < 5; i++ {
		if _, err := east.local.Objects().Latest(fmt.Sprintf("part-%d", i)); err != nil {
			t.Fatalf("east missing partition-era key part-%d", i)
		}
	}
}

func TestStaleReadSchedulesReadRepair(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	// Long flush and anti-entropy periods isolate the read-repair path.
	c.startSrc(t, "rr", eventual2Src, map[string]string{
		"queueFlush": "4h", "antiEntropy": "4h"})
	west := c.node(t, "rr/us-west")
	east := c.node(t, "rr/us-east")
	ctx := context.Background()

	if _, err := west.Put(ctx, "k", []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	west.queue.flushNow() // both replicas at version 1
	if _, err := west.Put(ctx, "k", []byte("v2"), nil); err != nil {
		t.Fatal(err) // version 2 only on west; east is now stale
	}

	data, meta, err := east.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v1" || meta.Version != 1 {
		t.Fatalf("expected the stale v1 read, got %q v%d", data, meta.Version)
	}
	if east.StaleReads() != 1 {
		t.Fatalf("stale reads = %d, want 1", east.StaleReads())
	}
	// The stale read schedules an async repair that pulls v2 from west.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if m, err := east.local.Objects().Latest("k"); err == nil && m.Version == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("read repair never brought east to version 2")
		}
		time.Sleep(time.Millisecond)
	}
	if got := east.repair.metrics.ReadRepairs.Value(); got < 1 {
		t.Fatalf("repair_read_repairs_total = %d, want >= 1", got)
	}
}

func TestLocalMissGetAbsorbsVersion(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	c.startSrc(t, "lm", eventual2Src, map[string]string{
		"queueFlush": "4h", "antiEntropy": "4h"})
	west := c.node(t, "lm/us-west")
	east := c.node(t, "lm/us-east")
	ctx := context.Background()

	if _, err := west.Put(ctx, "k", []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	// East has never seen k: the get is served from west and the fetched
	// version is installed locally in the background.
	data, _, err := east.Get(ctx, "k")
	if err != nil || string(data) != "v1" {
		t.Fatalf("get = %q, %v", data, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := east.local.Objects().Latest("k"); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("fetched version was not absorbed locally")
		}
		time.Sleep(time.Millisecond)
	}
}
