package wiera

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/object"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// eventual3Src is a three-region eventual-consistency policy: the shape the
// batched flush is built for (every queued update fans out to two WAN
// peers).
const eventual3Src = `
Wiera EventualThreeRegions {
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

func TestChunkUpdates(t *testing.T) {
	b := &updateQueue{maxBytes: 1000}
	msg := func(n int) *UpdateMsg {
		return &UpdateMsg{Data: make([]byte, n)}
	}

	if got := b.chunkUpdates(nil); got != nil {
		t.Fatalf("chunk(nil) = %v", got)
	}

	// Byte cap: entries of 400B payload (+overhead 64) pack two per chunk.
	chunks := b.chunkUpdates([]*UpdateMsg{msg(400), msg(400), msg(400), msg(400), msg(400)})
	if len(chunks) != 3 || len(chunks[0]) != 2 || len(chunks[1]) != 2 || len(chunks[2]) != 1 {
		t.Fatalf("byte-cap chunks = %v", lens(chunks))
	}

	// A single oversized entry still ships alone.
	chunks = b.chunkUpdates([]*UpdateMsg{msg(5000), msg(10)})
	if len(chunks) != 2 || len(chunks[0]) != 1 || len(chunks[1]) != 1 {
		t.Fatalf("oversized chunks = %v", lens(chunks))
	}

	// Entry cap: tiny entries split at maxBatchEntries.
	big := &updateQueue{maxBytes: 1 << 30}
	many := make([]*UpdateMsg, maxBatchEntries+5)
	for i := range many {
		many[i] = msg(0)
	}
	chunks = big.chunkUpdates(many)
	if len(chunks) != 2 || len(chunks[0]) != maxBatchEntries || len(chunks[1]) != 5 {
		t.Fatalf("entry-cap chunks = %v", lens(chunks))
	}

	// Order is preserved across chunk boundaries.
	ordered := make([]*UpdateMsg, 0, 10)
	for i := 0; i < 10; i++ {
		ordered = append(ordered, &UpdateMsg{
			Meta: object.Meta{Key: fmt.Sprintf("k%d", i), Version: 1},
			Data: make([]byte, 400),
		})
	}
	i := 0
	for _, c := range b.chunkUpdates(ordered) {
		for _, m := range c {
			if m.Meta.Key != fmt.Sprintf("k%d", i) {
				t.Fatalf("entry %d has key %q", i, m.Meta.Key)
			}
			i++
		}
	}
	if i != 10 {
		t.Fatalf("chunks dropped entries: %d of 10", i)
	}
}

func lens(chunks [][]*UpdateMsg) []int {
	out := make([]int, len(chunks))
	for i, c := range chunks {
		out[i] = len(c)
	}
	return out
}

func TestBatchedFlushDeliversAllKeys(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast, simnet.EUWest)
	c.startSrc(t, "bf", eventual3Src, map[string]string{"queueFlush": "10m"})
	west := c.node(t, "bf/us-west")
	east := c.node(t, "bf/us-east")
	eu := c.node(t, "bf/eu-west")

	const keys = 300
	for i := 0; i < keys; i++ {
		if _, err := west.Put(context.Background(), fmt.Sprintf("k%03d", i), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := west.QueueDepth(); got != keys {
		t.Fatalf("queue depth = %d, want %d", got, keys)
	}
	west.FlushQueue()
	if got := west.QueueDepth(); got != 0 {
		t.Fatalf("queue not drained: %d", got)
	}
	for _, peer := range []*Node{east, eu} {
		if got := peer.local.Objects().Len(); got != keys {
			t.Fatalf("%s holds %d keys, want %d", peer.Name(), got, keys)
		}
	}
	// Group commit actually grouped: 300 updates to 2 peers at 128
	// entries/chunk is 6 RPCs, not 600.
	wantChunks := int64(2 * ((keys + maxBatchEntries - 1) / maxBatchEntries))
	if got := west.queue.chunks.Value(); got != wantChunks {
		t.Fatalf("batch chunks = %d, want %d", got, wantChunks)
	}
	if got := west.queue.updates.Value(); got != int64(2*keys) {
		t.Fatalf("batch updates = %d, want %d", got, 2*keys)
	}
}

func TestBatchedFlushPartialFailureHintsOnlyFailedEntries(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast, simnet.EUWest)
	c.startSrc(t, "pf", eventual3Src, map[string]string{"queueFlush": "10m"})
	west := c.node(t, "pf/us-west")
	east := c.node(t, "pf/us-east")
	eu := c.node(t, "pf/eu-west")

	const keys = 10
	c.net.Partition(simnet.USWest, simnet.USEast)
	for i := 0; i < keys; i++ {
		if _, err := west.Put(context.Background(), fmt.Sprintf("k%d", i), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	west.FlushQueue()
	// The reachable peer received every entry despite the failed one.
	if got := eu.local.Objects().Len(); got != keys {
		t.Fatalf("eu-west holds %d keys, want %d", got, keys)
	}
	// Only the partitioned peer's entries stay, as hints — exactly all of
	// them.
	if got := int(west.repairMetrics.HintsPending.Value()); got != keys {
		t.Fatalf("hints = %d, want %d", got, keys)
	}
	if got := west.queue.entryFailures.Value(); got != int64(keys) {
		t.Fatalf("entry failures = %d, want %d", got, keys)
	}

	// Heal: the next flush retries east's box, and only it: eu-west's
	// entries left with their acks. Zero lost acked writes.
	c.net.Heal(simnet.USWest, simnet.USEast)
	shipped := west.queue.updates.Value()
	west.FlushQueue()
	if got := west.queue.updates.Value() - shipped; got != keys {
		t.Fatalf("the retry shipped %d updates, want %d (east's only)", got, keys)
	}
	if got := east.local.Objects().Len(); got != keys {
		t.Fatalf("east holds %d keys after the retry, want %d", got, keys)
	}
	if got := west.QueueDepth(); got != 0 {
		t.Fatalf("queue not drained after the retry: %d", got)
	}
}

func TestBatchedFlushRequeuesWithoutRepair(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	c.startSrc(t, "rq", eventual2Src, map[string]string{
		"queueFlush": "10m", "antiEntropy": "false",
	})
	west := c.node(t, "rq/us-west")
	east := c.node(t, "rq/us-east")
	if west.repair != nil {
		t.Fatal("repair should be disabled")
	}

	c.net.Partition(simnet.USWest, simnet.USEast)
	const keys = 5
	for i := 0; i < keys; i++ {
		if _, err := west.Put(context.Background(), fmt.Sprintf("k%d", i), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	west.FlushQueue()
	// Without the repair subsystem the failed entries still stay in east's
	// box for the next flush.
	if got := west.QueueDepth(); got != keys {
		t.Fatalf("queue depth after failed flush = %d, want %d (still pending)", got, keys)
	}
	c.net.Heal(simnet.USWest, simnet.USEast)
	west.FlushQueue()
	if got := west.QueueDepth(); got != 0 {
		t.Fatalf("queue depth after healed flush = %d, want 0", got)
	}
	if got := east.local.Objects().Len(); got != keys {
		t.Fatalf("east holds %d keys, want %d", got, keys)
	}
}

func TestPerKeyAblationStillDelivers(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	c.startSrc(t, "pk", eventual2Src, map[string]string{
		"queueFlush": "10m", "maxBatchBytes": "false",
	})
	west := c.node(t, "pk/us-west")
	east := c.node(t, "pk/us-east")
	if west.queue.maxBytes > 0 {
		t.Fatal("batching should be disabled by maxBatchBytes: false")
	}
	const keys = 20
	for i := 0; i < keys; i++ {
		if _, err := west.Put(context.Background(), fmt.Sprintf("k%d", i), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	west.FlushQueue()
	if got := east.local.Objects().Len(); got != keys {
		t.Fatalf("east holds %d keys, want %d", got, keys)
	}
	if got := west.queue.chunks.Value(); got != 0 {
		t.Fatalf("per-key ablation issued %d batch chunks", got)
	}
}

// TestQueueDepthGaugeConsistent storms enqueues against concurrent flushes
// and checks the gauge matches the real depth once everything quiesces —
// the regression for the Set-after-unlock race that let a flush's 0
// clobber a newer enqueue's depth.
func TestQueueDepthGaugeConsistent(t *testing.T) {
	c := newCluster(t, simnet.USWest)
	c.start(t, "g", "EventualConsistency", map[string]string{"queueFlush": "10m"})
	n := c.node(t, "g/us-west")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := n.Put(context.Background(), fmt.Sprintf("w%d-k%d", w, i), []byte("v"), nil); err != nil {
					t.Error(err)
					return
				}
				if i%17 == 0 {
					n.FlushQueue()
				}
			}
		}(w)
	}
	wg.Wait()
	n.FlushQueue()
	if got, want := n.queueDepth.Value(), float64(n.QueueDepth()); got != want {
		t.Fatalf("queue depth gauge = %v, queue.out.Len() = %v", got, want)
	}
	if got := n.QueueDepth(); got != 0 {
		t.Fatalf("queue depth after final flush = %d, want 0", got)
	}
}

func TestApplyUpdateBatchPerEntryAcks(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	c.startSrc(t, "ak", eventual2Src, map[string]string{"queueFlush": "10m"})
	west := c.node(t, "ak/us-west")
	east := c.node(t, "ak/us-east")

	fresh, err := west.Put(context.Background(), "k1", []byte("v"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The same version twice: the first application wins, the duplicate
	// loses LWW at the receiver — a rejection, not an error, so the sender
	// neither hints nor retries it.
	payload, err := transport.Encode(UpdateBatchRequest{Updates: []UpdateMsg{
		{Meta: fresh, Data: []byte("v")},
		{Meta: fresh, Data: []byte("v")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := east.handle(context.Background(), MethodApplyUpdateBatch, payload)
	if err != nil {
		t.Fatal(err)
	}
	var resp UpdateBatchResponse
	if err := transport.Decode(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Acks) != 2 {
		t.Fatalf("acks = %v", resp.Acks)
	}
	if !resp.Acks[0].Accepted || resp.Acks[0].Err != "" {
		t.Fatalf("fresh entry ack = %+v, want accepted", resp.Acks[0])
	}
	if resp.Acks[1].Accepted || resp.Acks[1].Err != "" {
		t.Fatalf("duplicate entry ack = %+v, want rejected without error", resp.Acks[1])
	}
}

// TestRemoveIdempotentOnPeers: a remove fans out to peers that may never
// have held the key; their not-found must not fail the application remove.
func TestRemoveIdempotentOnPeers(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	c.startSrc(t, "rm", eventual2Src, map[string]string{"queueFlush": "10m"})
	west := c.node(t, "rm/us-west")
	east := c.node(t, "rm/us-east")

	// Long queueFlush: the put never propagates, east never sees the key.
	if _, err := west.Put(context.Background(), "only-west", []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := east.local.Objects().Latest("only-west"); err == nil {
		t.Fatal("east unexpectedly has the key")
	}
	if err := west.Remove(context.Background(), "only-west"); err != nil {
		t.Fatalf("remove of key absent on peer: %v", err)
	}
}

// TestRemoveSurfacesPeerFailure: an unreachable peer is a real failure —
// its copy survives — and the application must hear about it.
func TestRemoveSurfacesPeerFailure(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	c.startSrc(t, "rf", eventual2Src, map[string]string{"queueFlush": "10m"})
	west := c.node(t, "rf/us-west")
	east := c.node(t, "rf/us-east")

	if _, err := west.Put(context.Background(), "k", []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	west.FlushQueue()
	if _, err := east.local.Objects().Latest("k"); err != nil {
		t.Fatal("east never received the update")
	}
	c.net.Partition(simnet.USWest, simnet.USEast)
	if err := west.Remove(context.Background(), "k"); err == nil {
		t.Fatal("remove with unreachable peer returned nil — east still holds a copy")
	}
}

// TestAsyncPushCoalesces drives the outbox's immediate single-target path
// and checks delivery without any flush (coalescing itself is
// timing-dependent; correctness is that every update arrives under LWW).
func TestAsyncPushCoalesces(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	c.startSrc(t, "as", eventual2Src, map[string]string{"queueFlush": "10m"})
	west := c.node(t, "as/us-west")
	east := c.node(t, "as/us-east")

	const keys = 50
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		meta, err := west.Put(context.Background(), key, []byte("v"), nil)
		if err != nil {
			t.Fatal(err)
		}
		west.queue.push(east.Name(), UpdateMsg{Meta: meta, Data: []byte("v")})
	}
	waitConverged(t, west, east, 5e9)
}
