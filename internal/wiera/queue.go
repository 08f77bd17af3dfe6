package wiera

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/repair"
	"repro/internal/spawn"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// A batch chunk carries at most maxBatchEntries updates and about
// maxBatchBytes of payload (the option; drainBatchBytes where batching is
// off but chunks stay bounded), counting batchEntryOverhead bytes of
// framing per entry.
const (
	drainBatchBytes    = 1 << 20
	maxBatchEntries    = 128
	batchEntryOverhead = 64
)

// updateQueue is the node's replication send path: the outbox
// (repair.Outbox), the flush timer that drains it and the RPCs that ship
// it. The queue response (Sec 3.2.3) enqueues for every peer, a
// single-target async update ships to its peer at once, and an update a
// synchronous copy could not deliver stays in that peer's box. The flush
// timer retries whatever is pending; applications choose its period
// (Sec 3.3.1). A drain ships a peer's entries as MethodApplyUpdateBatch
// chunks, paying the WAN round trip per chunk rather than per key, and the
// receiver acks entry by entry, so only failed entries stay.
type updateQueue struct {
	n        *Node
	period   time.Duration
	maxBytes int64 // per-chunk payload budget; <= 0 disables batching
	out      *repair.Outbox[UpdateMsg]
	quit     chan struct{}
	stopOnce sync.Once

	flushes       *telemetry.Counter // repl_batch_flushes_total
	chunks        *telemetry.Counter // repl_batch_chunks_total
	updates       *telemetry.Counter // repl_batch_updates_total
	bytes         *telemetry.Counter // repl_batch_bytes_total
	entryFailures *telemetry.Counter // repl_batch_entry_failures_total
}

func newUpdateQueue(n *Node, p Params, metrics *repair.Metrics) *updateQueue {
	reg := n.fabric.Metrics()
	counter := func(name, help string) *telemetry.Counter {
		return reg.Counter(name, help, "node", "region").With(n.name, string(n.region))
	}
	return &updateQueue{
		n: n, period: p.Queue.Flush, maxBytes: p.Queue.MaxBatchBytes,
		out:  repair.NewOutbox[UpdateMsg](p.Queue.Supersede, metrics, n.queueDepth),
		quit: make(chan struct{}),
		flushes: counter("repl_batch_flushes_total",
			"Batched replication fan-outs (one per queue flush with pending updates)."),
		chunks: counter("repl_batch_chunks_total",
			"ApplyUpdateBatch RPCs issued (one per chunk per peer)."),
		updates: counter("repl_batch_updates_total",
			"Updates shipped inside batched replication RPCs."),
		bytes: counter("repl_batch_bytes_total",
			"Encoded payload bytes shipped inside batched replication RPCs."),
		entryFailures: counter("repl_batch_entry_failures_total",
			"Batch entries that failed (RPC error or per-entry apply error)."),
	}
}

// push ships an update to one peer now, coalescing with updates bound for
// that peer while a push to it is in flight. What it cannot deliver waits
// for the flush timer.
func (q *updateQueue) push(peer string, msg UpdateMsg) {
	if q.out.Push(peer, msg) {
		spawn.Go(func() { q.out.Run(context.Background(), peer, q.send) })
	}
}

// start launches the flush timer; stop ends it without flushing.
func (q *updateQueue) start() {
	go func() {
		for {
			select {
			case <-q.quit:
				return
			case <-q.n.clk.After(q.period):
				q.flushNow()
			}
		}
	}()
}

func (q *updateQueue) stop() { q.stopOnce.Do(func() { close(q.quit) }) }

// flushNow hands every update queued for all peers to the current members
// and drains every member's box once, all peers in parallel; on return
// every entry pending before the call has been tried against its peer. A
// peer whose drain shipped entries and lost none feeds its latency to the
// latency monitor and the replication histogram, the signal the
// DynamicConsistency and SLOSwitch policies read a degraded WAN from.
func (q *updateQueue) flushNow() {
	if q.out.Len() == 0 {
		return
	}
	peers := q.n.Peers()
	queued := q.out.Spread(peerNames(peers))
	for _, u := range queued {
		if !q.n.shards.ownsKey(u.Meta.Key) {
			// A rebalance moved this key away between enqueue and flush. The
			// group fan-out below still reaches the other regions (their old
			// owners redirect strays onward), but no group member covers this
			// node's own region anymore — hand the update to the in-region
			// owner directly so it cannot be stranded here.
			_, _ = q.n.shards.applyOrForward(context.Background(), *u)
		}
	}
	if len(queued) > 0 && len(peers) > 0 && q.maxBytes > 0 {
		q.flushes.Inc()
	}
	fa := q.n.flightRec.Begin("repl-flush", "", q.n.name, string(q.n.region), q.n.PolicyName())
	ctx := flight.NewContext(context.Background(), fa)
	var notAcked atomic.Int64
	eachPeer(peers, func(_ int, p PeerInfo) {
		start := q.n.clk.Now()
		sent, failed := q.out.Drain(ctx, p.Name, q.send)
		if sent > 0 && failed == 0 {
			elapsed := q.n.clk.Since(start)
			q.n.latMon.observe(elapsed)
			q.n.ReplLatency.Record(elapsed)
		}
		notAcked.Add(int64(failed))
	})
	var retErr error
	if n := notAcked.Load(); n > 0 {
		retErr = fmt.Errorf("wiera: flush: %d updates not delivered", n)
	}
	fa.End(retErr)
}

// caps returns the effective chunk bounds. Paths that must stay bounded
// regardless of the ablation (the shard drain) get the defaults even when
// batching is disabled for replication.
func (q *updateQueue) caps() (maxBytes int64, maxEntries int) {
	if q.maxBytes > 0 {
		return q.maxBytes, maxBatchEntries
	}
	return drainBatchBytes, maxBatchEntries
}

// chunkUpdates splits us into contiguous chunks bounded by the entry and
// byte caps. A single oversized update still ships (every chunk holds at
// least one entry); order is preserved.
func (q *updateQueue) chunkUpdates(us []*UpdateMsg) [][]*UpdateMsg {
	if len(us) == 0 {
		return nil
	}
	maxBytes, maxEntries := q.caps()
	var out [][]*UpdateMsg
	start := 0
	var curBytes int64
	for i := range us {
		sz := int64(len(us[i].Data)) + batchEntryOverhead
		if i > start && (curBytes+sz > maxBytes || i-start >= maxEntries) {
			out = append(out, us[start:i])
			start, curBytes = i, 0
		}
		curBytes += sz
	}
	return append(out, us[start:])
}

// send implements repair.Sender: it ships us to peer and returns the
// indices of the entries peer did not ack — every entry from the first
// failed RPC on, and single entries whose apply failed. An entry that lost
// LWW at the receiver is not a failure. Each chunk's updates are copied
// into one buffer for encoding, so a drain holds one chunk's copies, not the
// whole box's.
func (q *updateQueue) send(ctx context.Context, peer string, us []*UpdateMsg) []int {
	var failed []int
	rest := func(from int) []int {
		for i := from; i < len(us); i++ {
			failed = append(failed, i)
		}
		return failed
	}
	if q.maxBytes <= 0 {
		// Per-key ablation: one ApplyUpdate RPC per update.
		for i, u := range us {
			if err := q.n.callPeer(ctx, peer, MethodApplyUpdate, *u, nil); err != nil {
				return rest(i)
			}
		}
		return nil
	}
	buf := make([]UpdateMsg, 0, min(len(us), maxBatchEntries))
	base := 0
	for _, chunk := range q.chunkUpdates(us) {
		buf = buf[:0]
		for _, u := range chunk {
			buf = append(buf, *u)
		}
		var resp UpdateBatchResponse
		payload, err := transport.Encode(UpdateBatchRequest{Updates: buf})
		if err == nil {
			q.chunks.Inc()
			q.updates.Add(int64(len(chunk)))
			q.bytes.Add(int64(len(payload)))
			err = q.n.callPeerRaw(ctx, peer, MethodApplyUpdateBatch, payload, &resp)
		}
		if err != nil || len(resp.Acks) != len(chunk) {
			q.entryFailures.Add(int64(len(chunk)))
			return rest(base)
		}
		for i, ack := range resp.Acks {
			if ack.Err != "" {
				failed = append(failed, base+i)
				q.entryFailures.Inc()
			}
		}
		base += len(chunk)
	}
	return failed
}
