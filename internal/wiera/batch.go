package wiera

import (
	"context"
	"sync"

	"repro/internal/spawn"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// One chunk carries at most maxBatchEntries updates and roughly the
// maxBatchBytes option's worth of payload, whichever cap bites first
// (maxBatchBytes=false disables batching entirely — the per-key ablation).
const (
	// drainBatchBytes is the byte cap of paths that stay chunked with
	// batching off.
	drainBatchBytes = 1 << 20
	maxBatchEntries = 128
	// batchEntryOverhead approximates the per-entry framing cost (key,
	// version, timestamps) on top of the object payload when sizing chunks.
	batchEntryOverhead = 64
)

// batcher groups replica updates destined for the same peer into chunked
// MethodApplyUpdateBatch RPCs, making background replication round-trip-
// bound per flush rather than per key (the group-commit the queue response
// of Sec 3.2.3 exists to enable). The receiver acks entry-by-entry, so a
// partial failure costs only the failed entries: they are hinted (repair
// enabled) or handed back to the caller for re-enqueue.
//
// Three paths share it: the queue's flushNow fan-out, exec.go's async
// single-target distribution (coalesced per peer while an RPC is in
// flight), and the shard drain's migration pushes (caps only).
type batcher struct {
	n        *Node
	maxBytes int64 // per-chunk payload budget; <= 0 disables batching

	// Coalescing state for async single-target pushes: updates arriving
	// while a peer's flusher RPC is in flight accumulate and ship as the
	// next batch — group commit without timers.
	amu      sync.Mutex
	apending map[string][]UpdateMsg
	aactive  map[string]bool

	flushes       *telemetry.Counter // repl_batch_flushes_total
	chunks        *telemetry.Counter // repl_batch_chunks_total
	updates       *telemetry.Counter // repl_batch_updates_total
	bytes         *telemetry.Counter // repl_batch_bytes_total
	entryFailures *telemetry.Counter // repl_batch_entry_failures_total
}

func newBatcher(n *Node, maxBytes int64) *batcher {
	reg := n.fabric.Metrics()
	region := string(n.region)
	counter := func(name, help string) *telemetry.Counter {
		return reg.Counter(name, help, "node", "region").With(n.name, region)
	}
	return &batcher{
		n:        n,
		maxBytes: maxBytes,
		apending: make(map[string][]UpdateMsg),
		aactive:  make(map[string]bool),
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

// enabled reports whether batching is on (false = per-key ablation mode).
func (b *batcher) enabled() bool { return b.maxBytes > 0 }

// caps returns the effective chunk bounds. Paths that must stay bounded
// regardless of the ablation (the shard drain) get the defaults even when
// batching is disabled for the replication fan-out.
func (b *batcher) caps() (maxBytes int64, maxEntries int) {
	if b.maxBytes > 0 {
		return b.maxBytes, maxBatchEntries
	}
	return drainBatchBytes, maxBatchEntries
}

// chunkUpdates splits msgs into contiguous chunks bounded by the entry and
// byte caps. A single oversized update still ships (every chunk holds at
// least one entry); order is preserved.
func (b *batcher) chunkUpdates(msgs []UpdateMsg) [][]UpdateMsg {
	if len(msgs) == 0 {
		return nil
	}
	maxBytes, maxEntries := b.caps()
	var out [][]UpdateMsg
	start := 0
	var curBytes int64
	for i := range msgs {
		sz := int64(len(msgs[i].Data)) + batchEntryOverhead
		if i > start && (curBytes+sz > maxBytes || i-start >= maxEntries) {
			out = append(out, msgs[start:i])
			start, curBytes = i, 0
		}
		curBytes += sz
	}
	return append(out, msgs[start:])
}

// fanOut pushes msgs to every peer in parallel, one ApplyUpdateBatch RPC
// per chunk, and returns failed[i] = true when entry i failed on at least
// one peer. Failed entries are hinted per failing peer when repair is
// enabled (the caller re-enqueues them otherwise). Per-peer push latency
// feeds the latency monitor and the replication histogram on success, the
// same signal the per-key fan-out produced — the DynamicConsistency /
// SLOSwitch policies keep seeing a degraded WAN through batched flushes.
func (b *batcher) fanOut(ctx context.Context, msgs []UpdateMsg) []bool {
	failed := make([]bool, len(msgs))
	peers := b.n.Peers()
	if len(peers) == 0 || len(msgs) == 0 {
		return failed
	}
	b.flushes.Inc()
	fidx := make([][]int, len(peers))
	eachPeer(peers, func(i int, p PeerInfo) {
		start := b.n.clk.Now()
		fidx[i] = b.pushPeer(ctx, p.Name, msgs)
		if len(fidx[i]) == 0 {
			elapsed := b.n.clk.Since(start)
			b.n.latMon.observe(elapsed)
			b.n.ReplLatency.Record(elapsed)
		}
	})
	for pi, idx := range fidx {
		for _, i := range idx {
			failed[i] = true
			if b.n.repair != nil {
				b.n.repair.addHint(peers[pi].Name, msgs[i])
			}
		}
	}
	return failed
}

// pushPeer ships msgs to one peer as chunked batch RPCs and returns the
// indices (into msgs) of entries that failed — a whole chunk on an RPC
// error, individual entries on per-entry apply errors. An entry that lost
// LWW at the receiver is not a failure.
func (b *batcher) pushPeer(ctx context.Context, peer string, msgs []UpdateMsg) []int {
	var failed []int
	base := 0
	for _, chunk := range b.chunkUpdates(msgs) {
		var resp UpdateBatchResponse
		payload, err := transport.Encode(UpdateBatchRequest{Updates: chunk})
		if err == nil {
			b.chunks.Inc()
			b.updates.Add(int64(len(chunk)))
			b.bytes.Add(int64(len(payload)))
			err = b.n.callPeerRaw(ctx, peer, MethodApplyUpdateBatch, payload, &resp)
		}
		if err != nil || len(resp.Acks) != len(chunk) {
			for i := range chunk {
				failed = append(failed, base+i)
			}
			b.entryFailures.Add(int64(len(chunk)))
			base += len(chunk)
			continue
		}
		for i, ack := range resp.Acks {
			if ack.Err != "" {
				failed = append(failed, base+i)
				b.entryFailures.Inc()
			}
		}
		base += len(chunk)
	}
	return failed
}

// pushAsync delivers one update to a single peer in the background,
// coalescing with other updates bound for the same peer: while a push RPC
// is in flight, arriving updates accumulate and ship together as the next
// batch. Failures become hints (repair enabled) exactly as the direct
// async path did.
func (b *batcher) pushAsync(target string, msg UpdateMsg) {
	if !b.enabled() {
		// Per-key ablation: one ApplyUpdate RPC per update, as before. The
		// closure captures a copy, so msg itself stays off the heap on the
		// batched path.
		n, m := b.n, msg
		spawn.Go(func() {
			if err := n.callPeer(context.Background(), target, MethodApplyUpdate, m, nil); err != nil && n.repair != nil {
				n.repair.addHint(target, m)
			}
		})
		return
	}
	b.amu.Lock()
	b.apending[target] = append(b.apending[target], msg)
	if b.aactive[target] {
		b.amu.Unlock()
		return // the running flusher picks it up on its next pass
	}
	b.aactive[target] = true
	b.amu.Unlock()
	spawn.Go(func() { b.asyncLoop(target) })
}

// asyncLoop drains a peer's coalesced async updates until none remain.
func (b *batcher) asyncLoop(target string) {
	for {
		b.amu.Lock()
		msgs := b.apending[target]
		if len(msgs) == 0 {
			b.aactive[target] = false
			b.amu.Unlock()
			return
		}
		delete(b.apending, target)
		b.amu.Unlock()
		fidx := b.pushPeer(context.Background(), target, msgs)
		if b.n.repair != nil {
			for _, i := range fidx {
				b.n.repair.addHint(target, msgs[i])
			}
		}
	}
}
