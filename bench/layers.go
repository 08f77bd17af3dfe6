package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// perLayer fills the per-layer metrics of a traced run from two sources,
// both outside the program: the counts bracketing the untraced phase that
// just ran, and the ladder replayed afterwards on fresh deployments.
func (r *run) perLayer(res *Result, seg *segment, opt Options) error {
	set := func(name string, v float64, unit string, samples int) {
		res.Metrics[name] = single(v, unit, samples)
	}
	nPut, nGet := len(seg.putLat), len(seg.getLat)
	perPut := func(v int64) float64 { return ratio(float64(v), float64(nPut)) }
	perGet := func(v int64) float64 { return ratio(float64(v), float64(nGet)) }
	perOp := func(v float64) float64 { return ratio(v, float64(seg.measured)) }

	// Tail diagnostics of the untraced phase (both clients, taking turns):
	// p99, and the highest percentile that still has ten samples beyond it.
	put2, get2 := seg.putLat, seg.getLat
	set("client.put_p99_us", percentileUs(put2, 0.99), "us", len(put2))
	set("client.get_p99_us", percentileUs(get2, 0.99), "us", len(get2))
	set("client.put_tail_us", tailUs(put2), "us", len(put2))
	set("client.get_tail_us", tailUs(get2), "us", len(get2))

	// Counts.
	c := seg.counters
	set("node.stale_read_frac", ratio(float64(c.StaleReads), float64(c.StaleReads+c.FreshReads)), "ratio", int(c.StaleReads+c.FreshReads))
	set("object.versions_max", float64(c.VersionsMax), "count", 1)
	set("tier.puts_per_put", perPut(c.TierPuts), "ratio", nPut)
	set("tier.gets_per_get", perGet(c.TierGets), "ratio", nGet)
	set("transport.rpc_calls_per_op", perOp(float64(c.RPCCalls)), "ratio", seg.measured)
	set("transport.rpc_bytes_per_op", perOp(float64(c.RPCBytes)), "B", seg.measured)
	set("repl.batch_updates_per_put", perPut(c.BatchUpdates), "ratio", nPut)
	set("repl.batch_bytes_per_put", perPut(c.BatchBytes), "B", nPut)
	set("repl.flushes_per_s", ratio(float64(c.BatchFlushes), seg.wall.Seconds()), "1/s", int(c.BatchFlushes))
	set("repl.queue_depth_max", float64(c.QueueDepthMax), "count", 1)
	set("ec.striped_frac", ratio(float64(c.ECPuts), float64(c.ECPuts+c.ECReplPuts)), "ratio", int(c.ECPuts+c.ECReplPuts))
	set("ec.reconstructs_per_get", perGet(c.ECReconstructs), "ratio", nGet)
	set("ec.gather_cancels_per_get", perGet(c.ECGatherCancels), "ratio", nGet)
	set("simnet.transfers_per_op", perOp(float64(c.Transfers)), "ratio", seg.measured)
	set("simnet.sim_wait_ms_per_op", perOp(float64(c.SimWaitNs)/1e6), "ms", seg.measured)
	set("repair.read_repairs_per_get", perGet(c.ReadRepairs), "ratio", nGet)
	set("repair.hints_pending_max", float64(c.HintsPending), "count", 1)

	// The ladder: client 0's measured stream again, alone, one rung per
	// fresh deployment set up exactly as this segment's was.
	r.close()
	ops := r.ops[0]
	from, to := r.warm, ops.Len()
	puts := ops.Put[from:to]
	gen := NewValueGen(opt.Seed, r.spec.ValueSize)
	clientRung := func(telemetryOn bool) (Level, error) {
		d, err := setUp(r.spec, opt, telemetryOn, r.seed, ops.Len(), r.warm)
		if err != nil {
			return Level{}, err
		}
		defer d.close()
		kv := d.clients[0].kv
		return replay(ops, from, to, d.kt, gen, 100, true, callFuncs{put: kv.Put, get: kv.Get})
	}
	stackRung := func(name string) (*LadderReply, error) {
		d, err := setUp(r.spec, opt, true, r.seed, ops.Len(), r.warm)
		if err != nil {
			return nil, err
		}
		defer d.close()
		// These rungs call into the node and its local instance directly.
		// Replication still in flight from the warm-up would race them: a
		// local get that falls between ApplyRemote's metadata and payload
		// steps fails with "payload missing from all tiers".
		if err := d.target.Settle(); err != nil {
			return nil, err
		}
		return d.target.Ladder(LadderRequest{Rung: name, Seed: r.seed, PerClient: ops.Len(), From: from, To: to})
	}
	clientLv, err := clientRung(true)
	if err != nil {
		return err
	}
	// The client rung again without telemetry: instrumented minus bare is
	// the instrumentation's cost.
	bareLv, err := clientRung(false)
	if err != nil {
		return err
	}
	node, err := stackRung(RungNode)
	if err != nil {
		return err
	}
	tiera, err := stackRung(RungTiera)
	if err != nil {
		return err
	}
	tierLv, err := tierLevel(ops, from, to, r.kt, tiera.LocalBytes, opt.Seed)
	if err != nil {
		return err
	}
	sides, err := SideSpans(r.spec, opt.Seed)
	if err != nil {
		return err
	}

	type rung struct {
		layer    string
		lv       Level
		put, get float64 // p50, µs
	}
	rungs := []rung{{layer: "client", lv: clientLv}, {layer: "node", lv: node.Level},
		{layer: "tiera", lv: tiera.Level}, {layer: "tier", lv: tierLv}}
	for i := range rungs {
		g := &rungs[i]
		put, get := g.lv.split(puts)
		g.put, g.get = medianUs(put), medianUs(get)
		set(g.layer+".put_us", g.put, "us", len(put))
		set(g.layer+".get_us", g.get, "us", len(get))
		set(g.layer+".put_allocs", g.lv.PutAllocs, "count", allocOpsFor(r.spec.ValueSize))
		set(g.layer+".get_allocs", g.lv.GetAllocs, "count", allocOpsFor(r.spec.ValueSize))
	}

	// Self time: a level minus the levels and side spans it contains. The
	// client contains the node and the transport hops to it; the node
	// contains its local instance, the coord lock (strict puts) and the EC
	// math (striped objects); the local instance contains one tier call.
	hop := sides.FabricCallUs
	if r.spec.TCP {
		hop += sides.TCPCallUs
	}
	var nodePutSides, nodeGetSides float64
	if r.spec.Strict {
		nodePutSides += sides.CoordLockUnlockUs
	}
	if c.ECPuts > 0 {
		nodePutSides += sides.ECEncodeUs
		nodeGetSides += sides.ECReconstructUs
	}
	set("client.put_self_us", rungs[0].put-rungs[1].put-hop, "us", 0)
	set("client.get_self_us", rungs[0].get-rungs[1].get-hop, "us", 0)
	set("node.put_self_us", rungs[1].put-rungs[2].put-nodePutSides, "us", 0)
	set("node.get_self_us", rungs[1].get-rungs[2].get-nodeGetSides, "us", 0)
	set("tiera.put_self_us", rungs[2].put-rungs[3].put, "us", 0)
	set("tiera.get_self_us", rungs[2].get-rungs[3].get, "us", 0)
	set("tiera.put_deep_us", tiera.DeepPutUs, "us", 200)

	// Two clients taking turns against client 0 alone: what an operation
	// pays for the other region's client working the stack in between.
	set("client.put_contention_ratio", ratio(percentileUs(put2, 0.5), rungs[0].put), "ratio", len(put2))
	set("client.get_contention_ratio", ratio(percentileUs(get2, 0.5), rungs[0].get), "ratio", len(get2))

	iters := sideIters(r.spec.ValueSize)
	set("wire.put_rt_us", sides.WirePutRtUs, "us", iters)
	set("wire.get_rt_us", sides.WireGetRtUs, "us", iters)
	set("wire.rt_allocs", sides.WireRtAllocs, "count", iters)
	set("transport.fabric_call_us", sides.FabricCallUs, "us", iters)
	set("transport.fabric_call_allocs", sides.FabricCallAllocs, "count", iters)
	set("transport.tcp_call_us", sides.TCPCallUs, "us", iters)
	set("transport.tcp_call_allocs", sides.TCPCallAllocs, "count", iters)
	set("repl.flush_us_per_update", node.FlushUsPerUpdate, "us", node.FlushedUpdates)
	set("coord.lock_unlock_us", sides.CoordLockUnlockUs, "us", iters)
	set("ec.encode_us", sides.ECEncodeUs, "us", iters)
	set("ec.reconstruct_us", sides.ECReconstructUs, "us", iters)
	set("ec.encode_mb_per_s", ratio(float64(r.spec.ValueSize)/(1<<20), sides.ECEncodeUs/1e6), "MiB/s", iters)

	barePuts, bareGets := bareLv.split(puts)
	set("telemetry.put_overhead_us", rungs[0].put-medianUs(barePuts), "us", len(barePuts))
	set("telemetry.get_overhead_us", rungs[0].get-medianUs(bareGets), "us", len(bareGets))
	set("telemetry.put_overhead_allocs", clientLv.PutAllocs-bareLv.PutAllocs, "count", allocOpsFor(r.spec.ValueSize))
	set("telemetry.get_overhead_allocs", clientLv.GetAllocs-bareLv.GetAllocs, "count", allocOpsFor(r.spec.ValueSize))

	if opt.OutDir == "" {
		return nil
	}
	spans := sides.Spans
	for i, g := range rungs {
		spans = append(spans, levelSpans(g.layer, i, puts, g.lv)...)
	}
	spans = append(spans, levelSpans("client_bare", 0, puts, bareLv)...)
	return writeSpans(filepath.Join(opt.OutDir, "trace_"+r.spec.Name+".spans.jsonl"), spans)
}

// tailUs is the highest percentile that still has ten samples beyond it.
func tailUs(durs []int64) float64 {
	if len(durs) <= 10 {
		return percentileUs(durs, 1)
	}
	return percentileUs(durs, float64(len(durs)-10)/float64(len(durs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans dumps the in-memory spans, one JSON object per line.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("bench: write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
