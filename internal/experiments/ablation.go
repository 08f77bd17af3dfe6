package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/simnet"
	"repro/internal/sysbench"
	"repro/internal/wfs"
	"repro/internal/wiera"
)

// The ablations quantify design choices DESIGN.md calls out: what each
// consistency model costs (the Sec 3.3.1 tradeoff), what the queue's
// per-key supersession saves (Sec 3.2.3's "reduce on update traffic"), and
// how the wfs block size moves the remote-memory throughput of Sec 5.4.

// ConsistencyRow is one consistency model's put/get cost.
type ConsistencyRow struct {
	Policy    string
	PutMeanMs float64
	GetMeanMs float64
}

// AblationConsistencyResult compares put latency across the three
// consistency engines on identical four-region deployments.
type AblationConsistencyResult struct {
	Rows []ConsistencyRow
}

// AblationConsistency measures each consistency model's application-
// perceived operation latency at the US-West node.
func AblationConsistency(opts Options) (*AblationConsistencyResult, error) {
	ops := 30
	if opts.Quick {
		ops = 15
	}
	configs := []struct {
		name string
		body string
	}{
		{"MultiPrimariesConsistency", `
	event(insert.into) : response {
		lock(what: insert.key);
		store(what: insert.object, to: local_instance);
		copy(what: insert.object, to: all_regions);
		release(what: insert.key);
	}`},
		{"PrimaryBackupConsistency", `
	event(insert.into) : response {
		if (local_instance.isPrimary == true) {
			store(what: insert.object, to: local_instance);
			copy(what: insert.object, to: all_regions);
		} else {
			forward(what: insert.object, to: primary_instance);
		}
	}`},
		{"EventualConsistency", `
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		queue(what: insert.object, to: all_regions);
	}`},
	}
	res := &AblationConsistencyResult{}
	for _, cfg := range configs {
		d, err := NewSimDeployment()
		if err != nil {
			return nil, err
		}
		src := fmt.Sprintf(`
Wiera %s {
	Region1 = {name: LowLatencyInstance, region: us-west, primary: true,
		tier1 = {name: memory, size: 1G}, tier2 = {name: ebs-ssd, size: 1G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 1G}, tier2 = {name: ebs-ssd, size: 1G}};
	Region3 = {name: LowLatencyInstance, region: eu-west,
		tier1 = {name: memory, size: 1G}, tier2 = {name: ebs-ssd, size: 1G}};
	Region4 = {name: LowLatencyInstance, region: asia-east,
		tier1 = {name: memory, size: 1G}, tier2 = {name: ebs-ssd, size: 1G}};%s
}`, cfg.name, cfg.body)
		_, err = d.Server.StartInstances(wiera.StartInstancesRequest{
			InstanceID: "ab", PolicySrc: src, Params: map[string]string{"t": "5s"},
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		node, err := d.Node("ab/us-west")
		if err != nil {
			d.Close()
			return nil, err
		}
		payload := make([]byte, 1024)
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("k%d", i)
			if _, err := node.Put(context.Background(), key, payload, nil); err != nil {
				d.Close()
				return nil, err
			}
			if _, _, err := node.Get(context.Background(), key); err != nil {
				d.Close()
				return nil, err
			}
		}
		res.Rows = append(res.Rows, ConsistencyRow{
			Policy:    cfg.name,
			PutMeanMs: float64(node.PutLatency.Mean()) / float64(time.Millisecond),
			GetMeanMs: float64(node.GetLatency.Mean()) / float64(time.Millisecond),
		})
		d.Close()
	}
	return res, nil
}

// Render prints the consistency cost table.
func (r *AblationConsistencyResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: consistency model cost (4 regions, US-West application)\n")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Policy,
			fmt.Sprintf("%.1f", row.PutMeanMs), fmt.Sprintf("%.2f", row.GetMeanMs)})
	}
	b.WriteString(table([]string{"Policy", "Put mean (ms)", "Get mean (ms)"}, rows))
	b.WriteString("expected ordering: multi-primaries > primary-backup(local primary) > eventual\n")
	return b.String()
}

// ShapeHolds verifies the Sec 3.3.1 tradeoff ordering.
func (r *AblationConsistencyResult) ShapeHolds() error {
	byName := map[string]ConsistencyRow{}
	for _, row := range r.Rows {
		byName[row.Policy] = row
	}
	mp := byName["MultiPrimariesConsistency"].PutMeanMs
	pb := byName["PrimaryBackupConsistency"].PutMeanMs
	ev := byName["EventualConsistency"].PutMeanMs
	if !(mp > pb && pb > ev) {
		return fmt.Errorf("ablation: put cost ordering broken: MP %.1f, PB %.1f, EV %.1f", mp, pb, ev)
	}
	if ev > 50 {
		return fmt.Errorf("ablation: eventual put %.1f ms, should be local-fast", ev)
	}
	return nil
}

// AblationQueueResult quantifies the update-traffic saving from per-key
// queue supersession.
type AblationQueueResult struct {
	Overwrites     int
	BytesSupersede int64
	BytesNaive     int64
}

// AblationQueue overwrites one hot key repeatedly between flushes with
// supersession on and off, counting bytes moved on the wire. Bytes — not
// transfer count — isolate supersession from the batched flush, which
// collapses the naive queue's N updates into few RPCs but still ships
// every superseded payload.
func AblationQueue(opts Options) (*AblationQueueResult, error) {
	overwrites := 50
	if opts.Quick {
		overwrites = 25
	}
	run := func(supersede bool) (int64, error) {
		d, err := NewSimDeployment(simnet.USWest, simnet.USEast)
		if err != nil {
			return 0, err
		}
		defer d.Close()
		params := map[string]string{"t": "5s", "queueFlush": "10s"}
		if !supersede {
			params["queueSupersede"] = "false"
		}
		src := `
Wiera EventualConsistency {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 1G}, tier2 = {name: ebs-ssd, size: 1G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 1G}, tier2 = {name: ebs-ssd, size: 1G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		queue(what: insert.object, to: all_regions);
	}
}`
		if _, err := d.Server.StartInstances(wiera.StartInstancesRequest{
			InstanceID: "q", PolicySrc: src, Params: params,
		}); err != nil {
			return 0, err
		}
		node, err := d.Node("q/us-west")
		if err != nil {
			return 0, err
		}
		payload := make([]byte, 4096)
		_, before := d.Net.Stats()
		for i := 0; i < overwrites; i++ {
			if _, err := node.Put(context.Background(), "hot-key", payload, nil); err != nil {
				return 0, err
			}
		}
		// One flush cycle propagates whatever is queued.
		d.Clk.Sleep(12 * time.Second)
		_, after := d.Net.Stats()
		return after - before, nil
	}
	withSup, err := run(true)
	if err != nil {
		return nil, err
	}
	without, err := run(false)
	if err != nil {
		return nil, err
	}
	return &AblationQueueResult{
		Overwrites: overwrites, BytesSupersede: withSup, BytesNaive: without,
	}, nil
}

// Render prints the traffic comparison.
func (r *AblationQueueResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: queue supersession (Sec 3.2.3 'reduce on update traffic')\n")
	fmt.Fprintf(&b, "%d overwrites of one key between flushes:\n", r.Overwrites)
	fmt.Fprintf(&b, "  bytes moved with per-key supersession:  %d\n", r.BytesSupersede)
	fmt.Fprintf(&b, "  bytes moved shipping every update:      %d\n", r.BytesNaive)
	fmt.Fprintf(&b, "  traffic saved: %.0f%%\n",
		100*(1-float64(r.BytesSupersede)/float64(r.BytesNaive)))
	return b.String()
}

// ShapeHolds verifies supersession saves most of the redundant traffic.
func (r *AblationQueueResult) ShapeHolds() error {
	if r.BytesNaive <= r.BytesSupersede {
		return fmt.Errorf("ablation: naive queue (%d bytes) not costlier than superseding (%d bytes)",
			r.BytesNaive, r.BytesSupersede)
	}
	saved := 1 - float64(r.BytesSupersede)/float64(r.BytesNaive)
	if saved < 0.5 {
		return fmt.Errorf("ablation: only %.0f%% traffic saved, want most of it", 100*saved)
	}
	return nil
}

// BlockSizeRow is one wfs block size's remote-memory throughput.
type BlockSizeRow struct {
	BlockSize int
	IOPS      float64
	MBps      float64
}

// AblationBlockSizeResult sweeps the wfs block size on the Sec 5.4
// remote-memory path.
type AblationBlockSizeResult struct {
	Rows []BlockSizeRow
}

// AblationBlockSize measures SysBench throughput over the throttled
// remote-memory link for several wfs block sizes: larger blocks waste link
// bytes per random access (lower IOPS at the same MB/s), the classic
// page-size tradeoff the Sec 5.4 deployment must pick.
func AblationBlockSize(opts Options) (*AblationBlockSizeResult, error) {
	ops := 300
	if opts.Quick {
		ops = 150
	}
	res := &AblationBlockSizeResult{}
	for _, bs := range []int{4 * 1024, 16 * 1024, 64 * 1024} {
		iops, err := blockSizeRun(opts, ops, bs)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, BlockSizeRow{
			BlockSize: bs, IOPS: iops, MBps: iops * float64(bs) / 1e6,
		})
	}
	return res, nil
}

// blockSizeRun measures SysBench IOPS on remote memory over Standard D2's
// small-message throughput with wfs blocks of bs bytes.
func blockSizeRun(opts Options, ops, bs int) (float64, error) {
	d, fs, err := remoteMemory("bs", 11.8e6, 0, wfs.WithBlockSize(bs))
	if err != nil {
		return 0, err
	}
	defer d.Close()
	cfg := sysbench.Config{
		FS: fs, Clock: d.Clk, Files: 2, FileSize: 512 * 1024,
		BlockSize: bs, Threads: 16, Ops: ops, Mode: sysbench.RndRead, Seed: opts.Seed,
	}
	if err := sysbench.Prepare(cfg); err != nil {
		return 0, err
	}
	out, err := sysbench.Run(cfg)
	if err != nil {
		return 0, err
	}
	return out.IOPS, nil
}

// Render prints the block size sweep.
func (r *AblationBlockSizeResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: wfs block size on the remote-memory path (Standard D2 link)\n")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("%dK", row.BlockSize/1024),
			fmt.Sprintf("%.0f", row.IOPS), fmt.Sprintf("%.1f", row.MBps)})
	}
	b.WriteString(table([]string{"Block", "IOPS", "Link MB/s"}, rows))
	return b.String()
}

// ShapeHolds verifies the bandwidth-bound tradeoff: smaller blocks yield
// more IOPS on the capped link.
func (r *AblationBlockSizeResult) ShapeHolds() error {
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].IOPS >= r.Rows[i-1].IOPS {
			return fmt.Errorf("ablation: IOPS not decreasing with block size: %dK %.0f vs %dK %.0f",
				r.Rows[i-1].BlockSize/1024, r.Rows[i-1].IOPS,
				r.Rows[i].BlockSize/1024, r.Rows[i].IOPS)
		}
	}
	return nil
}
