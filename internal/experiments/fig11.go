package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cloudsim"
	"repro/internal/policy"
	"repro/internal/simnet"
	"repro/internal/sysbench"
	"repro/internal/tiera"
	"repro/internal/wfs"
	"repro/internal/wiera"
)

// Fig11Row is one Azure VM size's SysBench IOPS for both storage paths.
type Fig11Row struct {
	VM          cloudsim.VMType
	LocalIOPS   float64 // Azure local disk, 500-IOPS throttle
	RemoteIOPS  float64 // AWS remote memory through Wiera
	Improvement float64 // (remote-local)/local
}

// Fig11Result reproduces "Figure 11: Performance (IOPS) comparison":
// SysBench random reads against (a) the Azure VM's local disk (throttled
// flat at 500 IOPS regardless of size) and (b) AWS memory in the
// neighbouring US-East DC reached through Wiera, whose throughput follows
// the per-VM-size network throttle — worse than local disk on Basic
// A2/Standard D1, ~44% better on Standard D2/D3.
type Fig11Result struct {
	Rows []Fig11Row
}

// Fig11 runs SysBench for each Azure size against both backends on a
// virtual clock.
func Fig11(opts Options) (*Fig11Result, error) {
	ops := 600
	if opts.Quick {
		ops = 250
	}
	res := &Fig11Result{}
	// The local-disk bar is identical for every VM size (the whole point
	// of the figure: Azure throttles attached disks to 500 IOPS regardless
	// of size), so measure it once.
	local, err := fig11Run(opts, ops, nil)
	if err != nil {
		return nil, fmt.Errorf("fig11 local: %w", err)
	}
	for _, vm := range cloudsim.AzureSizes() {
		spec, err := cloudsim.Lookup(vm)
		if err != nil {
			return nil, err
		}
		remote, err := fig11Run(opts, ops, &spec)
		if err != nil {
			return nil, fmt.Errorf("fig11 %s remote: %w", vm, err)
		}
		res.Rows = append(res.Rows, Fig11Row{
			VM: vm, LocalIOPS: local, RemoteIOPS: remote,
			Improvement: (remote - local) / local,
		})
	}
	return res, nil
}

// fig11Run measures SysBench IOPS on the Azure disk (vm == nil) or on
// remote memory through Wiera over the VM's network throttle.
func fig11Run(opts Options, ops int, vm *cloudsim.Spec) (float64, error) {
	d, fs, err := sec54Path("fig11", vm, 0)
	if err != nil {
		return 0, err
	}
	defer d.Close()
	return runSysbench(fs, d, ops, opts.Seed)
}

// sec54Path builds one storage path of Sec 5.4 as instance id: the Azure
// disk when vm is nil, otherwise remote memory over vm's network throttle.
func sec54Path(id string, vm *cloudsim.Spec, primaryIOPS int) (*Deployment, *wfs.FS, error) {
	if vm == nil {
		return azureDisk(id + "/disk")
	}
	return remoteMemory(id, vm.SmallMsgMBps*1e6, primaryIOPS)
}

// azureDisk builds the Sec 5.4 Azure attached disk on a virtual clock: a
// single-tier Tiera instance, named name, whose disk is throttled to 500
// IOPS (host cache off, O_DIRECT — the paper's MySQL-style setting).
// Closing the deployment closes the instance.
func azureDisk(name string) (*Deployment, *wfs.FS, error) {
	d, err := NewSimDeployment(simnet.AzureUSEast)
	if err != nil {
		return nil, nil, err
	}
	spec, err := policy.Parse(`Tiera AzureDisk { tier1: {name: ebs-ssd, size: 4G, iops: 500}; }`)
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	inst, err := tiera.New(tiera.Config{
		Name: name, Region: simnet.AzureUSEast, Spec: spec, Clock: d.Clk,
	})
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	d.extra = append(d.extra, inst)
	return d, wfs.New(wfs.TieraBackend{Inst: inst}), nil
}

// remoteMemory builds the Sec 5.4 remote-memory path on a virtual clock as
// instance id: the Azure node holds a local disk (capped at primaryIOPS,
// 0 for none), all gets forward to the AWS US-East memory instance 2 ms
// away, and the inter-DC path carries bps each way (Azure's inter-VM
// network throttle). The file system runs over the Azure node.
func remoteMemory(id string, bps float64, primaryIOPS int, fsOpts ...wfs.Option) (*Deployment, *wfs.FS, error) {
	d, err := NewSimDeployment(simnet.AzureUSEast, simnet.USEast)
	if err != nil {
		return nil, nil, err
	}
	d.Net.SetBandwidth(simnet.AzureUSEast, simnet.USEast, bps)
	d.Net.SetBandwidth(simnet.USEast, simnet.AzureUSEast, bps)
	iops := ""
	if primaryIOPS > 0 {
		iops = fmt.Sprintf(", iops: %d", primaryIOPS)
	}
	policySrc := fmt.Sprintf(`
Wiera RemoteMemory {
	Region1 = {name: ForwardingInstance, region: azure-us-east, primary: true,
		tier1 = {name: ebs-ssd, size: 4G%s}};
	Region2 = {name: ForwardingInstance, region: us-east,
		tier1 = {name: memory, size: 4G}};
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
}`, iops)
	if _, err := d.Server.StartInstances(wiera.StartInstancesRequest{
		InstanceID: id, PolicySrc: policySrc, Params: map[string]string{},
	}); err != nil {
		d.Close()
		return nil, nil, err
	}
	azure, err := d.Node(id + "/azure-us-east")
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	return d, wfs.New(wfs.NodeBackend{Node: azure}, fsOpts...), nil
}

func runSysbench(fs *wfs.FS, d *Deployment, ops int, seed int64) (float64, error) {
	cfg := sysbench.Config{
		FS: fs, Clock: d.Clk, Files: 4, FileSize: 512 * 1024,
		BlockSize: 16 * 1024, Threads: 16, Ops: ops,
		Mode: sysbench.RndRead, Seed: seed,
	}
	if err := sysbench.Prepare(cfg); err != nil {
		return 0, err
	}
	res, err := sysbench.Run(cfg)
	if err != nil {
		return 0, err
	}
	if res.Errors > 0 {
		return 0, fmt.Errorf("sysbench reported %d errors", res.Errors)
	}
	return res.IOPS, nil
}

// Render prints the per-VM-size IOPS comparison.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 11: SysBench IOPS, Azure local disk vs AWS remote memory via Wiera\n")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{string(row.VM),
			fmt.Sprintf("%.0f", row.LocalIOPS),
			fmt.Sprintf("%.0f", row.RemoteIOPS),
			fmt.Sprintf("%+.0f%%", 100*row.Improvement)})
	}
	b.WriteString(table([]string{"VM size", "Local disk IOPS", "Remote memory IOPS", "Remote vs local"}, rows))
	b.WriteString("paper: local flat ~500 (Azure throttle); remote worse on A2/D1, ~44% better on D2/D3\n")
	return b.String()
}

// ShapeHolds verifies the figure's qualitative claims.
func (r *Fig11Result) ShapeHolds() error {
	byVM := map[cloudsim.VMType]Fig11Row{}
	for _, row := range r.Rows {
		byVM[row.VM] = row
	}
	// Local disk flat at ~500 for every size.
	for _, row := range r.Rows {
		if row.LocalIOPS < 400 || row.LocalIOPS > 550 {
			return fmt.Errorf("fig11: %s local disk %.0f IOPS, want ~500 (throttle)", row.VM, row.LocalIOPS)
		}
	}
	// Remote memory grows with VM size.
	sizes := cloudsim.AzureSizes()
	for i := 1; i < len(sizes); i++ {
		if byVM[sizes[i]].RemoteIOPS < byVM[sizes[i-1]].RemoteIOPS {
			return fmt.Errorf("fig11: remote IOPS not monotone: %s %.0f < %s %.0f",
				sizes[i], byVM[sizes[i]].RemoteIOPS, sizes[i-1], byVM[sizes[i-1]].RemoteIOPS)
		}
	}
	// Crossover: remote loses on A2/D1, wins by ~44% on D2/D3.
	for _, small := range []cloudsim.VMType{cloudsim.AzureBasicA2, cloudsim.AzureStdD1} {
		if byVM[small].RemoteIOPS >= byVM[small].LocalIOPS {
			return fmt.Errorf("fig11: remote should lose on %s (%.0f vs %.0f)",
				small, byVM[small].RemoteIOPS, byVM[small].LocalIOPS)
		}
	}
	for _, big := range []cloudsim.VMType{cloudsim.AzureStdD2, cloudsim.AzureStdD3} {
		imp := byVM[big].Improvement
		if imp < 0.30 || imp > 0.60 {
			return fmt.Errorf("fig11: %s improvement %+.0f%%, paper ~44%%", big, 100*imp)
		}
	}
	return nil
}
