package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cloudsim"
	"repro/internal/rubis"
)

// Fig12Row is one Azure VM size's RUBiS throughput for both storage paths.
type Fig12Row struct {
	VM          cloudsim.VMType
	LocalRPS    float64 // MySQL-on-local-disk substitute
	RemoteRPS   float64 // MySQL-on-remote-memory via Wiera
	Improvement float64
}

// Fig12Result reproduces "Figure 12: Throughput (request/s) comparison":
// the unmodified RUBiS auction application (here: the rubis package's
// storage engine + client emulator) running with its database on either
// the Azure local disk or AWS remote memory through Wiera. Larger VM sizes
// lift the network throttle and the remote-memory configuration pulls
// ahead (paper: 50-80% better on Standard D2/D3).
type Fig12Result struct {
	Rows []Fig12Row
}

// Fig12 runs the RUBiS emulator for each Azure size against both backends.
func Fig12(opts Options) (*Fig12Result, error) {
	// The paper drives 300 simulated clients; enough concurrency to hit
	// the storage-path ceiling rather than the closed-loop limit.
	users, items := 200, 400
	clients, reqs := 100, 15
	if opts.Quick {
		users, items = 100, 200
		clients, reqs = 70, 10
	}
	res := &Fig12Result{}
	local, err := fig12Run(opts, users, items, clients, reqs, nil)
	if err != nil {
		return nil, fmt.Errorf("fig12 local: %w", err)
	}
	for _, vm := range cloudsim.AzureSizes() {
		spec, err := cloudsim.Lookup(vm)
		if err != nil {
			return nil, err
		}
		remote, err := fig12Run(opts, users, items, clients, reqs, &spec)
		if err != nil {
			return nil, fmt.Errorf("fig12 %s remote: %w", vm, err)
		}
		res.Rows = append(res.Rows, Fig12Row{
			VM: vm, LocalRPS: local, RemoteRPS: remote,
			Improvement: (remote - local) / local,
		})
	}
	return res, nil
}

// fig12Run populates the auction database on the chosen backend and runs
// the closed-loop client mix. vm == nil selects the local-disk
// configuration; otherwise the remote-memory path with the VM's network
// throttle.
func fig12Run(opts Options, users, items, clients, reqs int, vm *cloudsim.Spec) (float64, error) {
	// The remote path's primary keeps its disk tier capped at 500 IOPS.
	d, fs, err := sec54Path("fig12", vm, 500)
	if err != nil {
		return 0, err
	}
	defer d.Close()

	db, err := rubis.OpenDB(fs)
	if err != nil {
		return 0, err
	}
	if err := rubis.Populate(db, users, items); err != nil {
		return 0, err
	}
	res, err := rubis.RunEmulator(rubis.EmulatorConfig{
		DB: db, Clock: d.Clk, Clients: clients, RequestsPerClient: reqs,
		BrowseReads: 3, Seed: opts.Seed,
	})
	if err != nil {
		return 0, err
	}
	if res.Errors > 0 {
		return 0, fmt.Errorf("rubis reported %d errors", res.Errors)
	}
	return res.Throughput, nil
}

// Render prints the per-VM-size throughput comparison.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12: RUBiS throughput (requests/s), local disk vs remote memory via Wiera\n")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{string(row.VM),
			fmt.Sprintf("%.0f", row.LocalRPS),
			fmt.Sprintf("%.0f", row.RemoteRPS),
			fmt.Sprintf("%+.0f%%", 100*row.Improvement)})
	}
	b.WriteString(table([]string{"VM size", "Local disk req/s", "Remote memory req/s", "Remote vs local"}, rows))
	b.WriteString("paper: low throughput on A2/D1, 50-80% improvement on D2/D3\n")
	return b.String()
}

// ShapeHolds verifies the figure's qualitative claims.
func (r *Fig12Result) ShapeHolds() error {
	byVM := map[cloudsim.VMType]Fig12Row{}
	for _, row := range r.Rows {
		byVM[row.VM] = row
	}
	sizes := cloudsim.AzureSizes()
	for i := 1; i < len(sizes); i++ {
		// Allow 10%% measurement noise on the near-flat D2/D3 pair.
		if byVM[sizes[i]].RemoteRPS < 0.9*byVM[sizes[i-1]].RemoteRPS {
			return fmt.Errorf("fig12: remote throughput not monotone: %s %.0f < %s %.0f",
				sizes[i], byVM[sizes[i]].RemoteRPS, sizes[i-1], byVM[sizes[i-1]].RemoteRPS)
		}
	}
	// D2/D3 must clearly beat local disk; A2/D1 must not show the large
	// improvement.
	for _, big := range []cloudsim.VMType{cloudsim.AzureStdD2, cloudsim.AzureStdD3} {
		if byVM[big].Improvement < 0.3 {
			return fmt.Errorf("fig12: %s improvement %+.0f%%, paper 50-80%%", big, 100*byVM[big].Improvement)
		}
	}
	for _, small := range []cloudsim.VMType{cloudsim.AzureBasicA2, cloudsim.AzureStdD1} {
		if byVM[small].Improvement > byVM[cloudsim.AzureStdD2].Improvement {
			return fmt.Errorf("fig12: %s improvement exceeds D2's", small)
		}
	}
	return nil
}
