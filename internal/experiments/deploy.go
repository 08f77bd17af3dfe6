// Package experiments contains one reproduction harness per table and
// figure of the paper's evaluation (Sec 5). Each harness builds a full
// in-process Wiera deployment over the simulated WAN, runs the paper's
// workload, and returns a result carrying both the measured numbers and
// the paper's reported values, plus a text rendering of the same rows or
// series the paper reports. The package's tests and the cmd/wierabench
// binary call these.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/coord"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wiera"
)

// Options tunes a harness run.
type Options struct {
	// Quick shrinks workload sizes and durations so the full suite runs in
	// seconds (benchmarks and CI). Shapes still hold; absolute sample
	// counts drop.
	Quick bool
	// Seed drives every random generator in the harness.
	Seed int64
}

// Deployment is a complete in-process Wiera system over the simulated WAN.
type Deployment struct {
	Clk    clock.Clock
	Net    *simnet.Network
	Fabric *transport.Fabric
	Coord  *coord.Server
	Server *wiera.Server
	TSs    map[simnet.Region]*wiera.TieraServer

	// extra is what a harness built beside the Wiera stack (azureDisk's
	// Tiera instance); Close closes it first.
	extra []io.Closer

	sim     *clock.Sim // non-nil when driven by AutoAdvance
	stopAdv func()
}

// NewDeployment builds fabric + coordination + Wiera server + one Tiera
// server per region over a Scaled clock with the given compression factor.
func NewDeployment(factor float64, regions ...simnet.Region) (*Deployment, error) {
	return newDeployment(clock.NewScaled(factor), regions...)
}

// NewSimDeployment builds the same stack over a virtual clock driven by
// AutoAdvance — exact modeled time, used by the throughput experiments
// (Figs 11/12).
func NewSimDeployment(regions ...simnet.Region) (*Deployment, error) {
	sim := clock.NewSim(time.Time{})
	d, err := newDeployment(sim, regions...)
	if err != nil {
		return nil, err
	}
	d.sim = sim
	d.stopAdv = sim.AutoAdvance(50 * time.Microsecond)
	return d, nil
}

func newDeployment(clk clock.Clock, regions ...simnet.Region) (*Deployment, error) {
	if len(regions) == 0 {
		regions = simnet.DefaultRegions()
	}
	net := simnet.New(clk)
	fabric := transport.NewFabric(net)
	cs := coord.NewServer(clk)
	zkEP, err := fabric.NewEndpoint("zk", simnet.USEast)
	if err != nil {
		return nil, err
	}
	zkEP.Serve(cs.Handler())
	srv, err := wiera.NewServer(wiera.ServerConfig{Fabric: fabric, CoordDst: "zk"})
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Clk: clk, Net: net, Fabric: fabric, Coord: cs, Server: srv,
		TSs: make(map[simnet.Region]*wiera.TieraServer),
	}
	for _, r := range regions {
		ts, err := wiera.NewTieraServer(fabric, r, srv, "zk")
		if err != nil {
			d.Close()
			return nil, err
		}
		d.TSs[r] = ts
	}
	return d, nil
}

// Node returns a spawned node by name from any Tiera server.
func (d *Deployment) Node(name string) (*wiera.Node, error) {
	for _, ts := range d.TSs {
		if n, ok := ts.Node(name); ok {
			return n, nil
		}
	}
	return nil, fmt.Errorf("experiments: no node %q", name)
}

// Close tears the deployment down. The AutoAdvance driver stops last:
// node shutdown still exchanges messages over the simulated network and
// would otherwise block on a frozen virtual clock.
func (d *Deployment) Close() {
	for _, c := range d.extra {
		c.Close()
	}
	for _, ts := range d.TSs {
		ts.Close()
	}
	d.Server.Close()
	d.Fabric.Close()
	if d.stopAdv != nil {
		d.stopAdv()
	}
}

// almostEq reports near-equality of two dollar amounts.
func almostEq(a, b float64) bool {
	d := a - b
	return d < 0.01 && d > -0.01
}

// ms renders a duration in milliseconds with two decimals, the unit of the
// paper's latency tables.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// table renders rows of columns with aligned padding.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(header)
	sep := make([]string, len(header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
