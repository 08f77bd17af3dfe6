package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/simnet"
	"repro/internal/wiera"
	"repro/internal/ycsb"
)

// SLOSwitchResult is the Fig-7-style run where the consistency switch is
// fired by an SLOViolation burn-rate event instead of the raw latency
// monitor: four regions under MultiPrimariesConsistency, a put-latency SLO
// (puts under 800 ms), and a sustained US-West delay that burns the error
// budget until the SLOSwitch policy downgrades to eventual consistency —
// then recovers once the budget stops burning.
type SLOSwitchResult struct {
	// Series is the US-West put-latency timeline (ms).
	Series []Point
	// Changes is the applied policy-change log; every consistency change
	// must carry Via == "slo".
	Changes []wiera.ChangeEvent
	// Phase means (ms), as in Fig 7.
	StrongMeanMs   float64
	EventualMeanMs float64
	// SwitchesToEventual / SwitchesToStrong count applied consistency
	// changes (one each: a single sustained delay).
	SwitchesToEventual int
	SwitchesToStrong   int
	// AllViaSLO is true when every consistency change was attributed to
	// the SLO monitor — none to the raw latency monitor.
	AllViaSLO bool
	// PeakBurn is the highest slo_burn_rate gauge observed at US-West
	// during the delay; ViolationSeen reports the slo_violation gauge
	// reaching 1 there.
	PeakBurn      float64
	ViolationSeen bool
	// SlowRecords counts requests the flight recorder's always-keep
	// slowlog retained over the run (the /debug/requests evidence).
	SlowRecords int64
	// DebugPhases records the phase boundaries for diagnostics.
	DebugPhases []PhaseMark
}

// SLOSwitch runs the SLO-driven consistency-switch experiment.
func SLOSwitch(opts Options) (*SLOSwitchResult, error) {
	period := 30 * time.Second
	factor := 10.0
	if opts.Quick {
		period = 10 * time.Second
	}
	// The SLOSwitch builtin embeds the paper's 30 s period threshold;
	// rewrite it to the run's period like Fig 7 does for DynamicConsistency.
	dynSrc := strings.ReplaceAll(mustBuiltinSource("SLOSwitch"), "30s",
		fmt.Sprintf("%ds", int(period.Seconds())))

	d, err := NewDeployment(factor)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	policySrc := `
Wiera MultiPrimariesConsistency {
	Region1 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region3 = {name: LowLatencyInstance, region: eu-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region4 = {name: LowLatencyInstance, region: asia-east,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	event(insert.into) : response {
		lock(what: insert.key);
		store(what: insert.object, to: local_instance);
		copy(what: insert.object, to: all_regions);
		release(what: insert.key);
	}
}`
	// SLO: puts (and, under eventual consistency, replication fan-outs)
	// complete under 800 ms for 90% of events. During the 1200 ms injected
	// delay essentially every event is bad, so the budget burns at ~10x —
	// far over the SLOSwitch policy's >= 2 alert threshold.
	nodes, err := d.Server.StartInstances(wiera.StartInstancesRequest{
		InstanceID: "sloswitch",
		PolicySrc:  policySrc,
		Params: map[string]string{
			"t":             "2s",
			"dynamic":       dynSrc,
			"sloPut":        "800ms",
			"sloTarget":     "0.9",
			"sloFastWindow": fmt.Sprintf("%dms", (period / 4).Milliseconds()),
			"sloSlowWindow": fmt.Sprintf("%dms", (period / 2).Milliseconds()),
			"sloInterval":   fmt.Sprintf("%dms", (period / 20).Milliseconds()),
		},
	})
	if err != nil {
		return nil, err
	}

	west, err := d.Node("sloswitch/us-west")
	if err != nil {
		return nil, err
	}
	timeline := &putTimeline{nodeStore: nodeStore{west}, clk: d.Clk}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, pi := range nodes {
		node, err := d.Node(pi.Name)
		if err != nil {
			return nil, err
		}
		var store ycsb.Store = nodeStore{node}
		if node == west {
			store = timeline
		}
		w := shrunkWorkload(ycsb.WorkloadA, 64, 1024)
		w.Prefix = string(pi.Region) + "/"
		cli, err := ycsb.NewClient(w, store, opts.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		if err := cli.Load(); err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(cli *ycsb.Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					cli.RunOne(d.Clk.Now)
					d.Clk.Sleep(500 * time.Millisecond)
				}
			}
		}(cli)
	}

	res := &SLOSwitchResult{}
	sleep := func(mult float64) { d.Clk.Sleep(time.Duration(mult * float64(period))) }
	mark := func(name string) time.Time {
		now := d.Clk.Now()
		res.DebugPhases = append(res.DebugPhases, PhaseMark{Name: name, At: now})
		return now
	}
	// sampleSLO folds the current slo_* gauges at US-West into the result.
	sampleSLO := func() {
		for _, fam := range d.Fabric.Metrics().Snapshot() {
			switch fam.Name {
			case "slo_burn_rate":
				for _, m := range fam.Metrics {
					// Labels: slo, window, node, region.
					if len(m.LabelValues) == 4 && m.LabelValues[2] == west.Name() && m.Value > res.PeakBurn {
						res.PeakBurn = m.Value
					}
				}
			case "slo_violation":
				for _, m := range fam.Metrics {
					// Labels: slo, node, region.
					if len(m.LabelValues) == 3 && m.LabelValues[1] == west.Name() && m.Value >= 1 {
						res.ViolationSeen = true
					}
				}
			}
		}
	}

	// Let load-phase latencies age out of the burn windows.
	sleep(1.2)

	// Phase 1: normal operation under strong consistency.
	normalFrom := mark("normal")
	sleep(1.5)
	normalTo := d.Clk.Now()

	// Sustained delay: burn the error budget until the SLO alert fires and
	// the policy downgrades. Sample the gauges through the delay so the
	// peak burn and the violation flag are captured mid-incident.
	delayOn := mark("delay-on")
	d.Net.InjectRegionLag(simnet.USWest, 1200*time.Millisecond)
	for i := 0; i < 7; i++ {
		sleep(0.5)
		sampleSLO()
	}
	d.Net.InjectRegionLag(simnet.USWest, 0)
	delayOff := mark("delay-off")
	// Recovery: the budget stops burning; SLOSwitch returns to strong
	// consistency after its period streak.
	sleep(3.0)
	mark("end")

	close(stop)
	wg.Wait()

	res.Series = timeline.points
	res.Changes = d.Server.ChangeLog()
	res.AllViaSLO = true
	for _, ch := range res.Changes {
		if ch.What != "consistency" {
			continue
		}
		if ch.Via != "slo" {
			res.AllViaSLO = false
		}
		switch ch.To {
		case "EventualConsistency":
			res.SwitchesToEventual++
		case "MultiPrimariesConsistency":
			res.SwitchesToStrong++
		}
	}
	res.StrongMeanMs = meanInWindow(res.Series, normalFrom, normalTo)
	// Eventual-phase samples: the second half of the delay window, well
	// after the switch landed.
	mid := delayOn.Add(delayOff.Sub(delayOn) * 3 / 4)
	res.EventualMeanMs = meanInWindow(res.Series, mid, delayOff)
	_, res.SlowRecords = d.Fabric.Flight().Totals()
	return res, nil
}

// Render prints the run summary.
func (r *SLOSwitchResult) Render() string {
	var b strings.Builder
	b.WriteString("SLO-driven consistency switch (Fig-7 shape, SLOViolation trigger)\n")
	fmt.Fprintf(&b, "put latency, strong consistency (normal): %.1f ms\n", r.StrongMeanMs)
	fmt.Fprintf(&b, "put latency, eventual (during sustained delay): %.1f ms\n", r.EventualMeanMs)
	fmt.Fprintf(&b, "switches to eventual: %d, back to strong: %d\n",
		r.SwitchesToEventual, r.SwitchesToStrong)
	fmt.Fprintf(&b, "all consistency changes via SLO monitor: %v\n", r.AllViaSLO)
	fmt.Fprintf(&b, "peak error-budget burn rate at us-west: %.1fx (alert at 2x)\n", r.PeakBurn)
	fmt.Fprintf(&b, "slo_violation gauge fired: %v\n", r.ViolationSeen)
	fmt.Fprintf(&b, "flight-recorder slowlog records: %d\n", r.SlowRecords)
	fmt.Fprintf(&b, "timeline samples: %d, policy changes: %d\n", len(r.Series), len(r.Changes))
	return b.String()
}

// ShapeHolds reports whether the run demonstrates the tentpole claim: a
// consistency switch each way, fired by the SLO monitor (not raw latency),
// with the burn visible in the slo_* gauges and the incident's requests
// retained in the slowlog.
func (r *SLOSwitchResult) ShapeHolds() error {
	if r.SwitchesToEventual < 1 {
		return fmt.Errorf("sloswitch: no switch to eventual consistency")
	}
	if r.SwitchesToStrong < 1 {
		return fmt.Errorf("sloswitch: no switch back to strong consistency")
	}
	if !r.AllViaSLO {
		return fmt.Errorf("sloswitch: a consistency change fired via a non-SLO monitor")
	}
	if r.PeakBurn < flight.DefaultAlertBurn {
		return fmt.Errorf("sloswitch: peak burn %.2f below the %.0fx alert threshold",
			r.PeakBurn, flight.DefaultAlertBurn)
	}
	if !r.ViolationSeen {
		return fmt.Errorf("sloswitch: slo_violation gauge never fired")
	}
	if r.SlowRecords == 0 {
		return fmt.Errorf("sloswitch: slowlog retained no records through the incident")
	}
	if r.EventualMeanMs >= r.StrongMeanMs {
		return fmt.Errorf("sloswitch: eventual mean %.1f ms not under strong mean %.1f ms",
			r.EventualMeanMs, r.StrongMeanMs)
	}
	return nil
}
