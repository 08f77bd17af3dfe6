package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/flight"
	"repro/internal/simnet"
	"repro/internal/wiera"
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
	// SLO: puts (and, under eventual consistency, replication fan-outs)
	// complete under 800 ms for 90% of events. During the 1200 ms injected
	// delay essentially every event is bad, so the budget burns at ~10x —
	// far over the SLOSwitch policy's >= 2 alert threshold.
	period := mpPeriod(opts)
	r, err := startMPTimeline(opts, "sloswitch", "SLOSwitch", map[string]string{
		"sloPut":        "800ms",
		"sloTarget":     "0.9",
		"sloFastWindow": fmt.Sprintf("%dms", (period / 4).Milliseconds()),
		"sloSlowWindow": fmt.Sprintf("%dms", (period / 2).Milliseconds()),
		"sloInterval":   fmt.Sprintf("%dms", (period / 20).Milliseconds()),
	})
	if err != nil {
		return nil, err
	}
	defer r.d.Close()
	d := r.d

	res := &SLOSwitchResult{}
	// sampleSLO folds the current slo_* gauges at US-West into the result.
	sampleSLO := func() {
		for _, fam := range d.Fabric.Metrics().Snapshot() {
			switch fam.Name {
			case "slo_burn_rate":
				for _, m := range fam.Metrics {
					// Labels: slo, window, node, region.
					if len(m.LabelValues) == 4 && m.LabelValues[2] == r.west.Name() && m.Value > res.PeakBurn {
						res.PeakBurn = m.Value
					}
				}
			case "slo_violation":
				for _, m := range fam.Metrics {
					// Labels: slo, node, region.
					if len(m.LabelValues) == 3 && m.LabelValues[1] == r.west.Name() && m.Value >= 1 {
						res.ViolationSeen = true
					}
				}
			}
		}
	}

	// Let load-phase latencies age out of the burn windows.
	r.sleep(1.2)

	// Phase 1: normal operation under strong consistency.
	normalFrom := r.mark("normal")
	r.sleep(1.5)
	normalTo := d.Clk.Now()

	// Sustained delay: burn the error budget until the SLO alert fires and
	// the policy downgrades. Sample the gauges through the delay so the
	// peak burn and the violation flag are captured mid-incident.
	delayOn := r.mark("delay-on")
	d.Net.InjectRegionLag(simnet.USWest, 1200*time.Millisecond)
	for i := 0; i < 7; i++ {
		r.sleep(0.5)
		sampleSLO()
	}
	d.Net.InjectRegionLag(simnet.USWest, 0)
	delayOff := r.mark("delay-off")
	// Recovery: the budget stops burning; SLOSwitch returns to strong
	// consistency after its period streak.
	r.sleep(3.0)
	r.mark("end")

	res.Series, res.Changes = r.finish()
	res.DebugPhases = r.phases
	res.SwitchesToEventual, res.SwitchesToStrong = consistencySwitches(res.Changes)
	res.AllViaSLO = true
	for _, ch := range res.Changes {
		if ch.What == "consistency" && ch.Via != "slo" {
			res.AllViaSLO = false
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
