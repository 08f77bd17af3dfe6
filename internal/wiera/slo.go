package wiera

import (
	"repro/internal/flight"
	"repro/internal/policy"
)

// sloMonitor implements SLOViolation monitoring: it receives every SLO
// engine evaluation (flight.Status) and feeds threshold events of type
// "slo", making burn-rate alerts first-class policy triggers alongside
// LatencyMonitoring ("put") and RequestsMonitoring ("primary"). A policy
// reacts with e.g.
//
//	event(threshold.type == slo) : response {
//	    if (threshold.burnRate >= 2 && threshold.period > 30s) {
//	        change_policy(what: consistency, to: EventualConsistency);
//	    }
//	}
//
// Bound attributes: threshold.slo (objective name), threshold.burnRate
// (min of the fast/slow window burn rates), threshold.violation (whether
// the multi-window alert is firing), threshold.period (as for the other
// monitors, through the same changeTrigger, with one streak per objective).
// A nil *sloMonitor no-ops, so nodes without objectives pay nothing.
type sloMonitor struct {
	events  []*policy.CompiledEvent
	trigger *changeTrigger
}

// declaredSLOs lists the objectives the slo* options declare: sloPut and
// sloGet (latency thresholds) and sloAvailability each declare one;
// sloTarget and the two burn windows apply to all of them. NewNode binds
// their sources.
func declaredSLOs(p Params) []flight.Objective {
	base := flight.Objective{Target: p.SLO.Target, FastWindow: p.SLO.FastWindow, SlowWindow: p.SLO.SlowWindow}
	var slos []flight.Objective
	if p.SLO.Put > 0 {
		o := base
		o.Name, o.Op, o.Threshold = "put-latency", "put", p.SLO.Put
		slos = append(slos, o)
	}
	if p.SLO.Get > 0 {
		o := base
		o.Name, o.Op, o.Threshold = "get-latency", "get", p.SLO.Get
		slos = append(slos, o)
	}
	if p.SLO.Availability {
		o := base
		o.Name, o.Op = "availability", "availability"
		slos = append(slos, o)
	}
	return slos
}

func newSLOMonitor(n *Node) *sloMonitor {
	return &sloMonitor{events: thresholdEvents(n, "slo"), trigger: newChangeTrigger(n, "slo")}
}

// reset clears the trigger (called when a policy change commits or the
// primary moves).
func (m *sloMonitor) reset() {
	if m != nil {
		m.trigger.reset()
	}
}

// observe is the SLO engine's OnStatus callback.
func (m *sloMonitor) observe(st flight.Status) {
	if m == nil {
		return
	}
	bind := func(env *policy.MapEnv) {
		env.Set("threshold.type", policy.IdentVal("slo"))
		env.Set("threshold.slo", policy.IdentVal(st.Objective))
		env.Set("threshold.burnRate", policy.NumberVal(st.Burn))
		env.Set("threshold.violation", policy.BoolVal(st.Firing))
	}
	for _, ev := range m.events {
		m.trigger.evaluate(ev, st.Objective, "", bind)
	}
}
