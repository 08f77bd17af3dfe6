package wiera

import (
	"sync"
	"time"

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
// the multi-window alert is firing), threshold.period (how long the body
// has continuously selected the same change target — same semantics as the
// other monitors). A nil *sloMonitor no-ops, so nodes without objectives
// pay nothing.
type sloMonitor struct {
	n *Node

	mu            sync.Mutex
	streaks       map[string]*sloStreak // per objective name
	pendingChange bool
}

// sloStreak tracks how long one objective's evaluations have continuously
// selected the same change target.
type sloStreak struct {
	target string
	start  time.Time
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
	return &sloMonitor{n: n, streaks: make(map[string]*sloStreak)}
}

// reset clears streak and pending state (called when a policy change
// commits or the primary moves).
func (m *sloMonitor) reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.streaks = make(map[string]*sloStreak)
	m.pendingChange = false
	m.mu.Unlock()
}

// observe is the SLO engine's OnStatus callback.
func (m *sloMonitor) observe(st flight.Status) {
	if m == nil {
		return
	}
	for _, ev := range m.n.controlEvents {
		if ev.Kind != policy.KindThreshold || ev.Monitor != "slo" {
			continue
		}
		m.evaluate(ev, st)
	}
}

func (m *sloMonitor) evaluate(ev *policy.CompiledEvent, st flight.Status) {
	now := m.n.clk.Now()
	bind := func(env *policy.MapEnv, period time.Duration) {
		env.Set("threshold.type", policy.IdentVal("slo"))
		env.Set("threshold.slo", policy.IdentVal(st.Objective))
		env.Set("threshold.burnRate", policy.NumberVal(st.Burn))
		env.Set("threshold.violation", policy.BoolVal(st.Firing))
		env.Set("threshold.period", policy.DurationVal(period))
	}

	// Probe: which target would this status choose, ignoring period?
	probeEnv := policy.NewMapEnv()
	bind(probeEnv, probePeriod)
	probe := &changeCapture{}
	if _, err := ev.Fire(probeEnv, probe); err != nil {
		return
	}

	m.mu.Lock()
	sk := m.streaks[st.Objective]
	if sk == nil {
		sk = &sloStreak{start: now}
		m.streaks[st.Objective] = sk
	}
	if probe.to != sk.target {
		sk.target = probe.to
		sk.start = now
	}
	streak := now.Sub(sk.start)
	pending := m.pendingChange
	m.mu.Unlock()

	if probe.to == "" || pending {
		return
	}
	// Real evaluation with the true streak duration.
	realEnv := policy.NewMapEnv()
	bind(realEnv, streak)
	capture := &changeCapture{}
	if _, err := ev.Fire(realEnv, capture); err != nil || capture.to == "" {
		return
	}
	if capture.what == "consistency" && capture.to == m.n.PolicyName() {
		return // already on the requested policy
	}
	m.mu.Lock()
	m.pendingChange = true
	m.mu.Unlock()
	// Asynchronous for the same reason as the other monitors: the change
	// request round-trips to the Wiera server, which freezes this node's
	// gate, and the engine tick must not block behind it.
	go func() {
		if err := m.n.requestPolicyChangeVia(capture.what, capture.to, "slo"); err != nil {
			m.mu.Lock()
			m.pendingChange = false
			m.mu.Unlock()
		}
	}()
}
