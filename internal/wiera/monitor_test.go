package wiera

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/flight"
	"repro/internal/policy"
)

// windowMaxOf is the reference latencyWindow is tested against: the
// representative maximum of a sample window by one scan — the
// second-highest sample when three or more exist, otherwise the highest
// (zero for an empty window).
func windowMaxOf(samples []latencySample) time.Duration {
	var max1, max2 time.Duration
	for _, s := range samples {
		if s.d > max1 {
			max2, max1 = max1, s.d
		} else if s.d > max2 {
			max2 = s.d
		}
	}
	if len(samples) >= 3 {
		return max2
	}
	return max1
}

// held counts the samples in the window.
func (w *latencyWindow) held() int { return len(w.front) + len(w.back) }

func TestWindowMaxOf(t *testing.T) {
	s := func(ds ...time.Duration) []latencySample {
		out := make([]latencySample, len(ds))
		for i, d := range ds {
			out[i] = latencySample{d: d}
		}
		return out
	}
	cases := []struct {
		name    string
		samples []latencySample
		want    time.Duration
	}{
		// Empty window: no violation signal at all.
		{"empty", nil, 0},
		// With one or two samples there is no way to tell an outlier from a
		// trend, so the highest wins.
		{"single", s(700 * time.Millisecond), 700 * time.Millisecond},
		{"two", s(100*time.Millisecond, 900*time.Millisecond), 900 * time.Millisecond},
		// Three or more: the second-highest discards exactly one outlier.
		{"three-outlier", s(10*time.Millisecond, 20*time.Millisecond, 5*time.Second), 20 * time.Millisecond},
		{"three-degraded", s(900*time.Millisecond, 950*time.Millisecond, 5*time.Second), 950 * time.Millisecond},
		{"order-independent", s(5*time.Second, 20*time.Millisecond, 10*time.Millisecond), 20 * time.Millisecond},
		{"ties", s(time.Second, time.Second, time.Second), time.Second},
		{"zeros", s(0, 0, 0), 0},
	}
	for _, c := range cases {
		if got := windowMaxOf(c.samples); got != c.want {
			t.Errorf("%s: windowMaxOf = %v, want %v", c.name, got, c.want)
		}
	}
}

// monitorFixture builds a thresholdMonitor over a bare node with a sim
// clock and the DynamicConsistency control events compiled in. policyName is
// set to the policy the slow branch targets, so real evaluations early-return
// (already on the requested policy) instead of issuing an RPC — the fixture
// has no transport.
func monitorFixture(t testing.TB, window time.Duration) (*thresholdMonitor, *clock.Sim) {
	t.Helper()
	spec, err := policy.Builtin("DynamicConsistency")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := policy.Compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim := clock.NewSim(time.Time{})
	n := &Node{clk: sim, policyName: "EventualConsistency"}
	n.controlEvents = prog.ByKind(policy.KindThreshold)
	return newThresholdMonitor(n, "put", window), sim
}

// streakOf reads streak id under the trigger's lock: the selection it holds
// ("" and the zero time for no streak) and when that selection began.
func (t *changeTrigger) streakOf(id string) (string, time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.streaks[id]
	return s.held, s.start
}

func (t *changeTrigger) isPending() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending
}

func TestThresholdMonitorEmptyWindowNoStreak(t *testing.T) {
	m, _ := monitorFixture(t, 10*time.Second)
	// No samples observed: nothing may have set a streak target.
	if target, _ := m.trigger.streakOf(""); target != "" {
		t.Fatalf("streak target %q before any sample", target)
	}
}

func TestThresholdMonitorSecondMaxGatesStreak(t *testing.T) {
	m, sim := monitorFixture(t, 10*time.Second)
	// One violating sample among fast ones: with >= 3 samples the second-max
	// rule discards the outlier, so the slow branch must not become the
	// streak target.
	m.observe(10 * time.Millisecond)
	sim.Advance(100 * time.Millisecond)
	m.observe(20 * time.Millisecond)
	sim.Advance(100 * time.Millisecond)
	m.observe(5 * time.Second) // isolated spike
	if target, _ := m.trigger.streakOf(""); target == "EventualConsistency" {
		t.Fatal("isolated spike set the violation streak (second-max rule broken)")
	}
	// A second slow sample makes it a trend: second-max is now violating.
	sim.Advance(100 * time.Millisecond)
	m.observe(4 * time.Second)
	if target, _ := m.trigger.streakOf(""); target != "EventualConsistency" {
		t.Fatalf("sustained violation streak target = %q, want EventualConsistency", target)
	}
}

func TestThresholdMonitorStreakRestartsOnTargetChange(t *testing.T) {
	m, sim := monitorFixture(t, 10*time.Second)
	// Establish a violation streak.
	for i := 0; i < 3; i++ {
		m.observe(2 * time.Second)
		sim.Advance(time.Second)
	}
	_, firstStart := m.trigger.streakOf("")
	// Let the slow samples age out, then observe fast: the probed branch
	// flips to MultiPrimaries and the streak clock must restart.
	sim.Advance(11 * time.Second)
	for i := 0; i < 3; i++ {
		m.observe(5 * time.Millisecond)
		sim.Advance(100 * time.Millisecond)
	}
	target, start := m.trigger.streakOf("")
	if target != "MultiPrimariesConsistency" {
		t.Fatalf("recovered streak target = %q", target)
	}
	if !start.After(firstStart) {
		t.Fatal("streak start did not restart when the target flipped")
	}
}

func TestThresholdMonitorResetAfterSwitch(t *testing.T) {
	m, sim := monitorFixture(t, 10*time.Second)
	for i := 0; i < 3; i++ {
		m.observe(2 * time.Second)
		sim.Advance(time.Second)
	}
	m.trigger.mu.Lock()
	m.trigger.pending = true // as if a change request was issued
	m.trigger.mu.Unlock()

	sim.Advance(time.Second)
	m.reset() // commitChange calls this once the switch lands

	if target, start := m.trigger.streakOf(""); target != "" || !start.IsZero() {
		t.Fatalf("streak %q from %v survived reset", target, start)
	}
	if m.trigger.isPending() {
		t.Fatal("pending request survived reset")
	}
	// Samples observed before the switch may remain; the streak must restart
	// from scratch on the next observation.
	m.observe(2 * time.Second)
	target, start := m.trigger.streakOf("")
	if target != "EventualConsistency" {
		t.Fatalf("post-reset streak target = %q", target)
	}
	if got := sim.Now().Sub(start); got != 0 {
		t.Fatalf("post-reset streak age = %v, want 0", got)
	}
}

// TestSLOTriggerStreaksPerObjective feeds the SLOSwitch control events
// alternating statuses of two objectives: put-latency burns its budget
// throughout, while get-latency wavers between recovering and neutral. The
// burning objective's streak must age across the other's evaluations, which
// restart only their own; reset then clears both and the pending request.
func TestSLOTriggerStreaksPerObjective(t *testing.T) {
	spec, err := policy.Builtin("SLOSwitch")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := policy.Compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim := clock.NewSim(time.Time{})
	// Already on the burning branch's target, so no evaluation issues an
	// RPC; the run stays under the builtin's 30 s period, so the recovering
	// branch never fires either.
	n := &Node{clk: sim, policyName: "EventualConsistency"}
	n.controlEvents = prog.ByKind(policy.KindThreshold)
	m := newSLOMonitor(n)

	burnStart := sim.Now()
	for i := 0; i < 8; i++ {
		m.observe(flight.Status{Objective: "put-latency", Burn: 10, Firing: true})
		sim.Advance(time.Second)
		burn := 0.5 // recovering: selects MultiPrimariesConsistency
		if i%2 == 1 {
			burn = 1.5 // neither branch: selects nothing
		}
		m.observe(flight.Status{Objective: "get-latency", Burn: burn})
		if _, start := m.trigger.streakOf("get-latency"); !start.Equal(sim.Now()) {
			t.Fatalf("round %d: get-latency streak began %v, want a restart at %v", i, start, sim.Now())
		}
		sim.Advance(time.Second)
	}
	held, start := m.trigger.streakOf("put-latency")
	if held != "EventualConsistency" {
		t.Fatalf("put-latency streak holds %q, want EventualConsistency", held)
	}
	if !start.Equal(burnStart) {
		t.Fatalf("put-latency streak is %v old, want %v: another objective restarted it",
			sim.Now().Sub(start), sim.Now().Sub(burnStart))
	}

	m.trigger.mu.Lock()
	m.trigger.pending = true
	m.trigger.mu.Unlock()
	m.reset()
	for _, id := range []string{"put-latency", "get-latency"} {
		if held, start := m.trigger.streakOf(id); held != "" || !start.IsZero() {
			t.Fatalf("%s streak %q from %v survived reset", id, held, start)
		}
	}
	if m.trigger.isPending() {
		t.Fatal("pending request survived reset")
	}
}

// TestLatencyWindowMatchesScan drives a latencyWindow and a plain slice
// with the same random (advance, latency) steps and requires the window's
// maximum to equal windowMaxOf over the slice after every step.
func TestLatencyWindowMatchesScan(t *testing.T) {
	const window = 10 * time.Second
	// Few distinct values, so ties, zeros and repeated maxima are common.
	latencies := []time.Duration{0, 0, time.Millisecond, 5 * time.Millisecond,
		5 * time.Millisecond, 900 * time.Millisecond, 2 * time.Second, 2 * time.Second}
	// Zero advances pile samples on one instant; window and window/2 land
	// samples exactly on a later cut (kept: only strictly older ones
	// expire); 3*window empties the window whole.
	advances := []time.Duration{0, 0, time.Millisecond, 100 * time.Millisecond,
		time.Second, window / 2, window, window + time.Nanosecond, 3 * window}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := clock.NewSim(time.Time{})
		var w latencyWindow
		var ref []latencySample
		for step := 0; step < 2000; step++ {
			sim.Advance(advances[rng.Intn(len(advances))])
			now := sim.Now()
			s := latencySample{at: now, d: latencies[rng.Intn(len(latencies))]}
			cut := now.Add(-window)
			w.push(s)
			w.expire(cut)
			ref = append(ref, s)
			for len(ref) > 0 && ref[0].at.Before(cut) {
				ref = ref[1:]
			}
			if got, want := w.max(), windowMaxOf(ref); got != want {
				t.Fatalf("seed %d step %d: window max = %v, scan of %d samples = %v",
					seed, step, got, len(ref), want)
			}
			if got := w.held(); got != len(ref) {
				t.Fatalf("seed %d step %d: window holds %d samples, want %d", seed, step, got, len(ref))
			}
		}
	}
}

// TestTimeFIFOMatchesSlice checks the requests monitor's queue against a
// plain slice under random pushes and expiries.
func TestTimeFIFOMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	now := time.Unix(0, 0)
	var q timeFIFO
	var ref []time.Time
	for step := 0; step < 5000; step++ {
		now = now.Add(time.Duration(rng.Intn(3)) * time.Second)
		q.push(now)
		ref = append(ref, now)
		cut := now.Add(-time.Duration(rng.Intn(40)) * time.Second)
		q.expire(cut)
		for len(ref) > 0 && ref[0].Before(cut) {
			ref = ref[1:]
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(ref))
		}
		if len(ref) > 0 && !q.ts[q.head].Equal(ref[0]) {
			t.Fatalf("step %d: oldest = %v, want %v", step, q.ts[q.head], ref[0])
		}
		if len(q.ts) > 2*q.len()+1 {
			t.Fatalf("step %d: %d slots kept for %d live times", step, len(q.ts), q.len())
		}
	}
}

// TestThresholdObserveCostIndependentOfWindow is the quadratic-blow-up
// guard: 200 000 samples inside one window, with a threshold event
// evaluated on each, and the last tenth must not cost much more than the
// first. Rescanning the window per sample makes the last tenth (190 000+
// samples held) some fifteen times dearer than the first (under 20 000);
// comparing the two keeps the guard independent of the machine's speed and
// of the race detector's.
func TestThresholdObserveCostIndependentOfWindow(t *testing.T) {
	const samples, tenth = 200000, 20000
	m, sim := monitorFixture(t, 10*time.Second)
	var first, last time.Duration
	for i := 0; i < samples; i += tenth {
		start := time.Now()
		for j := 0; j < tenth; j++ {
			m.observe(5 * time.Millisecond)
			sim.Advance(40 * time.Microsecond) // 8 s in all: nothing expires
		}
		last = time.Since(start)
		if i == 0 {
			first = last
		}
	}
	if got := m.samples.held(); got != samples {
		t.Fatalf("window holds %d samples, want %d", got, samples)
	}
	if last > 4*first {
		t.Fatalf("observe cost grows with the window: first %d took %v, last %d took %v",
			tenth, first, tenth, last)
	}
}

// TestThresholdObserveKeepsNothingWithoutEvent: a node whose policy has no
// threshold event for the monitor must not collect samples nobody reads.
func TestThresholdObserveKeepsNothingWithoutEvent(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	m := newThresholdMonitor(&Node{clk: sim}, "put", 0)
	for i := 0; i < 10; i++ {
		m.observe(time.Second)
	}
	if got := m.samples.held(); got != 0 {
		t.Fatalf("monitor without events kept %d samples", got)
	}
}

// BenchmarkThresholdObserve: ns/op must not depend on how many samples
// the window holds.
func BenchmarkThresholdObserve(b *testing.B) {
	for _, held := range []int{10, 10000} {
		b.Run(fmt.Sprintf("window=%d", held), func(b *testing.B) {
			const window = 10 * time.Second
			m, sim := monitorFixture(b, window)
			// A slow sample per step keeps the probed target equal to the
			// fixture's current policy, so evaluation never issues a change
			// request.
			step := window / time.Duration(held)
			for i := 0; i < 2*held; i++ {
				m.observe(2 * time.Second)
				sim.Advance(step)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.observe(2 * time.Second)
				sim.Advance(step)
			}
			b.StopTimer()
			if got := m.samples.held(); got < held || got > held+1 {
				b.Fatalf("window holds %d samples, want about %d", got, held)
			}
		})
	}
}
