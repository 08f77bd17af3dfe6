package wiera

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/policy"
)

const debugMonitor = false

// monitorWindow is the observation window of the requests monitor (the
// paper's experiment checks the put history of the last 30 seconds).
const monitorWindow = 30 * time.Second

// probePeriod stands in for "infinitely long" when probing which branch a
// threshold body would take, so period comparisons always pass.
const probePeriod = 1000000 * time.Hour

// changeCapture is a policy executor that records change_policy calls
// without performing them; used to probe which branch a threshold event
// body takes for the current measurements.
type changeCapture struct {
	what, to string
}

// Do implements policy.Executor.
func (c *changeCapture) Do(call *policy.ActionCall) error {
	if call.Name == "change_policy" {
		c.what, _ = call.StringArg("what")
		c.to, _ = call.StringArg("to")
	}
	return nil
}

// Assign implements policy.Executor.
func (c *changeCapture) Assign(string, policy.Value) error { return nil }

// thresholdMonitor implements LatencyMonitoring (paper Sec 4.3): a
// dedicated evaluator signalled after each operation *and* each background
// replication fan-out. Semantics of the threshold.period attribute: the
// duration for which the policy body has continuously selected the same
// change target ("the period of the violation"). The monitor discovers the
// target by probing the body with an unbounded period, so the 800 ms
// threshold itself lives purely in the policy text.
type thresholdMonitor struct {
	n       *Node
	monitor string // threshold.type this monitor feeds ("put")
	// window (the monitorWindow option) is how long a latency sample stays
	// representative. The monitor evaluates against the window *maximum*, so
	// that in eventual consistency — where application puts are fast by
	// construction — the slow background replication fan-outs still register
	// as "the network is degraded", preventing a premature switch back to
	// strong consistency (paper Fig 7: the system returns to MultiPrimaries
	// only once no delay is observed for the period threshold). The window
	// also stretches any violation by up to its own width, so it should stay
	// well under the policy's period threshold (a third or less). It is a
	// latencyWindow: however many samples it holds, admitting one, expiring
	// one and reading the maximum each cost O(1) amortised.
	window time.Duration
	// events are the node's threshold events of this monitor's type. The
	// node's control events are fixed at creation, so a policy without one
	// never reads the window and observe keeps none.
	events []*policy.CompiledEvent

	mu            sync.Mutex
	samples       latencyWindow
	streakTarget  string
	streakStart   time.Time
	pendingChange bool
}

func newThresholdMonitor(n *Node, monitor string, window time.Duration) *thresholdMonitor {
	return &thresholdMonitor{
		n: n, monitor: monitor, window: window,
		events:      thresholdEvents(n, monitor),
		streakStart: n.clk.Now(),
	}
}

// thresholdEvents returns the node's threshold events fed by monitor.
func thresholdEvents(n *Node, monitor string) []*policy.CompiledEvent {
	var out []*policy.CompiledEvent
	for _, ev := range n.controlEvents {
		if ev.Kind == policy.KindThreshold && ev.Monitor == monitor {
			out = append(out, ev)
		}
	}
	return out
}

// reset clears streak and pending state (called when a policy change
// commits).
func (m *thresholdMonitor) reset() {
	m.mu.Lock()
	m.streakTarget = ""
	m.streakStart = m.n.clk.Now()
	m.pendingChange = false
	m.mu.Unlock()
}

// observe feeds one latency sample (an operation or a replication
// fan-out) to every matching threshold event.
func (m *thresholdMonitor) observe(latency time.Duration) {
	if len(m.events) == 0 {
		return
	}
	now := m.n.clk.Now()
	m.mu.Lock()
	m.samples.push(latencySample{at: now, d: latency})
	m.samples.expire(now.Add(-m.window))
	windowMax := m.samples.max()
	m.mu.Unlock()
	for _, ev := range m.events {
		m.evaluate(ev, windowMax)
	}
}

type latencySample struct {
	at time.Time
	d  time.Duration
}

// top2 summarises a set of latency samples: how many there are and the two
// highest (zero where the set has fewer). Two summaries merge into the
// summary of the union, in either order, which is what lets latencyWindow
// keep one per stack instead of rescanning the samples.
type top2 struct {
	n          int
	max1, max2 time.Duration
}

func (a top2) add(d time.Duration) top2 {
	a.n++
	if d > a.max1 {
		a.max2, a.max1 = a.max1, d
	} else if d > a.max2 {
		a.max2 = d
	}
	return a
}

func (a top2) merge(b top2) top2 {
	n := a.n + b.n
	a = a.add(b.max1).add(b.max2)
	a.n = n
	return a
}

// max returns the representative maximum of the summarised samples: the
// second-highest when three or more exist, otherwise the highest (zero for
// none). A genuine network delay slows every operation and replication
// fan-out, while an isolated measurement spike (scheduling noise) produces
// one outlier and must not register as a violation — hence the second-max
// rule, which discards exactly one outlier once there are enough samples to
// tell the difference.
func (a top2) max() time.Duration {
	if a.n >= 3 {
		return a.max2
	}
	return a.max1
}

// latencyWindow is the monitor's sliding sample window: a FIFO whose top2
// summary is always at hand. It is the two-stack queue: samples are pushed
// on back, whose running summary is backAgg; they leave from the end of
// front, where each entry carries the summary of itself and every entry
// before it in the slice (all the samples that arrived after it). When
// front runs empty, back is poured into it newest first, so each sample is
// moved once, and the summary of the whole window is front's last entry
// merged with backAgg.
type latencyWindow struct {
	front   []windowEntry
	back    []latencySample
	backAgg top2
}

type windowEntry struct {
	at  time.Time
	agg top2
}

func (w *latencyWindow) push(s latencySample) {
	w.back = append(w.back, s)
	w.backAgg = w.backAgg.add(s.d)
}

// expire drops, in arrival order, every sample older than cut.
func (w *latencyWindow) expire(cut time.Time) {
	for {
		if len(w.front) == 0 {
			if len(w.back) == 0 || !w.back[0].at.Before(cut) {
				return
			}
			var agg top2
			for i := len(w.back) - 1; i >= 0; i-- {
				agg = agg.add(w.back[i].d)
				w.front = append(w.front, windowEntry{at: w.back[i].at, agg: agg})
			}
			w.back, w.backAgg = w.back[:0], top2{}
		}
		if !w.front[len(w.front)-1].at.Before(cut) {
			return
		}
		w.front = w.front[:len(w.front)-1]
	}
}

func (w *latencyWindow) max() time.Duration {
	agg := w.backAgg
	if len(w.front) > 0 {
		agg = agg.merge(w.front[len(w.front)-1].agg)
	}
	return agg.max()
}

func (m *thresholdMonitor) evaluate(ev *policy.CompiledEvent, latency time.Duration) {
	now := m.n.clk.Now()
	// Probe: which target would this sample choose, ignoring period?
	probeEnv := policy.NewMapEnv()
	probeEnv.Set("threshold.type", policy.IdentVal(m.monitor))
	probeEnv.Set("threshold.latency", policy.DurationVal(latency))
	probeEnv.Set("threshold.period", policy.DurationVal(probePeriod))
	probe := &changeCapture{}
	if _, err := ev.Fire(probeEnv, probe); err != nil {
		return
	}

	m.mu.Lock()
	if probe.to != m.streakTarget {
		m.streakTarget = probe.to
		m.streakStart = now
	}
	streak := now.Sub(m.streakStart)
	pending := m.pendingChange
	m.mu.Unlock()

	if probe.to == "" || pending {
		return
	}
	// Real evaluation with the true violation period.
	realEnv := policy.NewMapEnv()
	realEnv.Set("threshold.type", policy.IdentVal(m.monitor))
	realEnv.Set("threshold.latency", policy.DurationVal(latency))
	realEnv.Set("threshold.period", policy.DurationVal(streak))
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
	if debugMonitor {
		fmt.Fprintf(os.Stderr, "[mon %s] FIRE at %s: windowMax=%v streak=%v target=%s\n",
			m.n.name, now.Format("15:04:05.000"), latency, streak, capture.to)
	}
	// Asynchronous: the request round-trips to the Wiera server, which
	// freezes this node's gate; blocking here would deadlock the
	// triggering operation (it still occupies the gate).
	go func() {
		if err := m.n.requestPolicyChangeVia(capture.what, capture.to, "latency"); err != nil {
			m.mu.Lock()
			m.pendingChange = false
			m.mu.Unlock()
		}
	}()
}

// requestsMonitor implements RequestsMonitoring (paper Sec 4.3 / Fig
// 5(b)): the primary tracks, over a sliding window, how many puts arrived
// directly from applications versus forwarded from each other instance.
// When an instance's forwarded count sustainedly exceeds the direct count,
// the ChangePrimary policy moves the primary there.
type requestsMonitor struct {
	n *Node
	// events are the node's "primary" threshold events; without one nothing
	// reads the counts and the observe calls keep none (see thresholdMonitor).
	events []*policy.CompiledEvent

	mu            sync.Mutex
	direct        timeFIFO
	forwarded     map[string]*timeFIFO
	streakSource  string
	streakStart   time.Time
	pendingChange bool
}

func newRequestsMonitor(n *Node) *requestsMonitor {
	return &requestsMonitor{
		n: n, events: thresholdEvents(n, "primary"),
		forwarded: make(map[string]*timeFIFO), streakStart: n.clk.Now(),
	}
}

// reset clears pending state (called when the primary changes).
func (m *requestsMonitor) reset() {
	m.mu.Lock()
	m.direct = timeFIFO{}
	m.forwarded = make(map[string]*timeFIFO)
	m.streakSource = ""
	m.streakStart = m.n.clk.Now()
	m.pendingChange = false
	m.mu.Unlock()
}

// observeDirect records a put received directly from an application.
func (m *requestsMonitor) observeDirect() { m.observe("") }

// observeForwarded records a put forwarded from another instance.
func (m *requestsMonitor) observeForwarded(src string) {
	if src == "" {
		src = "unknown"
	}
	m.observe(src)
}

// observe records a put at the primary — forwarded by src, or direct when
// src is empty — expires what left the window, and evaluates the policy
// against the resulting counts: the largest single-source forwarded count,
// that source, and the direct count.
func (m *requestsMonitor) observe(src string) {
	if len(m.events) == 0 || !m.n.IsPrimary() {
		return
	}
	now := m.n.clk.Now()
	cut := now.Add(-monitorWindow)
	m.mu.Lock()
	if src == "" {
		m.direct.push(now)
	} else {
		q := m.forwarded[src]
		if q == nil {
			q = &timeFIFO{}
			m.forwarded[src] = q
		}
		q.push(now)
	}
	m.direct.expire(cut)
	maxF, maxSrc := 0, ""
	for s, q := range m.forwarded {
		q.expire(cut)
		if q.len() == 0 {
			delete(m.forwarded, s)
		} else if q.len() > maxF {
			maxF, maxSrc = q.len(), s
		}
	}
	direct := m.direct.len()
	m.mu.Unlock()
	if maxSrc == "" {
		return
	}
	for _, ev := range m.events {
		m.evaluateEvent(ev, maxF, maxSrc, direct)
	}
}

// timeFIFO is a queue of arrival times that expires from the front by
// advancing a head index; the dead prefix is reclaimed once it outgrows the
// live part, so a push plus the expiries it causes cost O(1) amortised.
type timeFIFO struct {
	ts   []time.Time
	head int
}

func (q *timeFIFO) push(t time.Time) { q.ts = append(q.ts, t) }

func (q *timeFIFO) len() int { return len(q.ts) - q.head }

// expire drops every time older than cut.
func (q *timeFIFO) expire(cut time.Time) {
	for q.head < len(q.ts) && q.ts[q.head].Before(cut) {
		q.head++
	}
	if q.head > q.len() {
		q.ts = q.ts[:copy(q.ts, q.ts[q.head:])]
		q.head = 0
	}
}

func (m *requestsMonitor) evaluateEvent(ev *policy.CompiledEvent, maxF int, maxSrc string, direct int) {
	now := m.n.clk.Now()
	bind := func(env *policy.MapEnv, period time.Duration) {
		env.Set("threshold.type", policy.IdentVal("primary"))
		env.Set("threshold.forwarded", policy.NumberVal(float64(maxF)))
		env.Set("threshold.fromClients", policy.NumberVal(float64(direct)))
		env.Set("threshold.period", policy.DurationVal(period))
	}
	probeEnv := policy.NewMapEnv()
	bind(probeEnv, probePeriod)
	probe := &changeCapture{}
	if _, err := ev.Fire(probeEnv, probe); err != nil {
		return
	}
	streakKey := ""
	if probe.to != "" {
		streakKey = maxSrc // the condition holds in favor of maxSrc
	}
	m.mu.Lock()
	if streakKey != m.streakSource {
		m.streakSource = streakKey
		m.streakStart = now
	}
	streak := now.Sub(m.streakStart)
	pending := m.pendingChange
	m.mu.Unlock()
	if streakKey == "" || pending {
		return
	}

	realEnv := policy.NewMapEnv()
	bind(realEnv, streak)
	capture := &changeCapture{}
	if _, err := ev.Fire(realEnv, capture); err != nil || capture.to == "" {
		return
	}
	target := capture.to
	if target == "instance_forward_most" {
		target = maxSrc
	}
	if capture.what == "primary_instance" && target == m.n.name {
		return // already primary here
	}
	m.mu.Lock()
	m.pendingChange = true
	m.mu.Unlock()
	go func() {
		if err := m.n.requestPolicyChangeVia(capture.what, target, "primary"); err != nil {
			m.mu.Lock()
			m.pendingChange = false
			m.mu.Unlock()
		}
	}()
}
