package wiera

import (
	"sync"
	"time"

	"repro/internal/policy"
)

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

// changeTrigger is the state machine every monitor fires its threshold
// events through. The threshold.period attribute is how long the event body
// has continuously selected the same change ("the period of the
// violation"): the trigger learns the selection by firing the event with an
// unbounded period, times it in a streak, and then fires again with the true
// streak, requesting whatever change that selects. Thresholds such as 800 ms
// or 30 s therefore live purely in the policy text. At most one request per
// trigger is in flight; a committed change resets the trigger.
type changeTrigger struct {
	n   *Node
	via string // the monitor the server's change log attributes changes to

	mu      sync.Mutex
	streaks map[string]streak // by streak id
	pending bool
}

// streak is one selection and when it began to hold.
type streak struct {
	held  string
	start time.Time
}

func newChangeTrigger(n *Node, via string) *changeTrigger {
	return &changeTrigger{n: n, via: via, streaks: make(map[string]streak)}
}

// reset clears every streak and the pending request (called when a policy
// change commits).
func (t *changeTrigger) reset() {
	t.mu.Lock()
	clear(t.streaks)
	t.pending = false
	t.mu.Unlock()
}

// evaluate runs ev for one measurement. bind sets the monitor's threshold.*
// attributes other than threshold.period; id names the streak the
// measurement ages. src, when set, is the instance that forwarded the most
// puts: instance_forward_most resolves to it, and the streak holds it rather
// than the target, so a change of busiest source restarts the streak.
func (t *changeTrigger) evaluate(ev *policy.CompiledEvent, id, src string, bind func(*policy.MapEnv)) {
	now := t.n.clk.Now()
	env := policy.NewMapEnv()
	bind(env)
	env.Set("threshold.period", policy.DurationVal(probePeriod))
	probe := &changeCapture{}
	if _, err := ev.Fire(env, probe); err != nil {
		return
	}
	held := probe.to
	if held != "" && src != "" {
		held = src
	}
	t.mu.Lock()
	s, ok := t.streaks[id]
	if !ok || s.held != held {
		s = streak{held: held, start: now}
		t.streaks[id] = s
	}
	pending := t.pending
	t.mu.Unlock()
	if held == "" || pending {
		return
	}

	env.Set("threshold.period", policy.DurationVal(now.Sub(s.start)))
	c := &changeCapture{}
	if _, err := ev.Fire(env, c); err != nil || c.to == "" {
		return
	}
	what, to := c.what, c.to
	if to == "instance_forward_most" {
		to = src
	}
	if (what == "consistency" && to == t.n.PolicyName()) || (what == "primary_instance" && to == t.n.name) {
		return // already in force
	}
	t.mu.Lock()
	if t.pending {
		t.mu.Unlock()
		return
	}
	t.pending = true
	t.mu.Unlock()
	// Asynchronous: the request round-trips to the Wiera server, which
	// freezes this node's gate; blocking here would deadlock the triggering
	// operation (it still occupies the gate) or stall the SLO engine's tick.
	go func() {
		if err := t.n.requestPolicyChangeVia(what, to, t.via); err != nil {
			t.mu.Lock()
			t.pending = false
			t.mu.Unlock()
		}
	}()
}

// thresholdMonitor implements LatencyMonitoring (paper Sec 4.3): a
// dedicated evaluator signalled after each operation *and* each background
// replication fan-out, feeding threshold events of its type ("put") the
// window's representative latency as threshold.latency.
type thresholdMonitor struct {
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
	events  []*policy.CompiledEvent
	trigger *changeTrigger

	mu      sync.Mutex
	samples latencyWindow
}

func newThresholdMonitor(n *Node, monitor string, window time.Duration) *thresholdMonitor {
	return &thresholdMonitor{
		monitor: monitor, window: window,
		events:  thresholdEvents(n, monitor),
		trigger: newChangeTrigger(n, "latency"),
	}
}

// reset clears the trigger (called when a policy change commits).
func (m *thresholdMonitor) reset() { m.trigger.reset() }

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

// observe feeds one latency sample (an operation or a replication
// fan-out) to every matching threshold event.
func (m *thresholdMonitor) observe(latency time.Duration) {
	if len(m.events) == 0 {
		return
	}
	now := m.trigger.n.clk.Now()
	m.mu.Lock()
	m.samples.push(latencySample{at: now, d: latency})
	m.samples.expire(now.Add(-m.window))
	windowMax := m.samples.max()
	m.mu.Unlock()
	bind := func(env *policy.MapEnv) {
		env.Set("threshold.type", policy.IdentVal(m.monitor))
		env.Set("threshold.latency", policy.DurationVal(windowMax))
	}
	for _, ev := range m.events {
		m.trigger.evaluate(ev, "", "", bind)
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

// requestsMonitor implements RequestsMonitoring (paper Sec 4.3 / Fig
// 5(b)): the primary tracks, over a sliding window, how many puts arrived
// directly from applications versus forwarded from each other instance.
// When an instance's forwarded count sustainedly exceeds the direct count,
// the ChangePrimary policy moves the primary there.
type requestsMonitor struct {
	n *Node
	// events are the node's "primary" threshold events; without one nothing
	// reads the counts and the observe calls keep none (see thresholdMonitor).
	events  []*policy.CompiledEvent
	trigger *changeTrigger

	mu        sync.Mutex
	direct    timeFIFO
	forwarded map[string]*timeFIFO
}

func newRequestsMonitor(n *Node) *requestsMonitor {
	return &requestsMonitor{
		n: n, events: thresholdEvents(n, "primary"), trigger: newChangeTrigger(n, "primary"),
		forwarded: make(map[string]*timeFIFO),
	}
}

// reset clears the counts and the trigger (called when the primary
// changes).
func (m *requestsMonitor) reset() {
	m.mu.Lock()
	m.direct = timeFIFO{}
	m.forwarded = make(map[string]*timeFIFO)
	m.mu.Unlock()
	m.trigger.reset()
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
	bind := func(env *policy.MapEnv) {
		env.Set("threshold.type", policy.IdentVal("primary"))
		env.Set("threshold.forwarded", policy.NumberVal(float64(maxF)))
		env.Set("threshold.fromClients", policy.NumberVal(float64(direct)))
	}
	for _, ev := range m.events {
		m.trigger.evaluate(ev, "", maxSrc, bind)
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
