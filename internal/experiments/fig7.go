package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/policy"
	"repro/internal/simnet"
	"repro/internal/wiera"
	"repro/internal/ycsb"
)

// Fig7Result reproduces "Figure 7: Changing consistency at run-time": the
// put-latency timeline at the US-West instance while three delays are
// injected, two sustained (triggering a switch to eventual consistency and
// back) and one transient (ignored).
type Fig7Result struct {
	// Series is the application-perceived put latency over time (ms).
	Series []Point
	// Changes is the applied policy-change log.
	Changes []wiera.ChangeEvent
	// Phase means (ms): strong consistency under normal conditions,
	// eventual consistency during sustained delays.
	StrongMeanMs   float64
	EventualMeanMs float64
	// SwitchesToEventual / SwitchesToStrong count applied changes; the
	// paper's run has two of each (delays (a) and (b)), with delay (c)
	// ignored.
	SwitchesToEventual int
	SwitchesToStrong   int
	// TransientIgnored is true when no change fired during delay (c).
	TransientIgnored bool
	// PaperStrongMs / PaperEventualMs are the values the paper reports.
	PaperStrongMs   float64
	PaperEventualMs float64
	// DebugPhases records the phase boundaries for diagnostics.
	DebugPhases []PhaseMark
}

// PhaseMark timestamps one experiment phase boundary.
type PhaseMark struct {
	Name string
	At   time.Time
}

// Fig7 runs the dynamic-consistency experiment: four regions under
// MultiPrimariesConsistency with the DynamicConsistency control policy
// (800 ms / period threshold), YCSB workload A clients in every region,
// and three injected delays.
func Fig7(opts Options) (*Fig7Result, error) {
	// The latency threshold stays 800 ms at every period.
	period := mpPeriod(opts)
	r, err := startMPTimeline(opts, "fig7", "DynamicConsistency", map[string]string{
		"monitorWindow": fmt.Sprintf("%dms", (period / 4).Milliseconds()),
	})
	if err != nil {
		return nil, err
	}
	defer r.d.Close()
	d := r.d

	res := &Fig7Result{PaperStrongMs: 400, PaperEventualMs: 10}

	// Let load-phase latencies age out of the monitor window before the
	// measured timeline begins.
	r.sleep(1.2)

	// Phase 1: normal operation under strong consistency.
	normalFrom := r.mark("normal")
	r.sleep(1.5)
	normalTo := d.Clk.Now()

	// Delay (a): sustained beyond the period threshold.
	delayAOn := r.mark("delay-a-on")
	d.Net.InjectRegionLag(simnet.USWest, 1200*time.Millisecond)
	r.sleep(3.5)
	d.Net.InjectRegionLag(simnet.USWest, 0)
	// Detection + the policy change take over a period; measure the
	// eventual-consistency phase from well inside the delay window.
	eventualFrom, eventualTo := delayAOn.Add(time.Duration(2.5*float64(period))), r.mark("delay-a-off")
	// Recovery: quiet period, switch back.
	r.sleep(3.0)

	// Delay (b): second sustained delay.
	r.mark("delay-b-on")
	d.Net.InjectRegionLag(simnet.USWest, 1200*time.Millisecond)
	r.sleep(3.5)
	d.Net.InjectRegionLag(simnet.USWest, 0)
	r.mark("delay-b-off")
	r.sleep(3.0)

	// Delay (c): transient — shorter than the period threshold.
	transientFrom := r.mark("delay-c-on")
	d.Net.InjectRegionLag(simnet.USWest, 1200*time.Millisecond)
	r.sleep(0.25)
	d.Net.InjectRegionLag(simnet.USWest, 0)
	r.mark("delay-c-off")
	// Wait out the window so a (wrong) late switch would still be caught.
	r.sleep(1.5)
	transientTo := r.mark("end")

	res.Series, res.Changes = r.finish()
	res.DebugPhases = r.phases
	res.SwitchesToEventual, res.SwitchesToStrong = consistencySwitches(res.Changes)
	res.TransientIgnored = true
	for _, ch := range res.Changes {
		if ch.What == "consistency" && ch.At.After(transientFrom) && ch.At.Before(transientTo) {
			res.TransientIgnored = false
		}
	}
	res.StrongMeanMs = meanInWindow(res.Series, normalFrom, normalTo)
	// Eventual-phase samples: inside delay (a), after the switch landed.
	// Use the second half of the delay window to skip the transition.
	mid := eventualFrom.Add(eventualTo.Sub(eventualFrom) / 2)
	res.EventualMeanMs = meanInWindow(res.Series, mid, eventualTo)
	return res, nil
}

// mpFourRegionSrc is the paper's Fig 7 deployment: US-West, US-East,
// EU-West and Asia-East (the builtin's three plus Asia-East) under
// MultiPrimariesConsistency.
const mpFourRegionSrc = `
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

// mpTimeline is the run Fig 7 and the SLO switch share: mpFourRegionSrc
// with a control policy on a 10x scaled clock, one paced YCSB-A client per
// region, and US-West's puts timed on the deployment clock.
type mpTimeline struct {
	d        *Deployment
	period   time.Duration
	west     *wiera.Node
	timeline *putTimeline
	phases   []PhaseMark
	stop     chan struct{}
	wg       sync.WaitGroup
}

// mpPeriod is the control policy's period threshold: the paper's 30 s, or
// 10 s in Quick mode, which shrinks every phase 3x.
func mpPeriod(opts Options) time.Duration {
	if opts.Quick {
		return 10 * time.Second
	}
	return 30 * time.Second
}

// startMPTimeline deploys the run as instance id and starts its clients.
// control names the builtin control policy; its 30 s period threshold is
// rewritten to the run's period and passed as "dynamic", beside "t" and
// params.
func startMPTimeline(opts Options, id, control string, params map[string]string) (*mpTimeline, error) {
	period := mpPeriod(opts)
	params["t"] = "2s"
	params["dynamic"] = strings.ReplaceAll(mustBuiltinSource(control), "30s",
		fmt.Sprintf("%ds", int(period.Seconds())))

	d, err := NewDeployment(10)
	if err != nil {
		return nil, err
	}
	r := &mpTimeline{d: d, period: period, stop: make(chan struct{})}
	if err := r.start(opts, id, params); err != nil {
		close(r.stop)
		r.wg.Wait()
		d.Close()
		return nil, err
	}
	return r, nil
}

func (r *mpTimeline) start(opts Options, id string, params map[string]string) error {
	d := r.d
	nodes, err := d.Server.StartInstances(wiera.StartInstancesRequest{
		InstanceID: id, PolicySrc: mpFourRegionSrc, Params: params,
	})
	if err != nil {
		return err
	}
	if r.west, err = d.Node(id + "/us-west"); err != nil {
		return err
	}
	r.timeline = &putTimeline{nodeStore: nodeStore{r.west}, clk: d.Clk}

	// One YCSB-A client per region with a disjoint keyspace (each region's
	// application instance loads its own records, so lock contention does
	// not dominate the latency signal the monitor watches).
	for i, pi := range nodes {
		node, err := d.Node(pi.Name)
		if err != nil {
			return err
		}
		var store ycsb.Store = nodeStore{node}
		if node == r.west {
			store = r.timeline
		}
		w := shrunkWorkload(ycsb.WorkloadA, 64, 1024)
		w.Prefix = string(pi.Region) + "/"
		cli, err := ycsb.NewClient(w, store, opts.Seed+int64(i))
		if err != nil {
			return err
		}
		if err := cli.Load(); err != nil {
			return err
		}
		r.wg.Add(1)
		go func(cli *ycsb.Client) {
			defer r.wg.Done()
			for {
				select {
				case <-r.stop:
					return
				default:
					cli.RunOne(d.Clk.Now)
					// Paced load (YCSB target-rate throttling): keeps
					// global-lock contention on hot zipfian keys from
					// dominating the latency signal.
					d.Clk.Sleep(500 * time.Millisecond)
				}
			}
		}(cli)
	}
	return nil
}

// sleep waits mult periods on the deployment clock.
func (r *mpTimeline) sleep(mult float64) { r.d.Clk.Sleep(time.Duration(mult * float64(r.period))) }

// mark records a phase boundary at the current time and returns it.
func (r *mpTimeline) mark(name string) time.Time {
	now := r.d.Clk.Now()
	r.phases = append(r.phases, PhaseMark{Name: name, At: now})
	return now
}

// finish stops the clients and returns US-West's put timeline and the
// applied policy changes.
func (r *mpTimeline) finish() ([]Point, []wiera.ChangeEvent) {
	close(r.stop)
	r.wg.Wait()
	return r.timeline.points, r.d.Server.ChangeLog()
}

// consistencySwitches counts the applied consistency changes each way.
func consistencySwitches(changes []wiera.ChangeEvent) (toEventual, toStrong int) {
	for _, ch := range changes {
		if ch.What != "consistency" {
			continue
		}
		switch ch.To {
		case "EventualConsistency":
			toEventual++
		case "MultiPrimariesConsistency":
			toStrong++
		}
	}
	return toEventual, toStrong
}

func meanInWindow(points []Point, from, to time.Time) float64 {
	sum, n := 0.0, 0
	for _, p := range points {
		if p.At.After(from) && p.At.Before(to) {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render prints the timeline summary the figure conveys.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: Changing consistency at run-time\n")
	fmt.Fprintf(&b, "put latency, strong consistency (normal): %.1f ms (paper ~%.0f ms)\n",
		r.StrongMeanMs, r.PaperStrongMs)
	fmt.Fprintf(&b, "put latency, eventual (during sustained delay): %.1f ms (paper <%.0f ms)\n",
		r.EventualMeanMs, r.PaperEventualMs)
	fmt.Fprintf(&b, "switches to eventual: %d (paper: 2, delays a+b)\n", r.SwitchesToEventual)
	fmt.Fprintf(&b, "switches back to strong: %d (paper: 2, points 1+2)\n", r.SwitchesToStrong)
	fmt.Fprintf(&b, "transient delay (c) ignored: %v (paper: yes)\n", r.TransientIgnored)
	fmt.Fprintf(&b, "timeline samples: %d, policy changes: %d\n", len(r.Series), len(r.Changes))
	return b.String()
}

// ShapeHolds reports whether the reproduction preserves the figure's
// qualitative claims.
func (r *Fig7Result) ShapeHolds() error {
	if r.SwitchesToEventual < 2 {
		return fmt.Errorf("fig7: only %d switches to eventual (want 2)", r.SwitchesToEventual)
	}
	if r.SwitchesToStrong < 2 {
		return fmt.Errorf("fig7: only %d switches back to strong (want 2)", r.SwitchesToStrong)
	}
	if !r.TransientIgnored {
		return fmt.Errorf("fig7: transient delay caused a switch")
	}
	if r.StrongMeanMs < 100 || r.StrongMeanMs > 900 {
		return fmt.Errorf("fig7: strong-phase mean %.1f ms outside [100,900]", r.StrongMeanMs)
	}
	if r.EventualMeanMs >= r.StrongMeanMs/2 {
		return fmt.Errorf("fig7: eventual mean %.1f ms not well under strong mean %.1f ms",
			r.EventualMeanMs, r.StrongMeanMs)
	}
	return nil
}

// nodeStore adapts a Wiera node to the YCSB Store interface.
type nodeStore struct{ n *wiera.Node }

// Put implements ycsb.Store.
func (s nodeStore) Put(key string, value []byte) error {
	_, err := s.n.Put(context.Background(), key, value, nil)
	return err
}

// Get implements ycsb.Store.
func (s nodeStore) Get(key string) ([]byte, error) {
	data, _, err := s.n.Get(context.Background(), key)
	return data, err
}

// Point is one (time, value) sample on a timeline.
type Point struct {
	At    time.Time
	Value float64
}

// putTimeline is a nodeStore that records the latency (ms), on clk, of
// every put that succeeds: the timeline Fig 7 and the SLO switch plot.
type putTimeline struct {
	nodeStore
	clk clock.Clock

	mu     sync.Mutex
	points []Point
}

// Put implements ycsb.Store.
func (s *putTimeline) Put(key string, value []byte) error {
	start := s.clk.Now()
	err := s.nodeStore.Put(key, value)
	if err == nil {
		now := s.clk.Now()
		s.mu.Lock()
		s.points = append(s.points, Point{At: now, Value: float64(now.Sub(start)) / float64(time.Millisecond)})
		s.mu.Unlock()
	}
	return err
}

// shrunkWorkload copies a standard workload with a smaller keyspace and
// value size suited to simulation runs.
func shrunkWorkload(w ycsb.Workload, records, fieldLen int) ycsb.Workload {
	w.RecordCount = records
	w.FieldLength = fieldLen
	return w
}

func mustBuiltinSource(name string) string {
	src, err := policy.BuiltinSource(name)
	if err != nil {
		panic(err)
	}
	return src
}
