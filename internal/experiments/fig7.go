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
	// Period threshold: the paper uses 30 s; Quick mode shrinks it (and
	// every phase) 3x. The latency threshold stays 800 ms.
	period := 30 * time.Second
	factor := 10.0
	if opts.Quick {
		period = 10 * time.Second
	}
	monitorWindow := period / 4
	dynSrc := strings.ReplaceAll(mustBuiltinSource("DynamicConsistency"), "30s",
		fmt.Sprintf("%ds", int(period.Seconds())))

	d, err := NewDeployment(factor)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	// The paper's Fig 7 runs four regions: US-West, US-East, EU-West,
	// Asia-East — the builtin's three plus Asia-East.
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
	nodes, err := d.Server.StartInstances(wiera.StartInstancesRequest{
		InstanceID: "fig7",
		PolicySrc:  policySrc,
		Params: map[string]string{
			"t": "2s", "dynamic": dynSrc,
			"monitorWindow": fmt.Sprintf("%dms", monitorWindow.Milliseconds()),
		},
	})
	if err != nil {
		return nil, err
	}

	west, err := d.Node("fig7/us-west")
	if err != nil {
		return nil, err
	}
	timeline := &putTimeline{nodeStore: nodeStore{west}, clk: d.Clk}

	// One YCSB-A client per region with a disjoint keyspace (each region's
	// application instance loads its own records, so lock contention does
	// not dominate the latency signal the monitor watches).
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
					// Paced load (YCSB target-rate throttling): keeps
					// global-lock contention on hot zipfian keys from
					// dominating the latency signal.
					d.Clk.Sleep(500 * time.Millisecond)
				}
			}
		}(cli)
	}

	res := &Fig7Result{PaperStrongMs: 400, PaperEventualMs: 10}
	sleep := func(mult float64) { d.Clk.Sleep(time.Duration(mult * float64(period))) }
	type window struct{ from, to time.Time }
	mark := func(name string) time.Time {
		now := d.Clk.Now()
		res.DebugPhases = append(res.DebugPhases, PhaseMark{Name: name, At: now})
		return now
	}
	markStart := func() time.Time { return mark("normal") }

	// Let load-phase latencies age out of the monitor window before the
	// measured timeline begins.
	sleep(1.2)

	// Phase 1: normal operation under strong consistency.
	normalFrom := markStart()
	sleep(1.5)
	normalTo := d.Clk.Now()

	// Delay (a): sustained beyond the period threshold.
	delayAOn := mark("delay-a-on")
	d.Net.InjectRegionLag(simnet.USWest, 1200*time.Millisecond)
	sleep(3.5)
	d.Net.InjectRegionLag(simnet.USWest, 0)
	// Detection + the policy change take over a period; measure the
	// eventual-consistency phase from well inside the delay window.
	eventualA := window{from: delayAOn.Add(time.Duration(2.5 * float64(period))), to: mark("delay-a-off")}
	// Recovery: quiet period, switch back.
	sleep(3.0)

	// Delay (b): second sustained delay.
	mark("delay-b-on")
	d.Net.InjectRegionLag(simnet.USWest, 1200*time.Millisecond)
	sleep(3.5)
	d.Net.InjectRegionLag(simnet.USWest, 0)
	mark("delay-b-off")
	sleep(3.0)

	// Delay (c): transient — shorter than the period threshold.
	transientFrom := mark("delay-c-on")
	d.Net.InjectRegionLag(simnet.USWest, 1200*time.Millisecond)
	sleep(0.25)
	d.Net.InjectRegionLag(simnet.USWest, 0)
	mark("delay-c-off")
	// Wait out the window so a (wrong) late switch would still be caught.
	sleep(1.5)
	transientTo := mark("end")

	close(stop)
	wg.Wait()

	res.Series = timeline.points
	res.Changes = d.Server.ChangeLog()
	for _, ch := range res.Changes {
		if ch.What != "consistency" {
			continue
		}
		switch ch.To {
		case "EventualConsistency":
			res.SwitchesToEventual++
		case "MultiPrimariesConsistency":
			res.SwitchesToStrong++
		}
	}
	res.TransientIgnored = true
	for _, ch := range res.Changes {
		if ch.What == "consistency" && ch.At.After(transientFrom) && ch.At.Before(transientTo) {
			res.TransientIgnored = false
		}
	}
	res.StrongMeanMs = meanInWindow(res.Series, normalFrom, normalTo)
	// Eventual-phase samples: inside delay (a), after the switch landed.
	// Use the second half of the delay window to skip the transition.
	mid := eventualA.from.Add(eventualA.to.Sub(eventualA.from) / 2)
	res.EventualMeanMs = meanInWindow(res.Series, mid, eventualA.to)
	return res, nil
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
