package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/wiera"
	"repro/internal/ycsb"
)

// elasticPolicy is the scaleout store again — one region, memory tier with
// an explicit IOPS admission cap — because the cap is what makes elasticity
// observable: a fixed pool saturates under the diurnal peak, and only the
// autoscaler's AddWorker/RemoveWorker loop changes the ceiling.
const elasticPolicy = `
Wiera ElasticStore {
	Region1 = {name: LowLatencyInstance, region: us-east, primary: true,
		tier1 = {name: memory, size: 4G, iops: 250}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
	}
}`

// ElasticResult is the closed-loop elasticity audit: a zipfian workload
// swings through a 12x client surge (with a mid-surge hot-spot shift) and
// back, and the instance must adapt with no operator action — grow under
// pressure, promote the hot keys, shed both when the load leaves.
type ElasticResult struct {
	StartWorkers int
	PeakWorkers  int
	FinalWorkers int
	Grows        int
	Shrinks      int

	LowOpsPerSec  float64
	HighOpsPerSec float64

	HighGetP99Ms    float64 // surge phase, after the hot-spot shift
	SettledGetP99Ms float64 // final low phase, after the pool shrank back

	Promotions int64
	Demotions  int64
	HotGets    int64

	AckedWrites int
	Lost        int
}

// elasticParams is the instance configuration under test: a 2-worker floor
// with the controller allowed up to 5, per-worker watermarks bracketing the
// low-phase load (grow above 150 ops/s/worker, shrink below 100), and heat
// tracking promoting keys past ~40 accesses per half-life.
func elasticParams() map[string]string {
	return map[string]string{
		"workers": "2", "t": "500ms",
		"autoscale": "true", "asMin": "2", "asMax": "5",
		"asInterval": "1s", "asCooldown": "3s",
		"asHighOps": "150", "asLowOps": "100",
		"asGrowStreak": "2", "asShrinkStreak": "3",
		"heatTrack": "true", "heatInterval": "1s",
		"heatPromoteRate": "40", "heatDemoteRate": "8", "heatReplicas": "1",
	}
}

// elasticRun carries the shared state of one experiment run.
type elasticRun struct {
	d       *Deployment
	cli     *wiera.Client
	records int
	seed    int64

	mu    sync.Mutex
	acked map[string]string

	// Workers come and go, and their monotonic heat counters leave with
	// them; the sampler keeps the last value seen per node so totals
	// survive the shrink that is the whole point of the experiment.
	statMu     sync.Mutex
	promByNode map[string]int64
	demByNode  map[string]int64
	hotByNode  map[string]int64
}

// sampleStats folds the current per-node heat counters into the run's
// node-sticky maximums.
func (r *elasticRun) sampleStats() {
	st, err := r.d.Server.CollectStats("elastic")
	if err != nil {
		return
	}
	r.statMu.Lock()
	defer r.statMu.Unlock()
	for _, n := range st.Nodes {
		if n.HeatPromotions > r.promByNode[n.Name] {
			r.promByNode[n.Name] = n.HeatPromotions
		}
		if n.HeatDemotions > r.demByNode[n.Name] {
			r.demByNode[n.Name] = n.HeatDemotions
		}
		if n.HotGets > r.hotByNode[n.Name] {
			r.hotByNode[n.Name] = n.HotGets
		}
	}
}

func (r *elasticRun) heatTotals() (prom, dem, hot int64) {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	for _, v := range r.promByNode {
		prom += v
	}
	for _, v := range r.demByNode {
		dem += v
	}
	for _, v := range r.hotByNode {
		hot += v
	}
	return prom, dem, hot
}

// phase runs the given concurrency for dur simulated time: 95% zipfian
// gets, 5% puts (each writer snaps put keys into its own partition so "last
// acked value" stays well-defined), with the whole rank space rotated by
// shift — the hot-spot shift is just a different shift. pace > 0 makes each
// client open-loop (one op per pace interval, the diurnal trough); pace == 0
// is a closed loop that saturates whatever capacity exists (the surge). The
// trough must be open-loop or the controller can never shrink: a closed-loop
// client speeds up whenever capacity is added, so its measured ops/s tracks
// the pool instead of the offered load. Returns aggregate ops/s and the get
// p99 in milliseconds.
func (r *elasticRun) phase(clients int, dur time.Duration, shift int, pace time.Duration) (float64, float64, error) {
	clk := r.d.Clk
	deadline := clk.Now().Add(dur)
	start := clk.Now()
	hist := telemetry.NewHistogram()
	var ops atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			z := ycsb.NewZipfian(r.records, ycsb.ZipfianConstant, r.seed+int64(shift)*7919+int64(id)*101)
			rng := rand.New(rand.NewSource(r.seed + int64(id)*13 + int64(shift)))
			for clk.Now().Before(deadline) {
				if pace > 0 {
					clk.Sleep(pace)
				}
				idx := (z.Next() + shift) % r.records
				if rng.Float64() < 0.05 {
					idx -= idx % clients
					idx += id
					if idx >= r.records {
						idx -= clients
					}
					key := ycsb.Key(idx)
					val := fmt.Sprintf("el:%d:%d:%d", shift, id, ops.Load())
					if _, err := r.cli.Put(ctx, key, []byte(val)); err == nil {
						r.mu.Lock()
						r.acked[key] = val
						r.mu.Unlock()
						ops.Add(1)
					}
					continue
				}
				t0 := clk.Now()
				if _, _, err := r.cli.Get(ctx, ycsb.Key(idx)); err == nil {
					hist.Record(clk.Now().Sub(t0))
					ops.Add(1)
				}
			}
		}(id)
	}
	wg.Wait()
	r.sampleStats()
	elapsed := clk.Now().Sub(start)
	if elapsed <= 0 {
		return 0, 0, fmt.Errorf("no simulated time elapsed")
	}
	return float64(ops.Load()) / elapsed.Seconds(),
		float64(hist.Percentile(99)) / float64(time.Millisecond), nil
}

func (r *elasticRun) workers() (int, error) {
	rm, err := r.d.Server.Ring("elastic")
	if err != nil {
		return 0, err
	}
	if rm == nil {
		return 1, nil
	}
	return rm.Shards(), nil
}

// Elastic runs the autoscaler + heat-tracking experiment: low load, a 12x
// surge with a mid-surge hot-spot shift, then low again — the instance must
// ride it end to end with no operator action.
func Elastic(opts Options) (*ElasticResult, error) {
	records := 400
	lowDur, highDur, settleDur := 8*time.Second, 24*time.Second, 42*time.Second
	if !opts.Quick {
		records = 2000
		lowDur, highDur, settleDur = 20*time.Second, 60*time.Second, 90*time.Second
	}
	d, err := NewSimDeployment(simnet.USEast)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	if _, err := d.Server.StartInstances(wiera.StartInstancesRequest{
		InstanceID: "elastic", PolicySrc: elasticPolicy, Params: elasticParams(),
	}); err != nil {
		return nil, err
	}
	cli, err := wiera.NewClient(d.Fabric, "cli-elastic", simnet.USEast, d.Server.Name(), "elastic")
	if err != nil {
		return nil, err
	}
	defer cli.Close()

	r := &elasticRun{
		d: d, cli: cli, records: records, seed: opts.Seed,
		acked:      make(map[string]string),
		promByNode: make(map[string]int64),
		demByNode:  make(map[string]int64),
		hotByNode:  make(map[string]int64),
	}
	if err := parallelLoad(clientStore{cli}, records, 64); err != nil {
		return nil, err
	}
	res := &ElasticResult{}
	if res.StartWorkers, err = r.workers(); err != nil {
		return nil, err
	}

	// Background sampler: the shrink phase tears workers down, so their
	// counters must be captured while they still answer.
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-samplerStop:
				return
			case <-time.After(5 * time.Millisecond):
				r.sampleStats()
			}
		}
	}()

	// Phase 1: trough — one open-loop client at ~100 ops/s. The controller
	// must hold the 2-worker floor.
	const troughPace = 10 * time.Millisecond
	if res.LowOpsPerSec, _, err = r.phase(1, lowDur, 0, troughPace); err != nil {
		return nil, err
	}
	// Phase 2: surge — 12 closed-loop clients, with the hot spot shifting
	// halfway through.
	shift := records / 2
	high1, _, err := r.phase(12, highDur/2, 0, 0)
	if err != nil {
		return nil, err
	}
	high2, highP99, err := r.phase(12, highDur/2, shift, 0)
	if err != nil {
		return nil, err
	}
	res.HighOpsPerSec = (high1 + high2) / 2
	res.HighGetP99Ms = highP99
	if res.PeakWorkers, err = r.workers(); err != nil {
		return nil, err
	}
	// Phase 3: trough again. The controller must shed the surge capacity.
	if _, res.SettledGetP99Ms, err = r.phase(1, settleDur, shift, troughPace); err != nil {
		return nil, err
	}
	close(samplerStop)
	samplerWG.Wait()
	r.sampleStats()
	if res.FinalWorkers, err = r.workers(); err != nil {
		return nil, err
	}

	ctl := d.Server.Autoscaler("elastic")
	if ctl == nil {
		return nil, fmt.Errorf("elastic: autoscale param did not start a controller")
	}
	for _, a := range ctl.Actions() {
		if a.Err != nil {
			continue
		}
		switch a.What {
		case "grow":
			res.Grows++
			if a.Workers+1 > res.PeakWorkers {
				res.PeakWorkers = a.Workers + 1
			}
		case "shrink":
			res.Shrinks++
		}
	}
	res.Promotions, res.Demotions, res.HotGets = r.heatTotals()

	// Zero-lost-acked-writes audit, through a fresh client so no hot-replica
	// hint can route a read anywhere but the key's owner.
	audit, err := wiera.NewClient(d.Fabric, "cli-elastic-audit", simnet.USEast, d.Server.Name(), "elastic")
	if err != nil {
		return nil, err
	}
	defer audit.Close()
	res.AckedWrites = len(r.acked)
	for key, want := range r.acked {
		data, _, err := audit.Get(context.Background(), key)
		if err != nil || string(data) != want {
			res.Lost++
		}
	}
	return res, nil
}

// Render prints the elasticity timeline and audit.
func (r *ElasticResult) Render() string {
	var b strings.Builder
	b.WriteString("Elastic: autoscaler + hot-key replication across a 12x load swing\n")
	fmt.Fprintf(&b, "workers: start=%d peak=%d final=%d (grows=%d shrinks=%d, no operator action)\n",
		r.StartWorkers, r.PeakWorkers, r.FinalWorkers, r.Grows, r.Shrinks)
	fmt.Fprintf(&b, "throughput: trough %.0f ops/s, surge %.0f ops/s\n", r.LowOpsPerSec, r.HighOpsPerSec)
	fmt.Fprintf(&b, "get p99: surge (post hot-spot shift) %.1fms, settled %.1fms\n",
		r.HighGetP99Ms, r.SettledGetP99Ms)
	fmt.Fprintf(&b, "heat: promotions=%d demotions=%d hot-replica gets=%d\n",
		r.Promotions, r.Demotions, r.HotGets)
	fmt.Fprintf(&b, "acked writes=%d lost=%d\n", r.AckedWrites, r.Lost)
	return b.String()
}

// ShapeHolds verifies the elasticity claims: the pool grew under the surge
// and shed capacity afterwards, hot keys were promoted, served from
// replicas, and demoted again, tail latency stayed bounded, and no acked
// write was lost across any of the autoscaler's rebalances.
func (r *ElasticResult) ShapeHolds() error {
	if r.StartWorkers != 2 {
		return fmt.Errorf("elastic: started at %d workers, want 2", r.StartWorkers)
	}
	if r.Grows == 0 || r.PeakWorkers <= r.StartWorkers {
		return fmt.Errorf("elastic: surge never grew the pool (peak %d, grows %d)",
			r.PeakWorkers, r.Grows)
	}
	if r.Shrinks == 0 || r.FinalWorkers >= r.PeakWorkers {
		return fmt.Errorf("elastic: trough never shed capacity (final %d, peak %d, shrinks %d)",
			r.FinalWorkers, r.PeakWorkers, r.Shrinks)
	}
	if r.FinalWorkers > 3 {
		return fmt.Errorf("elastic: pool settled at %d workers, want <= 3", r.FinalWorkers)
	}
	if r.HighOpsPerSec <= r.LowOpsPerSec {
		return fmt.Errorf("elastic: surge throughput %.0f not above trough %.0f",
			r.HighOpsPerSec, r.LowOpsPerSec)
	}
	if r.Promotions == 0 {
		return fmt.Errorf("elastic: no key was ever promoted to hot-key replication")
	}
	if r.Demotions == 0 {
		return fmt.Errorf("elastic: no hot key was ever demoted")
	}
	if r.HotGets == 0 {
		return fmt.Errorf("elastic: no get was ever served from a hot-key replica")
	}
	if r.HighGetP99Ms > 1000 {
		return fmt.Errorf("elastic: surge get p99 %.0fms, want bounded (< 1s)", r.HighGetP99Ms)
	}
	if r.SettledGetP99Ms > 500 {
		return fmt.Errorf("elastic: settled get p99 %.0fms, want < 500ms", r.SettledGetP99Ms)
	}
	if r.AckedWrites == 0 {
		return fmt.Errorf("elastic: no writes were acked")
	}
	if r.Lost > 0 {
		return fmt.Errorf("elastic: %d of %d acked writes lost across autoscaling",
			r.Lost, r.AckedWrites)
	}
	return nil
}
