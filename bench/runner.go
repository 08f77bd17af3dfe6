package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Segments is how many equal op-count segments a run's measured work is cut
// into.
//
// Each segment runs on a deployment of its own — built, preloaded and
// warmed up from scratch — rather than being a contiguous slice of one long
// run. Operation cost and memory rise along a run (no version is ever
// dropped, so chains deepen and the heap grows), so contiguous slices would
// differ by that trend; fresh segments see the same trend each, and what
// differs between them is the machine.
//
// On the shared reference box that difference is large and one-sided: for
// tens of seconds at a time the same work takes 15-55% longer (neighbours on
// the host), so a whole run's median moves with the minute it ran in. A
// timing metric is therefore its best segment's value — the least disturbed
// of fifteen one-second measurements, which repeats to a few percent — with
// the median and range across segments written beside it. Counts (allocations,
// bytes) do not depend on the machine and are medians.
const Segments = 15

// Options selects what one Run does.
type Options struct {
	Seed    int64
	Seconds float64 // scales the frozen op count: N = OpsPerSecond*Seconds
	Trace   bool    // false: end-to-end metrics; true: per-layer metrics
	Quick   bool
	// DaemonPath is the benchd binary for TCP workloads; empty runs the
	// daemon inside this process (the smoke test).
	DaemonPath string
	// OutDir receives the traced run's span dump ("" = none).
	OutDir string
	// StartLoad, when positive, is the load average at the start of the
	// enclosing full run, recorded instead of the current one.
	StartLoad float64
}

// Metric is one reported number. Of a run's segments it is the best one's
// value for a timing and the median for a count, with the segments' median,
// range (Min, Max) and quartiles (Q1, Q3) beside it — all equal to Value for
// a single observation. Samples is how many observations the value rests on.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Median  float64 `json:"median"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Samples int     `json:"samples,omitempty"`
	// Segments holds every segment's value, ascending.
	Segments []float64 `json:"segments,omitempty"`
}

// single is a metric observed once.
func single(v float64, unit string, samples int) Metric {
	return Metric{Value: v, Unit: unit, Median: v, Min: v, Max: v, Q1: v, Q3: v, Samples: samples}
}

// AuditSummary is the post-run correctness audit, summed over segments.
type AuditSummary struct {
	Keys     int `json:"keys"`
	Lost     int `json:"lost_acked_writes"`
	Diverged int `json:"diverged_replicas"`
	Corrupt  int `json:"corrupt_values"`
}

// Passed reports whether no acked write was lost and replicas converged.
func (a AuditSummary) Passed() bool { return a.Lost == 0 && a.Diverged == 0 && a.Corrupt == 0 }

// Result is what one run reports and what the result files hold.
type Result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Env       Env               `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	N         int               `json:"n"` // frozen op count: warm-up + measured, all segments
	Measured  int               `json:"n_measured"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Audit     AuditSummary      `json:"audit"`
	Valid     bool              `json:"valid"`
	Noisy     bool              `json:"noisy"`
	Metrics   map[string]Metric `json:"metrics"`
}

// client is one closed-loop client's state across set-up and a segment.
type client struct {
	kv  KV
	id  uint32 // 1-based; 0 in a value means "no writer"
	seq uint64

	// Per key: this client's last acknowledged put and, for the strict
	// audit, when it was issued and acknowledged (unix ns).
	lastSeq   []uint64
	lastStart []int64
	lastEnd   []int64
}

// run holds one set-up deployment and the inputs generated from the seed.
type run struct {
	spec    Spec
	target  Target
	kt      KeyTable
	gen     *ValueGen
	ops     []Ops
	clients []*client
	warm    int   // per client
	seed    int64 // of ops: GenOps(spec, seed, ...) regenerates them
}

func (r *run) put(c *client, k int32) (time.Duration, error) {
	c.seq++
	val := r.gen.Make(r.kt.Hash[k], c.id, c.seq)
	t0 := time.Now()
	err := c.kv.Put(context.Background(), r.kt.Name[k], val)
	d := time.Since(t0)
	if err == nil {
		c.lastSeq[k] = c.seq
		c.lastStart[k] = t0.UnixNano()
		c.lastEnd[k] = t0.UnixNano() + int64(d)
	}
	return d, err
}

// get issues a get and verifies the returned value.
func (r *run) get(c *client, k int32) (time.Duration, error) {
	t0 := time.Now()
	data, err := c.kv.Get(context.Background(), r.kt.Name[k])
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if _, ok := CheckValue(data, r.kt.Hash[k]); !ok {
		return d, fmt.Errorf("get %s: value failed verification", r.kt.Name[k])
	}
	return d, nil
}

// close tears the deployment down (once).
func (r *run) close() {
	if r.target != nil {
		r.target.Close()
		r.target = nil
	}
}

// newTarget deploys spec where the workload says: in this process, or in a
// benchd over loopback TCP.
func newTarget(spec Spec, opt Options, telemetryOn bool) (Target, error) {
	if spec.TCP {
		return NewRemoteTarget(spec, telemetryOn, opt.DaemonPath, opt.Quick)
	}
	return NewLocalTarget(spec, telemetryOn)
}

// setUp builds the deployment, preloads every key (client i loads the keys
// congruent to i), waits for the regions to agree, and runs the warm-up:
// the first warm operations of each client's stream, discarded.
func setUp(spec Spec, opt Options, telemetryOn bool, streamSeed int64, perClient, warm int) (*run, error) {
	ops := GenOps(spec, streamSeed, perClient)
	target, err := newTarget(spec, opt, telemetryOn)
	if err != nil {
		return nil, err
	}
	r := &run{spec: spec, target: target, kt: NewKeyTable(spec.Keys),
		gen: NewValueGen(opt.Seed, spec.ValueSize), ops: ops, warm: warm, seed: streamSeed}
	for i, kv := range target.Clients() {
		r.clients = append(r.clients, &client{kv: kv, id: uint32(i + 1),
			lastSeq: make([]uint64, spec.Keys), lastStart: make([]int64, spec.Keys),
			lastEnd: make([]int64, spec.Keys)})
	}
	err = r.preload()
	if err == nil {
		err = target.Settle()
	}
	if err == nil {
		err = r.issue(0, warm, func(c *client, put bool, d time.Duration, err error) error {
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			return nil
		})
	}
	if err != nil {
		target.Close()
		return nil, err
	}
	return r, nil
}

// segment is one measured segment's outcome.
type segment struct {
	setupS   float64
	wall     time.Duration
	counters Counters // delta over the measured phase
	measured int
	failed   int
	putLat   []int64 // all clients, in issue order
	getLat   []int64
}

// preload puts every key once; client i loads the keys congruent to i.
func (r *run) preload() error {
	for k := 0; k < r.spec.Keys; k++ {
		if _, err := r.put(r.clients[k%len(r.clients)], int32(k)); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// issue runs operations from to to-1 of every client's stream, one
// operation in flight at a time: the clients take turns, each waiting for
// its reply. One goroutine generates all load, so what is timed is the
// operation and not how the scheduler interleaves two client threads on the
// reference box's two shared cores. done sees every outcome and may stop
// the run by returning an error.
func (r *run) issue(from, to int, done func(c *client, put bool, d time.Duration, err error) error) error {
	for j := from; j < to; j++ {
		for i, c := range r.clients {
			put, k := r.ops[i].Put[j], r.ops[i].Key[j]
			var d time.Duration
			var err error
			if put {
				d, err = r.put(c, k)
			} else {
				d, err = r.get(c, k)
			}
			if err = done(c, put, d, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// measure runs every client's stream from the warm-up mark to its end.
func (r *run) measure() (*segment, error) {
	perClient := r.ops[0].Len() - r.warm
	seg := &segment{measured: perClient * len(r.clients)}
	seg.putLat = make([]int64, 0, seg.measured)
	seg.getLat = make([]int64, 0, seg.measured)
	before, err := r.target.Counters(true)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_ = r.issue(r.warm, r.ops[0].Len(), func(c *client, put bool, d time.Duration, err error) error {
		switch {
		case err != nil:
			if seg.failed++; seg.failed <= 3 {
				fmt.Fprintf(os.Stderr, "bench: %s: client %d failed: %v\n", r.spec.Name, c.id, err)
			}
		case put:
			seg.putLat = append(seg.putLat, int64(d))
		default:
			seg.getLat = append(seg.getLat, int64(d))
		}
		return nil
	})
	seg.wall = time.Since(start)
	after, err := r.target.Counters(false)
	if err != nil {
		return nil, err
	}
	seg.counters = after.Sub(before)
	return seg, nil
}

// audit settles replication and checks, through every region's Node.Get,
// that each key converged on an intact value that is some client's newest
// acknowledged write to it — and, where the policy promises per-key
// linearizability, that no write issued after the winner's acknowledgement
// lost to it.
func (r *run) audit() (AuditSummary, error) {
	sum := AuditSummary{Keys: r.spec.Keys}
	if err := r.target.Settle(); err != nil {
		return sum, err
	}
	states, err := r.target.Audit()
	if err != nil {
		return sum, err
	}
	for k, st := range states {
		switch {
		case !st.Found:
			sum.Lost++
			continue
		case !st.Identical:
			sum.Diverged++
		}
		if !st.Intact {
			sum.Corrupt++
			continue
		}
		w := st.Writer
		if w.Client == 0 || int(w.Client) > len(r.clients) || r.clients[w.Client-1].lastSeq[k] != w.Seq {
			sum.Lost++
			continue
		}
		if r.spec.Strict {
			winner := r.clients[w.Client-1]
			for _, c := range r.clients {
				if c != winner && c.lastSeq[k] != 0 && c.lastStart[k] > winner.lastEnd[k] {
					sum.Lost++
				}
			}
		}
	}
	return sum, nil
}

// Run executes one workload once and returns its result: the end-to-end
// metrics over Segments fresh deployments (Trace false), or the per-layer
// metrics from one deployment's untraced phase and ladder (Trace true).
func Run(spec Spec, opt Options) (*Result, error) {
	if opt.Quick {
		spec = spec.Quick()
	}
	env := CaptureEnv(opt.StartLoad)
	perClient := int(float64(spec.OpsPerSecond)*opt.Seconds) / Segments / Clients
	warm := perClient / 10
	if perClient-warm < 1 {
		return nil, fmt.Errorf("bench: %s: %d ops per client and segment is too few", spec.Name, perClient)
	}
	res := &Result{
		Workload: spec.Name, Trace: opt.Trace, Env: env, Seed: opt.Seed, Seconds: opt.Seconds,
		N: perClient * Clients * Segments, Noisy: env.Noisy(), Metrics: map[string]Metric{},
	}
	segments := Segments
	if opt.Trace {
		segments = 1
	}
	var segs []*segment
	for s := 0; s < segments; s++ {
		// Each segment has a stream of its own, fixed by (seed, s).
		t0 := time.Now()
		r, err := setUp(spec, opt, true, opt.Seed*int64(Segments)+int64(s), perClient, warm)
		if err != nil {
			return nil, err
		}
		setupS := time.Since(t0).Seconds()
		seg, err := r.segment(res, opt)
		r.close()
		if err != nil {
			return nil, err
		}
		seg.setupS = setupS
		segs = append(segs, seg)
		res.Measured += seg.measured
		res.Failed += seg.failed
	}
	res.Attempted = res.Measured
	res.Valid = res.Failed == 0 && res.Audit.Passed()
	if !opt.Trace {
		endToEnd(res, spec, segs)
	}
	return res, nil
}

// segment measures and audits one set-up deployment and, in a traced run,
// goes on to the per-layer metrics.
func (r *run) segment(res *Result, opt Options) (*segment, error) {
	if opt.Trace {
		if err := r.target.Sampler(true); err != nil {
			return nil, err
		}
	}
	seg, err := r.measure()
	if err != nil {
		return nil, err
	}
	if opt.Trace {
		if err := r.target.Sampler(false); err != nil {
			return nil, err
		}
	}
	audit, err := r.audit()
	if err != nil {
		return nil, err
	}
	res.Audit.Keys += audit.Keys
	res.Audit.Lost += audit.Lost
	res.Audit.Diverged += audit.Diverged
	res.Audit.Corrupt += audit.Corrupt
	if opt.Trace {
		err = r.perLayer(res, seg, opt)
	}
	return seg, err
}

// endToEnd fills the user-visible metrics from the segments: timings as the
// best segment's value (see Segments), counts as the median.
func endToEnd(res *Result, spec Spec, segs []*segment) {
	per := func(unit string, pick func(sorted []float64) float64, f func(s *segment) float64) Metric {
		vals := make([]float64, len(segs))
		for i, s := range segs {
			vals[i] = f(s)
		}
		sort.Float64s(vals)
		n := len(vals)
		return Metric{Value: pick(vals), Unit: unit, Median: vals[n/2], Min: vals[0], Max: vals[n-1],
			Q1: vals[n/4], Q3: vals[n-1-n/4], Samples: res.Measured, Segments: vals}
	}
	lowest := func(v []float64) float64 { return v[0] }
	highest := func(v []float64) float64 { return v[len(v)-1] }
	median := func(v []float64) float64 { return v[len(v)/2] }
	m := res.Metrics
	m["setup_s"] = per("s", lowest, func(s *segment) float64 { return s.setupS })
	m["ops_per_s"] = per("1/s", highest, func(s *segment) float64 { return float64(s.measured) / s.wall.Seconds() })
	m["put_p50_us"] = per("us", lowest, func(s *segment) float64 { return percentileUs(s.putLat, 0.50) })
	m["get_p50_us"] = per("us", lowest, func(s *segment) float64 { return percentileUs(s.getLat, 0.50) })
	m["put_p95_us"] = per("us", lowest, func(s *segment) float64 { return percentileUs(s.putLat, 0.95) })
	m["get_p95_us"] = per("us", lowest, func(s *segment) float64 { return percentileUs(s.getLat, 0.95) })
	m["cpu_us_per_op"] = per("us", lowest, func(s *segment) float64 {
		return float64(s.counters.Proc.CPUNs) / 1e3 / float64(s.measured)
	})
	m["allocs_per_op"] = per("count", median, func(s *segment) float64 {
		return float64(s.counters.Proc.Mallocs) / float64(s.measured)
	})
	m["alloc_bytes_per_op"] = per("B", median, func(s *segment) float64 {
		return float64(s.counters.Proc.AllocBytes) / float64(s.measured)
	})
	m["wan_bytes_per_user_byte"] = per("ratio", median, func(s *segment) float64 {
		return float64(s.counters.NetBytes) / (float64(len(s.putLat)+len(s.getLat)) * float64(spec.ValueSize))
	})
	m["stored_bytes_per_user_byte"] = per("ratio", median, func(s *segment) float64 {
		return float64(s.counters.TierBytes) / (float64(spec.Keys) * float64(spec.ValueSize))
	})
	// The high-water mark only rises over a process's life, so the largest
	// reading is the run's peak.
	var peak float64
	for _, s := range segs {
		peak = max(peak, float64(s.counters.Proc.PeakRSSKiB)/1024)
	}
	m["peak_rss_mb"] = single(peak, "MiB", 1)
}

// finite reports whether every metric value is a finite number.
func (res *Result) finite() bool {
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	return true
}
