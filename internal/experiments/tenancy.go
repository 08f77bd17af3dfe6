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
	"repro/internal/tenant"
	"repro/internal/wiera"
	"repro/internal/ycsb"
)

// tenancyPolicy is a single-region memory store with an explicit tier IOPS
// cap, so the worker pool is a genuinely shared, finite resource: without
// admission control and weighted-fair scheduling, one tenant's backlog
// inflates everyone's tail.
const tenancyPolicy = `
Wiera TenantStore {
	Region1 = {name: LowLatencyInstance, region: us-east, primary: true,
		tier1 = {name: memory, size: 4G, iops: 400}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
	}
}`

// noisyIOPSQuota is the aggressor's admission quota in ops per (simulated)
// second, enforced per worker node: quota buckets live next to the worker's
// own scheduler, so admission needs no cross-node coordination and the
// instance-wide effective quota scales with the pool. The experiment runs
// tenancyWorkers workers, so the effective quota is the product.
const (
	noisyIOPSQuota = 100
	tenancyWorkers = 2
)

// tenancyOfferFactor is the required overload: the noisy tenant must offer
// at least this multiple of its quota for the run to count as an isolation
// test at all.
const tenancyOfferFactor = 10

// victimP99Slack is the stated isolation bound: the victim's contended get
// p99 must stay within this factor of its solo baseline (plus a small
// absolute floor so a sub-millisecond baseline doesn't make the bound
// degenerate).
const (
	victimP99Slack   = 3.0
	victimP99FloorMs = 25.0
)

// TenancyResult is the noisy-neighbor isolation audit: tenant "noisy"
// hammers the instance at >= 10x its IOPS quota while tenant "victim" runs
// a paced workload; quota admission must NACK the overload, the
// weighted-fair scheduler must keep the victim's tail flat, and no acked
// write from either tenant may be lost.
type TenancyResult struct {
	VictimSoloP99Ms      float64
	VictimContendedP99Ms float64
	VictimSoloOpsPerSec  float64
	VictimOpsPerSec      float64 // during contention

	NoisyOfferedPerSec  float64
	NoisyAdmittedPerSec float64
	NoisyQuota          float64
	NoisyThrottled      int64

	AckedWrites int
	Lost        int
}

// tenancyRun carries the shared state of one run.
type tenancyRun struct {
	d       *Deployment
	victim  *wiera.Client
	noisy   *wiera.Client
	records int
	seed    int64

	mu    sync.Mutex
	acked map[string]map[string]string // tenant -> key -> last acked value
}

func (r *tenancyRun) ack(tenantID, key, val string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.acked[tenantID]
	if m == nil {
		m = make(map[string]string)
		r.acked[tenantID] = m
	}
	m[key] = val
}

// victimPhase runs the victim's paced 80/20 read/write loop for dur and
// returns achieved ops/s and get p99 in milliseconds. The loop is open-loop
// (fixed pace): its offered load never adapts to what the noisy tenant does
// to the instance, which is exactly what makes the p99 comparison fair.
func (r *tenancyRun) victimPhase(dur, pace time.Duration, shift int) (float64, float64, error) {
	clk := r.d.Clk
	deadline := clk.Now().Add(dur)
	start := clk.Now()
	hist := telemetry.NewHistogram()
	z := ycsb.NewZipfian(r.records, ycsb.ZipfianConstant, r.seed+int64(shift)*7919)
	rng := rand.New(rand.NewSource(r.seed + int64(shift)))
	ctx := context.Background()
	var ops, writes int64
	for clk.Now().Before(deadline) {
		clk.Sleep(pace)
		idx := z.Next()
		if rng.Float64() < 0.2 {
			key := ycsb.Key(idx)
			val := fmt.Sprintf("v:%d:%d", shift, writes)
			if _, err := r.victim.Put(ctx, key, []byte(val)); err == nil {
				r.ack("victim", key, val)
				writes++
				ops++
			}
			continue
		}
		t0 := clk.Now()
		if _, _, err := r.victim.Get(ctx, ycsb.Key(idx)); err == nil {
			hist.Record(clk.Now().Sub(t0))
			ops++
		}
	}
	elapsed := clk.Now().Sub(start)
	if elapsed <= 0 {
		return 0, 0, fmt.Errorf("no simulated time elapsed")
	}
	return float64(ops) / elapsed.Seconds(),
		float64(hist.Percentile(99)) / float64(time.Millisecond), nil
}

// noisyPhase runs the aggressor: closed-loop writers that keep offering ops
// as fast as NACKs come back. A quota NACK is fail-fast at the client (no
// retry-budget burn), so the loop inserts a short simulated-time sleep to
// model a client that reacts to the NACK rather than busy-spinning the
// virtual clock. Returns offered and admitted ops/s.
func (r *tenancyRun) noisyPhase(clients int, dur time.Duration) (float64, float64, error) {
	clk := r.d.Clk
	deadline := clk.Now().Add(dur)
	start := clk.Now()
	var offered, admitted atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var seq int64
			for clk.Now().Before(deadline) {
				key := fmt.Sprintf("n%d-%d", id, seq%int64(r.records))
				val := fmt.Sprintf("noisy:%d:%d", id, seq)
				seq++
				offered.Add(1)
				if _, err := r.noisy.Put(ctx, key, []byte(val)); err != nil {
					clk.Sleep(2 * time.Millisecond)
					continue
				}
				r.ack("noisy", key, val)
				admitted.Add(1)
			}
		}(id)
	}
	wg.Wait()
	elapsed := clk.Now().Sub(start)
	if elapsed <= 0 {
		return 0, 0, fmt.Errorf("no simulated time elapsed")
	}
	return float64(offered.Load()) / elapsed.Seconds(),
		float64(admitted.Load()) / elapsed.Seconds(), nil
}

// Tenancy runs the multi-tenant isolation experiment: a solo victim
// baseline, then the same victim workload with a noisy tenant offering 10x
// its IOPS quota, then the lost-acked-writes audit through fresh clients.
func Tenancy(opts Options) (*TenancyResult, error) {
	records := 200
	soloDur, contendedDur := 8*time.Second, 12*time.Second
	if !opts.Quick {
		records = 1000
		soloDur, contendedDur = 20*time.Second, 40*time.Second
	}
	d, err := NewSimDeployment(simnet.USEast)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	if _, err := d.Server.StartInstances(wiera.StartInstancesRequest{
		InstanceID: "tenancy", PolicySrc: tenancyPolicy, Params: map[string]string{
			"workers": fmt.Sprintf("%d", tenancyWorkers), "t": "500ms",
			"tenants":             "noisy,victim",
			"tenantWeight:victim": "4",
			"tenantWeight:noisy":  "1",
			"tenantIOPS:noisy":    fmt.Sprintf("%d", noisyIOPSQuota),
			"tenantSlots":         "2",
		},
	}); err != nil {
		return nil, err
	}
	victim, err := wiera.NewTenantClient(d.Fabric, "cli-victim", simnet.USEast, d.Server.Name(), "tenancy", "victim")
	if err != nil {
		return nil, err
	}
	defer victim.Close()
	noisy, err := wiera.NewTenantClient(d.Fabric, "cli-noisy", simnet.USEast, d.Server.Name(), "tenancy", "noisy")
	if err != nil {
		return nil, err
	}
	defer noisy.Close()

	r := &tenancyRun{
		d: d, victim: victim, noisy: noisy, records: records, seed: opts.Seed,
		acked: make(map[string]map[string]string),
	}
	if err := parallelLoad(clientStore{victim}, records, 64); err != nil {
		return nil, err
	}

	// The per-node quota is enforced independently on each worker, so the
	// instance-wide effective quota is per-node times the pool size.
	res := &TenancyResult{NoisyQuota: noisyIOPSQuota * tenancyWorkers}
	const victimPace = 10 * time.Millisecond

	// Phase 1: solo baseline.
	if res.VictimSoloOpsPerSec, res.VictimSoloP99Ms, err = r.victimPhase(soloDur, victimPace, 0); err != nil {
		return nil, err
	}

	// Phase 2: contention — the noisy tenant's closed-loop writers run
	// alongside the identical victim workload.
	var noisyErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.NoisyOfferedPerSec, res.NoisyAdmittedPerSec, noisyErr = r.noisyPhase(12, contendedDur)
	}()
	res.VictimOpsPerSec, res.VictimContendedP99Ms, err = r.victimPhase(contendedDur, victimPace, 1)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if noisyErr != nil {
		return nil, noisyErr
	}

	// Throttle accounting from the node's tenant stats.
	st, err := d.Server.CollectStats("tenancy")
	if err != nil {
		return nil, err
	}
	for _, n := range st.Nodes {
		for _, t := range n.Tenants {
			if t.ID == "noisy" {
				res.NoisyThrottled += t.Throttled
			}
		}
	}

	// Zero-lost-acked-writes audit through fresh per-tenant clients, so no
	// client-side state can mask a server-side loss.
	for tenantID, m := range r.acked {
		audit, err := wiera.NewTenantClient(d.Fabric, "cli-audit-"+tenantID,
			simnet.USEast, d.Server.Name(), "tenancy", tenantID)
		if err != nil {
			return nil, err
		}
		for key, want := range m {
			res.AckedWrites++
			// The noisy tenant's bucket is drained after the contended
			// phase, so the audit's own gets can be quota-NACKed; a NACK is
			// flow control, not data loss — pace and retry until admitted.
			var data []byte
			var gerr error
			for attempt := 0; attempt < 200; attempt++ {
				data, _, gerr = audit.Get(context.Background(), key)
				if gerr == nil || tenant.AsQuotaExceeded(gerr) == nil {
					break
				}
				d.Clk.Sleep(20 * time.Millisecond)
			}
			if gerr != nil || string(data) != want {
				res.Lost++
			}
		}
		audit.Close()
	}
	return res, nil
}

// victimBoundMs is the stated bound the contended p99 is checked against.
func (r *TenancyResult) victimBoundMs() float64 {
	bound := r.VictimSoloP99Ms * victimP99Slack
	if bound < victimP99FloorMs {
		bound = victimP99FloorMs
	}
	return bound
}

// Render prints the isolation audit.
func (r *TenancyResult) Render() string {
	var b strings.Builder
	b.WriteString("Tenancy: noisy neighbor at >=10x quota vs paced victim\n")
	fmt.Fprintf(&b, "noisy: offered %.0f ops/s against a %.0f IOPS quota (%.1fx), admitted %.0f ops/s, throttled %d\n",
		r.NoisyOfferedPerSec, r.NoisyQuota, r.NoisyOfferedPerSec/r.NoisyQuota,
		r.NoisyAdmittedPerSec, r.NoisyThrottled)
	fmt.Fprintf(&b, "victim: %.0f ops/s contended vs %.0f ops/s solo\n",
		r.VictimOpsPerSec, r.VictimSoloOpsPerSec)
	fmt.Fprintf(&b, "victim get p99: solo %.2fms, contended %.2fms (bound %.2fms)\n",
		r.VictimSoloP99Ms, r.VictimContendedP99Ms, r.victimBoundMs())
	fmt.Fprintf(&b, "acked writes=%d lost=%d\n", r.AckedWrites, r.Lost)
	return b.String()
}

// ShapeHolds verifies the isolation claims: the aggressor really overloaded
// its quota and was throttled, its admitted rate stayed near the quota, the
// victim's tail held the stated bound at its full paced rate, and no acked
// write was lost.
func (r *TenancyResult) ShapeHolds() error {
	if r.NoisyOfferedPerSec < tenancyOfferFactor*r.NoisyQuota {
		return fmt.Errorf("tenancy: noisy offered only %.0f ops/s, want >= %dx the %.0f quota",
			r.NoisyOfferedPerSec, tenancyOfferFactor, r.NoisyQuota)
	}
	if r.NoisyThrottled == 0 {
		return fmt.Errorf("tenancy: quota admission never throttled the noisy tenant")
	}
	// Admitted rate must track the quota: generously, within 2x (token
	// bursts and edge effects), and above half (admission isn't starving a
	// tenant that is entitled to its quota).
	if r.NoisyAdmittedPerSec > 2*r.NoisyQuota {
		return fmt.Errorf("tenancy: noisy admitted %.0f ops/s, want <= 2x the %.0f quota",
			r.NoisyAdmittedPerSec, r.NoisyQuota)
	}
	if r.NoisyAdmittedPerSec < r.NoisyQuota/2 {
		return fmt.Errorf("tenancy: noisy admitted only %.0f ops/s against a %.0f quota",
			r.NoisyAdmittedPerSec, r.NoisyQuota)
	}
	if r.VictimOpsPerSec < 0.7*r.VictimSoloOpsPerSec {
		return fmt.Errorf("tenancy: victim throughput fell to %.0f ops/s under contention (solo %.0f)",
			r.VictimOpsPerSec, r.VictimSoloOpsPerSec)
	}
	if bound := r.victimBoundMs(); r.VictimContendedP99Ms > bound {
		return fmt.Errorf("tenancy: victim contended p99 %.2fms exceeds bound %.2fms (solo %.2fms)",
			r.VictimContendedP99Ms, bound, r.VictimSoloP99Ms)
	}
	if r.AckedWrites == 0 {
		return fmt.Errorf("tenancy: no writes were acked")
	}
	if r.Lost > 0 {
		return fmt.Errorf("tenancy: %d of %d acked writes lost", r.Lost, r.AckedWrites)
	}
	return nil
}
