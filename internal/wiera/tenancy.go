package wiera

import (
	"sort"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// throttleEventEvery suppresses journal spam: at most one tenant.throttle
// event per tenant per interval, edge-triggered on the first denial.
const throttleEventEvery = time.Second

// tenantState is one tenant's admission + accounting state on a node.
type tenantState struct {
	cfg   tenant.Config
	iops  *tenant.Bucket
	bytes *tenant.Bucket

	ops       *telemetry.Counter
	ingress   *telemetry.Counter
	egress    *telemetry.Counter
	thrIOPS   *telemetry.Counter
	thrBytes  *telemetry.Counter
	queueWait *telemetry.Histogram
	putLat    *telemetry.Histogram
	getLat    *telemetry.Histogram

	mu            sync.Mutex
	lastThrottled time.Time
}

// tenantManager enforces per-tenant quotas and weighted-fair scheduling on
// one node. A nil manager is valid and disables tenancy at zero cost: every
// method no-ops, keys stay unqualified, and the seed data path is unchanged.
type tenantManager struct {
	n     *Node
	sched *tenant.Scheduler

	mu     sync.Mutex
	states map[string]*tenantState
}

// newTenantManager wires the manager from spawn config. Returns nil when the
// instance declares no tenants.
func newTenantManager(n *Node, cfg NodeConfig) *tenantManager {
	tenants := cfg.Params.Tenancy.Tenants
	if len(tenants) == 0 {
		return nil
	}
	// The scheduler's concurrency (tenantSlots) defaults to enough
	// parallelism to keep the tiers busy, small enough that a backlogged
	// tenant queues in the scheduler (where stride fairness applies) instead
	// of deep in the tier's FIFO reservation queue (where it would inflate
	// every tenant's wait).
	tm := &tenantManager{
		n:      n,
		sched:  tenant.NewScheduler(cfg.Params.Tenancy.Slots, tenants),
		states: make(map[string]*tenantState),
	}
	for _, c := range tenants { // includes the default tenant
		tm.states[c.ID] = tm.newState(c)
	}
	return tm
}

func (tm *tenantManager) newState(c tenant.Config) *tenantState {
	reg := tm.n.fabric.Metrics()
	node := tm.n.name
	ops := reg.Counter("tenant_ops_total",
		"Admitted operations per tenant.", "tenant", "node", "op")
	bytes := reg.Counter("tenant_bytes_total",
		"Payload bytes moved per tenant.", "tenant", "node", "dir")
	thr := reg.Counter("tenant_throttled_total",
		"Operations denied by tenant quota admission.", "tenant", "node", "kind")
	qw := reg.Histogram("tenant_queue_wait_seconds",
		"Time spent queued in the weighted-fair scheduler.", "tenant", "node")
	lat := reg.Histogram("tenant_op_seconds",
		"Application-perceived operation latency per tenant.", "tenant", "node", "op")
	return &tenantState{
		cfg:       c,
		iops:      tenant.NewBucket(c.IOPS, c.IOPS),
		bytes:     tenant.NewBucket(c.Bytes, c.Bytes),
		ops:       ops.With(c.ID, node, "all"),
		ingress:   bytes.With(c.ID, node, "in"),
		egress:    bytes.With(c.ID, node, "out"),
		thrIOPS:   thr.With(c.ID, node, "iops"),
		thrBytes:  thr.With(c.ID, node, "bytes"),
		queueWait: qw.With(c.ID, node),
		putLat:    lat.With(c.ID, node, "put"),
		getLat:    lat.With(c.ID, node, "get"),
	}
}

// state returns the tenant's state, lazily adding unknown tenants with
// default weight and unlimited quota (the untenanted-compatibility path for
// keys qualified with an ID the tenants option never listed).
func (tm *tenantManager) state(id string) *tenantState {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	st, ok := tm.states[id]
	if !ok {
		st = tm.newState(tenant.Config{ID: id, Weight: 1})
		tm.states[id] = st
	}
	return st
}

// tenantOf derives the owning tenant from a (possibly qualified) key.
func (tm *tenantManager) tenantOf(key string) string {
	if tm == nil {
		return tenant.DefaultID
	}
	id, _ := tenant.Split(key)
	return id
}

// admit runs quota admission for one operation with nbytes of ingress
// payload. It is checked before the op gate so a throttled request is NACKed
// without consuming any node resources. The returned error is the typed,
// marker-prefixed ErrQuotaExceeded the client treats as non-retryable.
func (tm *tenantManager) admit(id string, nbytes int) error {
	if tm == nil {
		return nil
	}
	st := tm.state(id)
	now := tm.n.clk.Now()
	if !st.iops.Take(1, now) {
		tm.throttle(st, "iops", now)
		return &tenant.ErrQuotaExceeded{Tenant: id, Kind: "iops"}
	}
	if nbytes > 0 && !st.bytes.Take(float64(nbytes), now) {
		// The op's IOPS token is already spent; that slightly undercounts the
		// tenant's next window, which errs against the violator, not victims.
		tm.throttle(st, "bytes", now)
		return &tenant.ErrQuotaExceeded{Tenant: id, Kind: "bytes"}
	}
	return nil
}

// throttle counts a denial and journals an edge-triggered event.
func (tm *tenantManager) throttle(st *tenantState, kind string, now time.Time) {
	if kind == "bytes" {
		st.thrBytes.Inc()
	} else {
		st.thrIOPS.Inc()
	}
	st.mu.Lock()
	fire := st.lastThrottled.IsZero() || now.Sub(st.lastThrottled) >= throttleEventEvery
	if fire {
		st.lastThrottled = now
	}
	st.mu.Unlock()
	if fire {
		tm.n.fabric.Events().Record("tenant.throttle", tm.n.name,
			"tenant "+st.cfg.ID+" over "+kind+" quota",
			map[string]string{"tenant": st.cfg.ID, "kind": kind, "instance": tm.n.instanceID})
	}
}

// acquire claims a weighted-fair scheduler slot for the tenant, recording the
// queue wait on the flight record and the tenant_queue_wait_seconds
// histogram. Callers must pair a nil-error return with release().
func (tm *tenantManager) acquire(id string, fa *flight.Active) error {
	if tm == nil {
		return nil
	}
	st := tm.state(id)
	start := tm.n.clk.Now()
	if err := tm.sched.Acquire(id); err != nil {
		return err
	}
	wait := tm.n.clk.Since(start)
	st.queueWait.Record(wait)
	if wait > 0 {
		fa.AddHop(flight.Hop{Kind: flight.HopQueue, Name: "wfq", Wait: wait, Duration: wait})
	}
	return nil
}

func (tm *tenantManager) release() {
	if tm == nil {
		return
	}
	tm.sched.Release()
}

// observe accounts one completed operation: op count, payload bytes in the
// right direction, and the per-tenant latency histogram that backs the
// tenant's SLO objectives.
func (tm *tenantManager) observe(id, op string, elapsed time.Duration, nbytes int) {
	if tm == nil {
		return
	}
	st := tm.state(id)
	st.ops.Inc()
	switch op {
	case "put":
		st.ingress.Add(int64(nbytes))
		st.putLat.Record(elapsed)
	case "get":
		st.egress.Add(int64(nbytes))
		st.getLat.Record(elapsed)
	}
}

// objectives derives per-tenant SLO objectives from the node-level
// declarations: every latency objective gains one clone per configured
// tenant, sourced from that tenant's own latency histogram, so the burn-rate
// engine tracks each tenant's error budget independently.
func (tm *tenantManager) objectives(declared []flight.Objective) []flight.Objective {
	if tm == nil {
		return nil
	}
	tm.mu.Lock()
	states := make([]*tenantState, 0, len(tm.states))
	for _, st := range tm.states {
		states = append(states, st)
	}
	tm.mu.Unlock()
	var out []flight.Objective
	for _, o := range declared {
		if o.Threshold <= 0 || (o.Op != "put" && o.Op != "get") {
			continue
		}
		th := telemetry.AlignedBound(o.Threshold)
		for _, st := range states {
			h := st.putLat
			if o.Op == "get" {
				h = st.getLat
			}
			t := o
			t.Name = o.Name + "/" + st.cfg.ID
			t.Threshold = th
			hist := h
			t.Source = func() (int64, int64) {
				return hist.CountLE(th), hist.Count()
			}
			out = append(out, t)
		}
	}
	return out
}

// close unblocks every queued waiter (node shutdown).
func (tm *tenantManager) close() {
	if tm == nil {
		return
	}
	tm.sched.Close()
}

// TenantStats is one tenant's accounting snapshot on one node.
type TenantStats struct {
	ID         string
	Weight     int
	IOPSQuota  float64
	BytesQuota float64
	Ops        int64
	BytesIn    int64
	BytesOut   int64
	Throttled  int64
	QueueP99Ms float64
	PutP99Ms   float64
	GetP99Ms   float64
}

// snapshot returns per-tenant stats sorted by ID.
func (tm *tenantManager) snapshot() []TenantStats {
	if tm == nil {
		return nil
	}
	tm.mu.Lock()
	ids := make([]string, 0, len(tm.states))
	for id := range tm.states {
		ids = append(ids, id)
	}
	tm.mu.Unlock()
	sort.Strings(ids)
	toMs := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := make([]TenantStats, 0, len(ids))
	for _, id := range ids {
		st := tm.state(id)
		out = append(out, TenantStats{
			ID:         id,
			Weight:     st.cfg.Weight,
			IOPSQuota:  st.cfg.IOPS,
			BytesQuota: st.cfg.Bytes,
			Ops:        st.ops.Value(),
			BytesIn:    st.ingress.Value(),
			BytesOut:   st.egress.Value(),
			Throttled:  st.thrIOPS.Value() + st.thrBytes.Value(),
			QueueP99Ms: toMs(st.queueWait.Percentile(99)),
			PutP99Ms:   toMs(st.putLat.Percentile(99)),
			GetP99Ms:   toMs(st.getLat.Percentile(99)),
		})
	}
	return out
}
