// Package flight is the request-level observability layer on top of
// internal/telemetry: a fixed-size ring of per-request flight records, each
// capturing the full hop breakdown of one PUT/GET — queue (gate) wait, tier
// I/O per tier touched, fan-out RPC per peer, lock acquisition, repair work
// triggered — plus the attributed dollar cost of every hop (internal/cost
// Table 4 rates). Histograms answer "how slow is the system"; flight records
// answer "why was THIS request slow, and what did it cost".
//
// A second always-keep ring (the slowlog, à la Dapper) retains every request
// that crossed a per-op latency threshold or a dollar-cost threshold, so an
// incident's evidence survives long after the main ring has wrapped. Both
// rings are exposed at /debug/requests (cmd/wiera) and `wieractl slow`.
//
// The package also houses the SLO burn-rate engine (slo.go) that turns the
// telemetry histograms into policy-visible SLOViolation events.
package flight

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Hop kinds. A record's hops reconstruct where a request's time and money
// went.
const (
	// HopQueue is time spent blocked at the node's operation gate (a policy
	// change freezing the instance, Sec 3.3.2).
	HopQueue = "queue"
	// HopLock is global per-key lock acquisition (coordination service).
	HopLock = "lock"
	// HopTier is one storage-tier Put/Get, attributed with its priced class.
	HopTier = "tier"
	// HopRPC is one peer RPC: a replication fan-out, forward, or peer read.
	HopRPC = "rpc"
	// HopRepair marks repair work triggered by this request (read repair).
	HopRepair = "repair"
	// HopCache marks a request served from a local side cache (a hot-key
	// replica) instead of the authoritative data path.
	HopCache = "cache"
)

// Hop is one step of a request's path.
type Hop struct {
	Kind  string `json:"kind"`
	Name  string `json:"name"`            // tier label, peer name, lock key...
	Class string `json:"class,omitempty"` // priced storage class for tier hops
	// Wait is time queued before service began (IOPS admission); Duration is
	// the full hop time including Wait.
	Wait     time.Duration `json:"waitNs,omitempty"`
	Duration time.Duration `json:"durationNs"`
	Bytes    int64         `json:"bytes,omitempty"`
	CostUSD  float64       `json:"costUsd,omitempty"`
	Err      string        `json:"err,omitempty"`
}

// Record is one completed request.
type Record struct {
	ID      uint64        `json:"id"`
	Op      string        `json:"op"` // "put" or "get"
	Key     string        `json:"key"`
	Node    string        `json:"node"`
	Region  string        `json:"region"`
	Policy  string        `json:"policy"`
	TraceID string        `json:"traceId,omitempty"`
	Tenant  string        `json:"tenant,omitempty"`
	Start   time.Time     `json:"start"`
	Total   time.Duration `json:"totalNs"`
	CostUSD float64       `json:"costUsd"`
	Err     string        `json:"err,omitempty"`
	// Slow and Expensive mark why the record also entered the slowlog.
	Slow      bool  `json:"slow,omitempty"`
	Expensive bool  `json:"expensive,omitempty"`
	Hops      []Hop `json:"hops,omitempty"`
}

// Config sizes a Recorder. Zero values take defaults.
type Config struct {
	// Capacity bounds the main ring (default 1024).
	Capacity int
	// SlowCapacity bounds the always-keep slowlog ring (default 256).
	SlowCapacity int
	// SlowPut / SlowGet are the slowlog latency thresholds per op; a
	// non-positive threshold disables slow-flagging for that op.
	SlowPut, SlowGet time.Duration
	// ExpensiveUSD flags requests whose attributed cost meets the threshold
	// (<= 0 disables).
	ExpensiveUSD float64
	// Now is the time source (default time.Now; pass the simnet clock's so
	// durations line up with simulated latencies).
	Now func() time.Time
}

// Default thresholds: DefaultSlowPut matches the paper's Fig 5(a) latency
// threshold, so the slowlog fills exactly when the DynamicConsistency policy
// would be getting nervous.
const (
	DefaultCapacity     = 1024
	DefaultSlowCapacity = 256
	DefaultSlowPut      = 800 * time.Millisecond
	DefaultSlowGet      = 400 * time.Millisecond
)

// Recorder retains completed request records in two bounded rings. A nil
// *Recorder is valid: Begin returns a nil *Active and everything no-ops, so
// uninstrumented runs pay a single nil check per request.
type Recorder struct {
	now          func() time.Time
	slowPut      atomic.Int64 // ns; <= 0 disables
	slowGet      atomic.Int64
	expensiveUSD atomic.Uint64 // float64 bits
	nextID       atomic.Uint64
	seen         atomic.Int64
	slowSeen     atomic.Int64

	onSlowMu sync.RWMutex
	onSlow   func(Record)

	mu   sync.Mutex
	ring []Record
	head int

	slowMu   sync.Mutex
	slowRing []Record
	slowHead int
}

// NewRecorder builds a recorder from cfg.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.SlowCapacity <= 0 {
		cfg.SlowCapacity = DefaultSlowCapacity
	}
	if cfg.SlowPut == 0 {
		cfg.SlowPut = DefaultSlowPut
	}
	if cfg.SlowGet == 0 {
		cfg.SlowGet = DefaultSlowGet
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	r := &Recorder{
		now:      cfg.Now,
		ring:     make([]Record, 0, cfg.Capacity),
		slowRing: make([]Record, 0, cfg.SlowCapacity),
	}
	r.slowPut.Store(int64(cfg.SlowPut))
	r.slowGet.Store(int64(cfg.SlowGet))
	r.SetExpensiveUSD(cfg.ExpensiveUSD)
	return r
}

// SetSlowThresholds changes the per-op slowlog latency thresholds at run
// time (non-positive disables that op's flagging).
func (r *Recorder) SetSlowThresholds(put, get time.Duration) {
	if r == nil {
		return
	}
	r.slowPut.Store(int64(put))
	r.slowGet.Store(int64(get))
}

// SetExpensiveUSD changes the dollar-cost slowlog threshold (<= 0 disables).
func (r *Recorder) SetExpensiveUSD(v float64) {
	if r == nil {
		return
	}
	bits := uint64(0)
	if v > 0 {
		bits = floatBits(v)
	}
	r.expensiveUSD.Store(bits)
}

// OnSlow installs a hook invoked (synchronously, at End) for every record
// entering the slowlog — the transport layer uses it to force trace sampling
// around slow requests.
func (r *Recorder) OnSlow(fn func(Record)) {
	if r == nil {
		return
	}
	r.onSlowMu.Lock()
	r.onSlow = fn
	r.onSlowMu.Unlock()
}

// Begin opens a flight record for one request. The returned Active is
// carried through the operation via NewContext; nil receivers and results
// are valid no-ops.
func (r *Recorder) Begin(op, key, node, region, policy string) *Active {
	if r == nil {
		return nil
	}
	return &Active{
		rec: r,
		r: Record{
			ID: r.nextID.Add(1), Op: op, Key: key, Node: node,
			Region: region, Policy: policy, Start: r.now(),
		},
	}
}

// Totals reports how many records completed and how many entered the
// slowlog over the recorder's lifetime (rings may have evicted older ones).
func (r *Recorder) Totals() (seen, slow int64) {
	if r == nil {
		return 0, 0
	}
	return r.seen.Load(), r.slowSeen.Load()
}

// Recent returns up to max completed records, newest first (max <= 0 means
// all retained).
func (r *Recorder) Recent(max int) []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return newestFirst(r.ring, r.head, max)
}

// Slow returns up to max slowlog records, newest first (max <= 0 means all
// retained).
func (r *Recorder) Slow(max int) []Record {
	if r == nil {
		return nil
	}
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	return newestFirst(r.slowRing, r.slowHead, max)
}

// newestFirst copies a ring (head = next overwrite slot = oldest element
// when full) into newest-first order, bounded by max.
func newestFirst(ring []Record, head, max int) []Record {
	n := len(ring)
	if max <= 0 || max > n {
		max = n
	}
	out := make([]Record, 0, max)
	for i := 0; i < max; i++ {
		// Walk backwards from the newest element (head-1 when full/wrapped;
		// len-1 while still filling).
		idx := head - 1 - i
		if len(ring) == cap(ring) {
			idx = ((head-1-i)%n + n) % n
		} else {
			idx = n - 1 - i
		}
		if idx < 0 {
			break
		}
		out = append(out, ring[idx])
	}
	return out
}

// complete files a finished record into the rings.
func (r *Recorder) complete(rec Record) {
	r.seen.Add(1)
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, rec)
	} else if cap(r.ring) > 0 {
		r.ring[r.head] = rec
		r.head = (r.head + 1) % cap(r.ring)
	}
	r.mu.Unlock()
	if !rec.Slow && !rec.Expensive {
		return
	}
	r.slowSeen.Add(1)
	r.slowMu.Lock()
	if len(r.slowRing) < cap(r.slowRing) {
		r.slowRing = append(r.slowRing, rec)
	} else if cap(r.slowRing) > 0 {
		r.slowRing[r.slowHead] = rec
		r.slowHead = (r.slowHead + 1) % cap(r.slowRing)
	}
	r.slowMu.Unlock()
	r.onSlowMu.RLock()
	fn := r.onSlow
	r.onSlowMu.RUnlock()
	if fn != nil {
		fn(rec)
	}
}

// slowThreshold returns the latency threshold for op (0 = disabled).
func (r *Recorder) slowThreshold(op string) time.Duration {
	switch op {
	case "put":
		return time.Duration(r.slowPut.Load())
	case "get":
		return time.Duration(r.slowGet.Load())
	default:
		return 0
	}
}

// Active is one in-flight request's record under construction. Hops may be
// added concurrently (replication fan-outs record from per-peer goroutines).
// A nil *Active is valid and all methods no-op.
type Active struct {
	rec *Recorder
	mu  sync.Mutex
	r   Record
	end bool
	// hops backs r.Hops for the first inlineHops hops, so a typical request
	// (tier hop, a lock or an rpc or two) records them without allocating;
	// append moves a longer path to the heap. The filed Record's Hops still
	// slice this array: End stops every writer first, so from then on the
	// record owns the hops and merely keeps the Active reachable.
	hops [inlineHops]Hop
}

// inlineHops is how many hops an Active holds in place.
const inlineHops = 4

// AddHop appends one hop to the record.
func (a *Active) AddHop(h Hop) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.end {
		if a.r.Hops == nil {
			a.r.Hops = a.hops[:0]
		}
		a.r.Hops = append(a.r.Hops, h)
		a.r.CostUSD += h.CostUSD
	}
	a.mu.Unlock()
}

// AddCost attributes extra dollars not tied to a single hop.
func (a *Active) AddCost(usd float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.end {
		a.r.CostUSD += usd
	}
	a.mu.Unlock()
}

// SetTraceID links the record to its distributed trace (when sampled).
func (a *Active) SetTraceID(id string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.r.TraceID = id
	a.mu.Unlock()
}

// SetTenant tags the record with the tenant the request belongs to.
func (a *Active) SetTenant(id string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.r.Tenant = id
	a.mu.Unlock()
}

// End finalizes the record and files it. Idempotent; the first call wins.
func (a *Active) End(err error) {
	if a == nil || a.rec == nil {
		return
	}
	a.mu.Lock()
	if a.end {
		a.mu.Unlock()
		return
	}
	a.end = true
	a.r.Total = a.rec.now().Sub(a.r.Start)
	if err != nil {
		a.r.Err = err.Error()
	}
	if th := a.rec.slowThreshold(a.r.Op); th > 0 && a.r.Total >= th {
		a.r.Slow = true
	}
	if bits := a.rec.expensiveUSD.Load(); bits != 0 && a.r.CostUSD >= floatFromBits(bits) {
		a.r.Expensive = true
	}
	rec := a.r
	a.mu.Unlock()
	a.rec.complete(rec)
}

// --- context plumbing ---------------------------------------------------

type activeKey struct{}

// NewContext returns ctx carrying the active record.
func NewContext(ctx context.Context, a *Active) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, activeKey{}, a)
}

// FromContext returns the active record carried by ctx, or nil.
func FromContext(ctx context.Context) *Active {
	if ctx == nil {
		return nil
	}
	a, _ := ctx.Value(activeKey{}).(*Active)
	return a
}
