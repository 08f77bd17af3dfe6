// Package ycsb reimplements the Yahoo! Cloud Serving Benchmark workload
// generator (Cooper et al., SoCC'10) used by the paper's evaluation:
// standard workloads A-F, the zipfian/uniform/latest request distributions,
// and a closed-loop client driver that runs any PUT/GET store and records
// per-operation latency.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// OpKind is one benchmark operation type.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpReadModifyWrite
)

// String names the operation.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpReadModifyWrite:
		return "rmw"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Workload defines an operation mix and request distribution.
type Workload struct {
	Name         string
	ReadProp     float64
	UpdateProp   float64
	InsertProp   float64
	RMWProp      float64
	Distribution string // "zipfian", "uniform", or "latest"
	RecordCount  int
	FieldLength  int // value size in bytes
	// Prefix namespaces this workload's keys, letting concurrent clients
	// use disjoint keyspaces.
	Prefix string
}

// Standard YCSB workloads (core package defaults: 1000-record keyspace is
// overridden by callers; field length 1 KB).
var (
	// WorkloadA is the update-heavy mix: 50% reads, 50% updates (used by
	// the paper's Fig 7 experiment).
	WorkloadA = Workload{Name: "A", ReadProp: 0.5, UpdateProp: 0.5,
		Distribution: "zipfian", RecordCount: 1000, FieldLength: 1024}
	// WorkloadB is read-mostly: 95% reads, 5% updates (the mix the paper's
	// Sec 5.2 experiment describes as "workload A: Read mostly (5% put and
	// 95% get)").
	WorkloadB = Workload{Name: "B", ReadProp: 0.95, UpdateProp: 0.05,
		Distribution: "zipfian", RecordCount: 1000, FieldLength: 1024}
	// WorkloadC is read-only.
	WorkloadC = Workload{Name: "C", ReadProp: 1.0,
		Distribution: "zipfian", RecordCount: 1000, FieldLength: 1024}
	// WorkloadD reads the latest inserts: 95% reads, 5% inserts.
	WorkloadD = Workload{Name: "D", ReadProp: 0.95, InsertProp: 0.05,
		Distribution: "latest", RecordCount: 1000, FieldLength: 1024}
	// WorkloadF is read-modify-write: 50% reads, 50% RMW.
	WorkloadF = Workload{Name: "F", ReadProp: 0.5, RMWProp: 0.5,
		Distribution: "zipfian", RecordCount: 1000, FieldLength: 1024}
)

// Validate checks that the proportions sum to 1.
func (w Workload) Validate() error {
	sum := w.ReadProp + w.UpdateProp + w.InsertProp + w.RMWProp
	if math.Abs(sum-1.0) > 1e-9 {
		return fmt.Errorf("ycsb: workload %s proportions sum to %v", w.Name, sum)
	}
	if w.RecordCount <= 0 {
		return fmt.Errorf("ycsb: workload %s record count %d", w.Name, w.RecordCount)
	}
	switch w.Distribution {
	case "zipfian", "uniform", "latest":
	default:
		return fmt.Errorf("ycsb: unknown distribution %q", w.Distribution)
	}
	return nil
}

// KeyChooser selects record indexes according to a distribution.
type KeyChooser interface {
	// Next returns an index in [0, n) where n is the current record count.
	Next() int
}

// Uniform chooses keys uniformly.
type Uniform struct {
	rng *rand.Rand
	n   int
}

// NewUniform returns a uniform chooser over n records.
func NewUniform(n int, seed int64) *Uniform {
	return &Uniform{rng: rand.New(rand.NewSource(seed)), n: n}
}

// Next implements KeyChooser.
func (u *Uniform) Next() int { return u.rng.Intn(u.n) }

// Zipfian chooses keys with a zipf distribution (theta 0.99, YCSB's
// default), using the Gray et al. rejection-free method YCSB implements.
// Rank 0 is the hottest key.
type Zipfian struct {
	rng   *rand.Rand
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// ZipfianConstant is YCSB's default skew.
const ZipfianConstant = 0.99

// NewZipfian returns a zipfian chooser over n records with theta skew
// (pass ZipfianConstant for the YCSB default).
func NewZipfian(n int, theta float64, seed int64) *Zipfian {
	z := &Zipfian{rng: rand.New(rand.NewSource(seed)), n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements KeyChooser.
func (z *Zipfian) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Latest skews toward the most recently inserted records: it draws a
// zipfian rank and counts back from the newest record.
type Latest struct {
	z *Zipfian
	n int
}

// NewLatest returns a latest-distribution chooser over n records.
func NewLatest(n int, seed int64) *Latest {
	return &Latest{z: NewZipfian(n, ZipfianConstant, seed), n: n}
}

// Next implements KeyChooser.
func (l *Latest) Next() int {
	r := l.z.Next()
	idx := l.n - 1 - r
	if idx < 0 {
		return 0
	}
	return idx
}

// Grow tells the chooser a record was inserted (latest distribution
// tracks the moving head).
func (l *Latest) Grow() { l.n++ }

// Store is the system under test: any PUT/GET keyed byte store.
type Store interface {
	Put(key string, value []byte) error
	Get(key string) ([]byte, error)
}

// Key formats the canonical YCSB key for a record index.
func Key(i int) string { return fmt.Sprintf("user%08d", i) }

// key formats a record key with the workload's prefix.
func (c *Client) key(i int) string { return c.workload.Prefix + Key(i) }

// Client drives one closed-loop YCSB client against a store.
type Client struct {
	workload Workload
	chooser  KeyChooser
	latest   *Latest // non-nil for the latest distribution
	rng      *rand.Rand
	store    Store
	inserted int

	// ReadLatency and WriteLatency collect per-operation service times;
	// Errors counts failed operations.
	ReadLatency  *telemetry.Histogram
	WriteLatency *telemetry.Histogram
	Errors       atomic.Int64
}

// NewClient builds a client for workload w against store. Seed controls
// both key choice and op mix.
func NewClient(w Workload, store Store, seed int64) (*Client, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	c := &Client{
		workload: w, store: store,
		rng:          rand.New(rand.NewSource(seed)),
		inserted:     w.RecordCount,
		ReadLatency:  telemetry.NewHistogram(),
		WriteLatency: telemetry.NewHistogram(),
	}
	switch w.Distribution {
	case "uniform":
		c.chooser = NewUniform(w.RecordCount, seed+1)
	case "zipfian":
		c.chooser = NewZipfian(w.RecordCount, ZipfianConstant, seed+1)
	case "latest":
		l := NewLatest(w.RecordCount, seed+1)
		c.latest = l
		c.chooser = l
	}
	return c, nil
}

// Load inserts the initial records (the YCSB load phase).
func (c *Client) Load() error {
	val := c.value()
	for i := 0; i < c.workload.RecordCount; i++ {
		if err := c.store.Put(c.key(i), val); err != nil {
			return err
		}
	}
	return nil
}

// value builds a deterministic payload of the workload's field length.
func (c *Client) value() []byte {
	v := make([]byte, c.workload.FieldLength)
	for i := range v {
		v[i] = byte('a' + i%26)
	}
	return v
}

// nextOp draws an operation kind from the workload mix.
func (c *Client) nextOp() OpKind {
	r := c.rng.Float64()
	switch {
	case r < c.workload.ReadProp:
		return OpRead
	case r < c.workload.ReadProp+c.workload.UpdateProp:
		return OpUpdate
	case r < c.workload.ReadProp+c.workload.UpdateProp+c.workload.InsertProp:
		return OpInsert
	default:
		return OpReadModifyWrite
	}
}

// nowFunc is the time source for latency measurement; overridable so
// drivers can measure in simulated clock units.
type nowFunc func() time.Time

// RunOps executes n operations, timing each with now (pass nil for wall
// time). It returns the count of successful operations.
func (c *Client) RunOps(n int, now nowFunc) int {
	if now == nil {
		now = time.Now
	}
	ok := 0
	for i := 0; i < n; i++ {
		if c.RunOne(now) {
			ok++
		}
	}
	return ok
}

// RunOne executes a single operation and reports success.
func (c *Client) RunOne(now nowFunc) bool {
	if now == nil {
		now = time.Now
	}
	op := c.nextOp()
	key := c.key(c.chooser.Next())
	start := now()
	var err error
	switch op {
	case OpRead:
		_, err = c.store.Get(key)
		if err == nil {
			c.ReadLatency.Record(now().Sub(start))
		}
	case OpUpdate:
		err = c.store.Put(key, c.value())
		if err == nil {
			c.WriteLatency.Record(now().Sub(start))
		}
	case OpInsert:
		key = c.key(c.inserted)
		err = c.store.Put(key, c.value())
		if err == nil {
			c.inserted++
			if c.latest != nil {
				c.latest.Grow()
			}
			c.WriteLatency.Record(now().Sub(start))
		}
	case OpReadModifyWrite:
		_, err = c.store.Get(key)
		if err == nil {
			err = c.store.Put(key, c.value())
		}
		if err == nil {
			c.WriteLatency.Record(now().Sub(start))
		}
	}
	if err != nil {
		c.Errors.Add(1)
		return false
	}
	return true
}
