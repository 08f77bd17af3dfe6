// Package stats provides the measurement primitives used by every
// experiment harness: latency histograms with percentile queries, windowed
// rate counters, and time series for the timeline figures (e.g. paper Fig 7).
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// reservoirCap bounds how many raw samples a Histogram retains. Long
// experiment runs record tens of millions of points; beyond this many the
// histogram switches to uniform reservoir sampling (Vitter's Algorithm R),
// keeping memory constant while percentiles stay accurate to well under a
// percentile point at this reservoir size.
const reservoirCap = 8192

// Histogram records duration samples and answers mean/percentile queries.
// Count, Mean, Min and Max are always exact; percentiles are exact up to
// reservoirCap samples and estimated from a uniform reservoir beyond that.
// Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration // reservoir of at most reservoirCap samples
	n       int64           // total samples recorded
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	sorted  bool
	rng     *rand.Rand
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	h.n++
	h.sum += d
	if h.n == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	if len(h.samples) < reservoirCap {
		h.samples = append(h.samples, d)
		h.sorted = false
		h.mu.Unlock()
		return
	}
	// Algorithm R: keep the new sample with probability cap/n, evicting a
	// uniformly random resident. The seed is fixed so runs are repeatable.
	if h.rng == nil {
		h.rng = rand.New(rand.NewSource(int64(reservoirCap)))
	}
	if i := h.rng.Int63n(h.n); i < reservoirCap {
		h.samples[i] = d
		h.sorted = false
	}
	h.mu.Unlock()
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.n)
}

// Mean returns the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Min returns the smallest sample, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest sample, or 0 if empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank, or 0 if empty. The extremes (p<=0, p>=100) are exact;
// interior percentiles are estimated from the reservoir once the sample
// count exceeds its capacity.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	h.sortLocked()
	rank := int(math.Ceil(p / 100 * float64(len(h.samples))))
	if rank < 1 {
		rank = 1
	}
	return h.samples[rank-1]
}

// Snapshot returns a copy of the retained samples (all of them below
// reservoirCap, a uniform subsample beyond), insertion order not
// guaranteed.
func (h *Histogram) Snapshot() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]time.Duration, len(h.samples))
	copy(out, h.samples)
	return out
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.samples = h.samples[:0]
	h.n = 0
	h.sum = 0
	h.min = 0
	h.max = 0
	h.sorted = true
	h.mu.Unlock()
}

// String summarizes the distribution, e.g. "n=100 mean=4ms p50=3ms p99=9ms".
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max())
}

func (h *Histogram) sortLocked() {
	if h.sorted {
		return
	}
	sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
	h.sorted = true
}

// Counter is a concurrency-safe monotonically increasing counter.
type Counter struct {
	mu sync.Mutex
	n  int64
}

// Add increments the counter by delta (delta must be >= 0).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("stats: Counter.Add with negative delta")
	}
	c.mu.Lock()
	c.n += delta
	c.mu.Unlock()
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Point is one (time, value) sample on a time series.
type Point struct {
	At    time.Time
	Value float64
}

// seriesCap is how many of its most recent points a Series keeps. The
// timeline experiments (fig7, sloswitch) append a few thousand points; a
// node serving puts at memory speed appends that many every second and
// must not grow without bound.
const seriesCap = 1 << 16

// Series is a time series of the seriesCap most recently appended points,
// used for the timeline plots (operation latency over time in Fig 7). Safe
// for concurrent use.
type Series struct {
	mu     sync.Mutex
	name   string
	points []Point // a ring once full: the oldest point is at head
	head   int
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Append records a point, displacing the oldest once the series is full.
func (s *Series) Append(at time.Time, v float64) {
	s.mu.Lock()
	if len(s.points) < seriesCap {
		s.points = append(s.points, Point{At: at, Value: v})
	} else {
		s.points[s.head] = Point{At: at, Value: v}
		s.head = (s.head + 1) % seriesCap
	}
	s.mu.Unlock()
}

// Points returns a copy of the retained points in append order.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, 0, len(s.points))
	out = append(out, s.points[s.head:]...)
	return append(out, s.points[:s.head]...)
}

// Len returns the number of retained points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// MaxValue returns the maximum retained value, or 0 if empty.
func (s *Series) MaxValue() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	max := 0.0
	for _, p := range s.points {
		if p.Value > max {
			max = p.Value
		}
	}
	return max
}
