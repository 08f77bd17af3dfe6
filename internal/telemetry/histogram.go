package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: fixed log-scaled bounds starting at 10µs growing
// by 1.25x per bucket. 96 buckets cover ~10µs .. ~19h, spanning everything
// from a memory-tier hit to a Glacier restore; anything above the last
// finite bound lands in the overflow bucket. Fixed buckets mean Record is a
// binary search plus a handful of atomic adds — no allocation, no lock, and
// memory stays constant no matter how many samples arrive.
const (
	numBuckets   = 96
	bucketStart  = 10 * time.Microsecond
	bucketGrowth = 1.25
)

// bucketBounds holds the shared upper bounds (inclusive), ascending.
var bucketBounds = func() [numBuckets]time.Duration {
	var b [numBuckets]time.Duration
	v := float64(bucketStart)
	for i := 0; i < numBuckets; i++ {
		b[i] = time.Duration(v)
		v *= bucketGrowth
	}
	return b
}()

// Histogram is a bounded, concurrency-safe duration histogram with
// percentile estimation. All methods are nil-safe; a nil *Histogram records
// nothing and reports zeros, so uninstrumented paths cost one nil check.
type Histogram struct {
	counts [numBuckets + 1]atomic.Int64 // +1 = overflow bucket
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	min    atomic.Int64 // nanoseconds; valid when count > 0
	max    atomic.Int64 // nanoseconds; valid when count > 0

	// exemplars holds, per raw bucket, the most recent traced observation
	// that landed in it — the one-step bridge from a latency bucket to a
	// concrete retrievable trace. Untraced observations never touch it.
	exemplars [numBuckets + 1]atomic.Pointer[exemplar]
}

// exemplar is one sampled observation retained for a bucket.
type exemplar struct {
	trace string        // trace ID (hex)
	value time.Duration // the observation itself
	seq   uint64        // process-wide recency order (merge tie-break)
}

// exemplarSeq orders exemplars by recency across all histograms in the
// process, so merging snapshots can keep the newest without comparing
// clocks.
var exemplarSeq atomic.Uint64

// NewHistogram returns a standalone histogram (not attached to a registry).
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketIndex returns the bucket for d: the first bound >= d, or the
// overflow bucket.
func bucketIndex(d time.Duration) int {
	lo, hi := 0, numBuckets
	for lo < hi {
		mid := (lo + hi) / 2
		if bucketBounds[mid] >= d {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // numBuckets == overflow
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	h.RecordTrace(d, "")
}

// RecordTrace adds one observation and, when traceID is non-empty, retains
// it as the exemplar of the bucket the observation lands in. Callers pass
// the sampled request's trace ID (empty for untraced requests), so every
// exported bucket can name a live trace that exhibits its latency.
func (h *Histogram) RecordTrace(d time.Duration, traceID string) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	idx := bucketIndex(d)
	if traceID != "" {
		h.exemplars[idx].Store(&exemplar{trace: traceID, value: d, seq: exemplarSeq.Add(1)})
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		old := h.min.Load()
		if int64(d) >= old || h.min.CompareAndSwap(old, int64(d)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if int64(d) <= old || h.max.CompareAndSwap(old, int64(d)) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean returns the exact average observation (sum/count).
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Min returns the smallest recorded observation (exact).
func (h *Histogram) Min() time.Duration {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

// Max returns the largest recorded observation (exact).
func (h *Histogram) Max() time.Duration {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Percentile estimates the p-th percentile (0 < p <= 100) by locating the
// bucket containing the rank and interpolating linearly inside it. The
// estimate is clamped to the exact observed [Min, Max], so p=0/p=100 and
// single-sample histograms are exact, and relative error elsewhere is
// bounded by the bucket growth factor (25%; typically far less).
func (h *Histogram) Percentile(p float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	idx := numBuckets
	for i := 0; i <= numBuckets; i++ {
		cum += h.counts[i].Load()
		if float64(cum) >= rank {
			idx = i
			break
		}
	}
	var lower, upper float64
	if idx >= numBuckets {
		// Overflow bucket: no finite upper bound; report the observed max.
		return h.Max()
	}
	upper = float64(bucketBounds[idx])
	if idx == 0 {
		lower = 0
	} else {
		lower = float64(bucketBounds[idx-1])
	}
	inBucket := h.counts[idx].Load()
	prev := cum - inBucket
	est := upper
	if inBucket > 0 {
		frac := (rank - float64(prev)) / float64(inBucket)
		est = lower + frac*(upper-lower)
	}
	// Clamp to exact observed extremes.
	if mn := float64(h.min.Load()); est < mn {
		est = mn
	}
	if mx := float64(h.max.Load()); est > mx {
		est = mx
	}
	return time.Duration(est)
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i].Store(0)
		h.exemplars[i].Store(nil)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
}

// snapshot returns count, sum, and cumulative buckets (only buckets up to
// the highest non-empty one, plus the +Inf bucket). The reported count is
// derived from the bucket loads themselves — not h.count, which under
// concurrent Record could lag the buckets and make the +Inf bucket smaller
// than a cumulative finite bucket, an invariant violation Prometheus
// clients reject. Each emitted bucket carries its own raw bucket's
// exemplar (the +Inf entry carries the overflow bucket's).
func (h *Histogram) snapshot() (int64, time.Duration, []BucketCount) {
	sum := time.Duration(h.sum.Load())
	// Find the highest non-empty finite bucket so exports stay compact.
	last := -1
	raw := make([]int64, numBuckets+1)
	var total int64
	for i := 0; i <= numBuckets; i++ {
		raw[i] = h.counts[i].Load()
		total += raw[i]
		if raw[i] > 0 && i < numBuckets {
			last = i
		}
	}
	var out []BucketCount
	var cum int64
	for i := 0; i <= last; i++ {
		cum += raw[i]
		bc := BucketCount{UpperBound: bucketBounds[i], Count: cum}
		if ex := h.exemplars[i].Load(); ex != nil {
			bc.Exemplar, bc.ExemplarValue, bc.ExemplarSeq = ex.trace, ex.value, ex.seq
		}
		out = append(out, bc)
	}
	inf := BucketCount{UpperBound: math.MaxInt64, Count: total}
	if ex := h.exemplars[numBuckets].Load(); ex != nil {
		inf.Exemplar, inf.ExemplarValue, inf.ExemplarSeq = ex.trace, ex.value, ex.seq
	}
	out = append(out, inf)
	return total, sum, out
}

// CountLE returns the number of observations recorded at or below d,
// counting whole buckets whose upper bound is <= d. When d falls strictly
// inside a bucket that bucket is excluded, so the result is a slight
// undercount rather than an overcount — the conservative direction for SLO
// good-event accounting. Passing an exact bucket bound (e.g. a threshold
// aligned via AlignedBound) is exact.
func (h *Histogram) CountLE(d time.Duration) int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := 0; i < numBuckets && bucketBounds[i] <= d; i++ {
		n += h.counts[i].Load()
	}
	return n
}

// AlignedBound returns the smallest histogram bucket bound >= d — the
// effective threshold CountLE(d) would evaluate if d were rounded up to a
// bucket edge. SLO objectives align their latency thresholds with this so
// good-event counts are exact rather than conservatively low.
func AlignedBound(d time.Duration) time.Duration {
	idx := bucketIndex(d)
	if idx >= numBuckets {
		return bucketBounds[numBuckets-1]
	}
	return bucketBounds[idx]
}
