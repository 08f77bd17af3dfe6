package tenant

import (
	"sync"
	"time"
)

// Bucket is a lazily-refilled token bucket. Rate is tokens/second, burst is
// the bucket capacity. A rate <= 0 means unlimited: Take always succeeds and
// costs nothing. The bucket is clock-agnostic — callers pass `now`, so it
// works under both the wall clock and the simulated clock.
type Bucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// NewBucket builds a bucket that starts full. A burst <= 0 defaults to one
// second's worth of tokens. Any burst below one token is floored to 1:
// withdrawals are at least one token, so a smaller capacity could never
// admit anything — a sub-1/s rate must mean "one op per 1/rate seconds",
// not "never".
func NewBucket(rate, burst float64) *Bucket {
	if rate > 0 {
		if burst <= 0 {
			burst = rate
		}
		if burst < 1 {
			burst = 1
		}
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst}
}

// Take withdraws n tokens if available at time now, reporting success. It
// never blocks and never goes negative: at zero tokens every Take fails until
// refill, so a starved tenant recovers as soon as time passes — there is no
// debt to pay down.
func (b *Bucket) Take(n float64, now time.Time) bool {
	if b == nil || b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(now)
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

func (b *Bucket) refill(now time.Time) {
	if b.last.IsZero() {
		b.last = now
		return
	}
	dt := now.Sub(b.last)
	if dt <= 0 {
		return
	}
	b.last = now
	b.tokens += b.rate * dt.Seconds()
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}
