package tenant

import (
	"testing"
	"time"
)

// Sustained admission over a long window must not exceed the configured rate
// (plus the initial burst capacity).
func TestBucketSustainedRate(t *testing.T) {
	const rate, burst = 100.0, 50.0
	b := NewBucket(rate, burst)
	start := time.Unix(0, 0)
	admitted := 0
	// Offer 10x the quota for 10 seconds in 1ms ticks.
	for i := 0; i < 10000; i++ {
		now := start.Add(time.Duration(i) * time.Millisecond)
		if b.Take(1, now) {
			admitted++
		}
	}
	max := int(rate*10 + burst)
	if admitted > max {
		t.Fatalf("admitted %d ops in 10s, want <= rate*10+burst = %d", admitted, max)
	}
	if admitted < int(rate*10)-1 {
		t.Fatalf("admitted %d ops in 10s, want >= %d (rate under-delivered)", admitted, int(rate*10)-1)
	}
}

// A burst at a single instant is bounded by the bucket capacity.
func TestBucketBurstBound(t *testing.T) {
	b := NewBucket(10, 25)
	now := time.Unix(100, 0)
	admitted := 0
	for i := 0; i < 1000; i++ {
		if b.Take(1, now) {
			admitted++
		}
	}
	if admitted != 25 {
		t.Fatalf("instantaneous burst admitted %d, want exactly burst=25", admitted)
	}
}

// At zero tokens there is no debt: denied requests cost nothing, and the
// tenant recovers at full rate as soon as time passes.
func TestBucketNoStarvationAtZero(t *testing.T) {
	b := NewBucket(100, 10)
	now := time.Unix(0, 0)
	for b.Take(1, now) {
	}
	// Hammer the empty bucket; none of these may push tokens negative.
	for i := 0; i < 10000; i++ {
		if b.Take(1, now) {
			t.Fatal("Take succeeded on an empty bucket with no time passed")
		}
	}
	// One second later a full second of tokens is available, capped at burst.
	later := now.Add(time.Second)
	admitted := 0
	for b.Take(1, later) {
		admitted++
	}
	if admitted != 10 {
		t.Fatalf("after recovery admitted %d, want burst=10 (denied requests must not accrue debt)", admitted)
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := NewBucket(0, 0)
	now := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		if !b.Take(1e9, now) {
			t.Fatal("unlimited bucket denied a request")
		}
	}
	var nilBucket *Bucket
	if !nilBucket.Take(1, now) {
		t.Fatal("nil bucket must admit everything")
	}
}

// A sub-1/s rate means "one op per 1/rate seconds", never "never": the
// burst floors at one token, so the tenant is admitted exactly once per
// refill interval instead of being permanently starved.
func TestBucketFractionalRate(t *testing.T) {
	b := NewBucket(0.5, 0.5) // one op per 2s; naive burst would be 0.5 tokens
	now := time.Unix(0, 0)
	if !b.Take(1, now) {
		t.Fatal("fractional-rate bucket denied its initial burst token")
	}
	if b.Take(1, now) {
		t.Fatal("second take at the same instant must be denied")
	}
	if b.Take(1, now.Add(time.Second)) {
		t.Fatal("take after half a refill interval must be denied")
	}
	if !b.Take(1, now.Add(2*time.Second)) {
		t.Fatal("take after a full refill interval must be admitted")
	}
}

// Byte-granularity takes: fractional token accounting must stay consistent.
func TestBucketByteRate(t *testing.T) {
	b := NewBucket(1000, 1000) // 1000 B/s
	start := time.Unix(0, 0)
	var admitted float64
	for i := 0; i < 5000; i++ {
		now := start.Add(time.Duration(i) * time.Millisecond)
		if b.Take(100, now) {
			admitted += 100
		}
	}
	if admitted > 1000*5+1000 {
		t.Fatalf("admitted %v bytes in 5s, want <= 6000", admitted)
	}
}

func TestQualifySplitRoundTrip(t *testing.T) {
	cases := []struct{ id, key string }{
		{"gold", "user/1"},
		{"bronze", "k:with:colons"},
		{DefaultID, "plain"},
		{"", "plain"},
	}
	for _, c := range cases {
		q := Qualify(c.id, c.key)
		id, key := Split(q)
		wantID := c.id
		if wantID == "" {
			wantID = DefaultID
		}
		if id != wantID || key != c.key {
			t.Fatalf("roundtrip(%q,%q) -> qualified %q -> (%q,%q)", c.id, c.key, q, id, key)
		}
	}
	// Default-tenant keys are stored bare: exact pre-tenancy encoding.
	if got := Qualify(DefaultID, "k1"); got != "k1" {
		t.Fatalf("default tenant key qualified to %q, want unchanged", got)
	}
	if got := Qualify("gold", "k1"); got != "tn:gold:k1" {
		t.Fatalf("Qualify(gold,k1) = %q, want tn:gold:k1", got)
	}
}
