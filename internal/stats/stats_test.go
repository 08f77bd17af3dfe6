package stats

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * time.Millisecond)
	h.Record(20 * time.Millisecond)
	h.Record(30 * time.Millisecond)
	if got := h.Mean(); got != 20*time.Millisecond {
		t.Fatalf("Mean = %v, want 20ms", got)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{95, 95 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
		{1, 1 * time.Millisecond},
		{0, 1 * time.Millisecond},
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHistogramMinMax(t *testing.T) {
	h := NewHistogram()
	h.Record(5 * time.Millisecond)
	h.Record(1 * time.Millisecond)
	h.Record(9 * time.Millisecond)
	if h.Min() != time.Millisecond || h.Max() != 9*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
}

func TestHistogramRecordAfterPercentile(t *testing.T) {
	h := NewHistogram()
	h.Record(2 * time.Millisecond)
	_ = h.Percentile(50) // forces sort
	h.Record(1 * time.Millisecond)
	if got := h.Min(); got != time.Millisecond {
		t.Fatalf("Min after interleaved Record = %v", got)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	s := h.String()
	if !strings.Contains(s, "n=1") {
		t.Fatalf("String() = %q, want it to contain n=1", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Record(time.Duration(j) * time.Microsecond)
				_ = h.Percentile(99)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}

// Property: mean lies between min and max, and percentiles are monotone in p.
func TestHistogramProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Record(time.Duration(v) * time.Microsecond)
		}
		if h.Mean() < h.Min() || h.Mean() > h.Max() {
			return false
		}
		prev := time.Duration(-1)
		for p := 5.0; p <= 100; p += 5 {
			cur := h.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("Value = %d, want 16000", c.Value())
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("put-latency")
	if s.Name() != "put-latency" {
		t.Fatalf("Name = %q", s.Name())
	}
	base := time.Unix(0, 0)
	s.Append(base, 1)
	s.Append(base.Add(time.Second), 3)
	s.Append(base.Add(2*time.Second), 2)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.MaxValue() != 3 {
		t.Fatalf("MaxValue = %v", s.MaxValue())
	}
	pts := s.Points()
	if pts[1].Value != 3 || !pts[1].At.Equal(base.Add(time.Second)) {
		t.Fatalf("Points[1] = %+v", pts[1])
	}
	// Mutating the returned slice must not affect the series.
	pts[0].Value = 99
	if s.Points()[0].Value != 1 {
		t.Fatal("Points returned aliased storage")
	}
}

// TestSeriesKeepsMostRecent: past seriesCap points the series drops the
// oldest, and Points still returns what is left in arrival order.
func TestSeriesKeepsMostRecent(t *testing.T) {
	s := NewSeries("x")
	base := time.Unix(0, 0)
	const extra = seriesCap/2 + 3
	for i := 0; i < seriesCap+extra; i++ {
		s.Append(base.Add(time.Duration(i)*time.Millisecond), float64(i))
	}
	if s.Len() != seriesCap {
		t.Fatalf("Len = %d, want %d", s.Len(), seriesCap)
	}
	pts := s.Points()
	if len(pts) != seriesCap {
		t.Fatalf("len(Points) = %d, want %d", len(pts), seriesCap)
	}
	for i, p := range pts {
		want := extra + i
		if p.Value != float64(want) || !p.At.Equal(base.Add(time.Duration(want)*time.Millisecond)) {
			t.Fatalf("Points[%d] = %+v, want point %d", i, p, want)
		}
	}
	if got := s.MaxValue(); got != float64(seriesCap+extra-1) {
		t.Fatalf("MaxValue = %v", got)
	}
}

func TestSeriesEmptyMax(t *testing.T) {
	if NewSeries("x").MaxValue() != 0 {
		t.Fatal("empty series MaxValue != 0")
	}
}

func TestHistogramBoundedMemory(t *testing.T) {
	h := NewHistogram()
	const n = 4 * reservoirCap
	for i := 1; i <= n; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if got := len(h.Snapshot()); got > reservoirCap {
		t.Fatalf("reservoir holds %d samples, cap is %d", got, reservoirCap)
	}
	// Exact aggregates survive sampling.
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	if h.Min() != 1*time.Microsecond {
		t.Fatalf("Min = %v", h.Min())
	}
	if h.Max() != time.Duration(n)*time.Microsecond {
		t.Fatalf("Max = %v", h.Max())
	}
	wantMean := time.Duration(n) * time.Duration(n+1) / 2 * time.Microsecond / time.Duration(n)
	if h.Mean() != wantMean {
		t.Fatalf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	// Estimated interior percentiles stay close to the exact value: the
	// samples are uniform on (0, n] microseconds, so p50 should land near
	// n/2 within a few percent.
	p50 := h.Percentile(50)
	exact := time.Duration(n/2) * time.Microsecond
	diff := p50 - exact
	if diff < 0 {
		diff = -diff
	}
	if diff > exact/10 {
		t.Fatalf("p50 = %v, want within 10%% of %v", p50, exact)
	}
}
