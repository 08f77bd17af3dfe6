// Package stats holds no code, only these tests. They pin what the workload
// clients and experiment harnesses read from a standalone
// telemetry.Histogram: exact count, mean, min and max, and percentiles that
// stay within one bucket width of nearest rank.
package stats

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/telemetry"
)

func TestHistogramEmpty(t *testing.T) {
	h := telemetry.NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramMean(t *testing.T) {
	h := telemetry.NewHistogram()
	h.Record(10 * time.Millisecond)
	h.Record(20 * time.Millisecond)
	h.Record(30 * time.Millisecond)
	if got := h.Mean(); got != 20*time.Millisecond {
		t.Fatalf("Mean = %v, want 20ms", got)
	}
}

// TestHistogramPercentiles records 1..100 ms and checks each percentile
// against its nearest rank, within the 1.25x bucket growth. p100 is the
// exact max.
func TestHistogramPercentiles(t *testing.T) {
	h := telemetry.NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{1, 1 * time.Millisecond},
		{50, 50 * time.Millisecond},
		{95, 95 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
	}
	for _, c := range cases {
		got := h.Percentile(c.p)
		if got < c.want*4/5 || got > c.want*5/4 {
			t.Errorf("Percentile(%v) = %v, want %v within 1.25x", c.p, got, c.want)
		}
	}
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("Percentile(100) = %v, want the exact max 100ms", got)
	}
}

func TestHistogramMinMax(t *testing.T) {
	h := telemetry.NewHistogram()
	h.Record(5 * time.Millisecond)
	h.Record(1 * time.Millisecond)
	h.Record(9 * time.Millisecond)
	if h.Min() != time.Millisecond || h.Max() != 9*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramReset(t *testing.T) {
	h := telemetry.NewHistogram()
	h.Record(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(99) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Record(time.Millisecond)
	if h.Min() != time.Millisecond || h.Max() != time.Millisecond {
		t.Fatalf("Min/Max after Reset and Record = %v/%v, want 1ms/1ms", h.Min(), h.Max())
	}
}

func TestHistogramRecordAfterPercentile(t *testing.T) {
	h := telemetry.NewHistogram()
	h.Record(2 * time.Millisecond)
	_ = h.Percentile(50)
	h.Record(1 * time.Millisecond)
	if got := h.Min(); got != time.Millisecond {
		t.Fatalf("Min after interleaved Record = %v", got)
	}
	if got := h.Percentile(0); got < time.Millisecond || got > time.Millisecond*5/4 {
		t.Fatalf("Percentile(0) after interleaved Record = %v, want 1ms within 1.25x", got)
	}
}

// TestHistogramConcurrent reads percentiles while other goroutines record,
// as a workload client's reporter does mid-run.
func TestHistogramConcurrent(t *testing.T) {
	h := telemetry.NewHistogram()
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
	if p := h.Percentile(99); p < h.Min() || p > h.Max() {
		t.Fatalf("p99 = %v outside [%v, %v]", p, h.Min(), h.Max())
	}
}

// Property: mean lies between min and max, and percentiles are monotone in
// p and lie between min and max.
func TestHistogramProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := telemetry.NewHistogram()
		for _, v := range raw {
			h.Record(time.Duration(v) * time.Microsecond)
		}
		if h.Mean() < h.Min() || h.Mean() > h.Max() {
			return false
		}
		prev := h.Min()
		for p := 5.0; p <= 100; p += 5 {
			cur := h.Percentile(p)
			if cur < prev || cur > h.Max() {
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
