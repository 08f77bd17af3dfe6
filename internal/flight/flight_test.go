package flight

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// stepClock is a manual time source for deterministic durations.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func newStepClock() *stepClock {
	return &stepClock{now: time.Date(2016, 5, 31, 0, 0, 0, 0, time.UTC)}
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// record runs one request of the given duration through r.
func record(r *Recorder, clk *stepClock, op, key string, d time.Duration, err error) {
	a := r.Begin(op, key, "n1", "us-west", "P")
	clk.Advance(d)
	a.End(err)
}

func TestRecorderRingWrap(t *testing.T) {
	clk := newStepClock()
	r := NewRecorder(Config{Capacity: 4, Now: clk.Now})
	for i := 0; i < 10; i++ {
		record(r, clk, "get", fmt.Sprintf("k%d", i), time.Millisecond, nil)
	}
	recs := r.Recent(0)
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4", len(recs))
	}
	// Newest first: k9, k8, k7, k6.
	for i, want := range []string{"k9", "k8", "k7", "k6"} {
		if recs[i].Key != want {
			t.Fatalf("recs[%d].Key = %q, want %q", i, recs[i].Key, want)
		}
	}
	if seen, _ := r.Totals(); seen != 10 {
		t.Fatalf("seen = %d, want 10", seen)
	}
	// A bounded request works too.
	if got := r.Recent(2); len(got) != 2 || got[0].Key != "k9" || got[1].Key != "k8" {
		t.Fatalf("Recent(2) = %+v", got)
	}
}

func TestSlowlogThresholdsPerOp(t *testing.T) {
	clk := newStepClock()
	r := NewRecorder(Config{Now: clk.Now}) // defaults: put 800ms, get 400ms
	var hooked []Record
	r.OnSlow(func(rec Record) { hooked = append(hooked, rec) })

	record(r, clk, "put", "fast-put", 500*time.Millisecond, nil) // under put threshold
	record(r, clk, "get", "slow-get", 500*time.Millisecond, nil) // over get threshold
	record(r, clk, "put", "slow-put", time.Second, errors.New("boom"))

	slow := r.Slow(0)
	if len(slow) != 2 {
		t.Fatalf("slowlog has %d records, want 2: %+v", len(slow), slow)
	}
	if slow[0].Key != "slow-put" || slow[1].Key != "slow-get" {
		t.Fatalf("slowlog keys = %q, %q", slow[0].Key, slow[1].Key)
	}
	if !slow[0].Slow || slow[0].Err != "boom" {
		t.Fatalf("slow-put record = %+v", slow[0])
	}
	if _, slowSeen := r.Totals(); slowSeen != 2 {
		t.Fatalf("slowSeen = %d, want 2", slowSeen)
	}
	if len(hooked) != 2 {
		t.Fatalf("OnSlow fired %d times, want 2", len(hooked))
	}

	// Disabling the get threshold stops flagging.
	r.SetSlowThresholds(800*time.Millisecond, -1)
	record(r, clk, "get", "slow-get-2", time.Second, nil)
	if got := r.Slow(0); len(got) != 2 {
		t.Fatalf("disabled get threshold still flagged: %d records", len(got))
	}
}

func TestExpensiveRequests(t *testing.T) {
	clk := newStepClock()
	r := NewRecorder(Config{ExpensiveUSD: 0.01, Now: clk.Now})
	a := r.Begin("put", "pricey", "n1", "us-west", "P")
	a.AddHop(Hop{Kind: HopTier, Name: "t1", CostUSD: 0.004})
	a.AddHop(Hop{Kind: HopRPC, Name: "peer", CostUSD: 0.007})
	a.End(nil)
	record(r, clk, "put", "cheap", time.Millisecond, nil)

	slow := r.Slow(0)
	if len(slow) != 1 || slow[0].Key != "pricey" {
		t.Fatalf("slowlog = %+v, want just pricey", slow)
	}
	if !slow[0].Expensive || slow[0].Slow {
		t.Fatalf("pricey flags = %+v", slow[0])
	}
	if want := 0.011; slow[0].CostUSD < want-1e-9 || slow[0].CostUSD > want+1e-9 {
		t.Fatalf("CostUSD = %v, want %v", slow[0].CostUSD, want)
	}
}

func TestEndIdempotentAndLateHops(t *testing.T) {
	clk := newStepClock()
	r := NewRecorder(Config{Now: clk.Now})
	a := r.Begin("get", "k", "n1", "us-west", "P")
	a.AddHop(Hop{Kind: HopTier, Name: "t1", Duration: time.Millisecond})
	a.End(nil)
	a.End(errors.New("second call must not win"))
	a.AddHop(Hop{Kind: HopRPC, Name: "late"}) // after End: dropped
	if seen, _ := r.Totals(); seen != 1 {
		t.Fatalf("seen = %d, want 1 (End must be idempotent)", seen)
	}
	rec := r.Recent(0)[0]
	if rec.Err != "" || len(rec.Hops) != 1 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	a := r.Begin("put", "k", "n", "r", "p")
	if a != nil {
		t.Fatal("nil recorder must return nil active")
	}
	// All of these must be no-ops, not panics.
	a.AddHop(Hop{Kind: HopTier})
	a.AddCost(1)
	a.SetTraceID("x")
	a.End(nil)
	r.SetSlowThresholds(1, 1)
	r.SetExpensiveUSD(1)
	r.OnSlow(func(Record) {})
	if got := r.Recent(0); got != nil {
		t.Fatalf("nil recorder Recent = %v", got)
	}
	if got := r.Slow(0); got != nil {
		t.Fatalf("nil recorder Slow = %v", got)
	}
	if seen, slow := r.Totals(); seen != 0 || slow != 0 {
		t.Fatal("nil recorder totals non-zero")
	}
	if ctx := NewContext(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatal("nil active must not enter the context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must yield nil active")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // deliberate nil-ctx check
		t.Fatal("nil context must yield nil active")
	}
}

func TestContextRoundTrip(t *testing.T) {
	r := NewRecorder(Config{})
	a := r.Begin("put", "k", "n", "r", "p")
	ctx := NewContext(context.Background(), a)
	if FromContext(ctx) != a {
		t.Fatal("context did not carry the active record")
	}
}

func TestConcurrentHopsAndRequests(t *testing.T) {
	r := NewRecorder(Config{Capacity: 64})
	var wg sync.WaitGroup
	// Concurrent fan-out hops on one active record.
	a := r.Begin("put", "k", "n", "r", "p")
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				a.AddHop(Hop{Kind: HopRPC, Name: fmt.Sprintf("peer%d", i), CostUSD: 0.001})
			}
		}(i)
	}
	wg.Wait()
	a.End(nil)
	rec := r.Recent(1)[0]
	if len(rec.Hops) != 800 {
		t.Fatalf("hops = %d, want 800", len(rec.Hops))
	}
	if rec.CostUSD < 0.8-1e-9 || rec.CostUSD > 0.8+1e-9 {
		t.Fatalf("cost = %v, want 0.8", rec.CostUSD)
	}
	// Concurrent full requests (exercises ring filing under -race).
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				b := r.Begin("get", fmt.Sprintf("k%d-%d", g, j), "n", "r", "p")
				b.AddHop(Hop{Kind: HopTier, Name: "t1"})
				b.End(nil)
			}
		}(g)
	}
	wg.Wait()
	if seen, _ := r.Totals(); seen != 401 {
		t.Fatalf("seen = %d, want 401", seen)
	}
}

func TestDumpAndHandler(t *testing.T) {
	clk := newStepClock()
	r := NewRecorder(Config{Now: clk.Now})
	record(r, clk, "put", "fast", time.Millisecond, nil)
	record(r, clk, "put", "slow", time.Second, nil)

	d := Dump(r, true, 0)
	if d.TotalSeen != 2 || d.SlowSeen != 1 || len(d.Records) != 1 || d.Records[0].Key != "slow" {
		t.Fatalf("Dump(slow) = %+v", d)
	}
	if d = Dump(r, false, 0); len(d.Records) != 2 {
		t.Fatalf("Dump(all) returned %d records", len(d.Records))
	}

	// JSON endpoint.
	h := Handler(r)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/requests?slow=1", nil))
	if rw.Code != 200 {
		t.Fatalf("status = %d", rw.Code)
	}
	var resp DumpResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Records) != 1 || resp.Records[0].Key != "slow" {
		t.Fatalf("handler slow dump = %+v", resp)
	}

	// Text rendering.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/requests?format=text", nil))
	if !strings.Contains(rw.Body.String(), "SLOW") || !strings.Contains(rw.Body.String(), "fast") {
		t.Fatalf("text dump missing content:\n%s", rw.Body.String())
	}

	if txt := RenderRecords(d.Records); !strings.Contains(txt, "fast") {
		t.Fatalf("RenderRecords missing record:\n%s", txt)
	}
	withHops := []Record{{Op: "put", Key: "k", Total: time.Second, Hops: []Hop{
		{Kind: HopTier, Name: "t1", Duration: time.Millisecond, CostUSD: 0.001},
		{Kind: HopRPC, Name: "p1", Duration: 2 * time.Millisecond},
	}}}
	if txt := RenderHopSummary(withHops); !strings.Contains(txt, HopTier) || !strings.Contains(txt, HopRPC) {
		t.Fatalf("RenderHopSummary missing kinds:\n%s", txt)
	}
}

// TestInlineHops pins the hop storage: a request with a typical path (up to
// inlineHops hops) allocates the Active and nothing else, a longer path
// spills to the heap without losing or reordering a hop, and a filed
// record's hops are its own — late hops on the finished Active must not show
// through the array the record still slices.
func TestInlineHops(t *testing.T) {
	r := NewRecorder(Config{})
	allocs := testing.AllocsPerRun(200, func() {
		a := r.Begin("put", "k", "n", "r", "p")
		a.AddHop(Hop{Kind: HopLock, Name: "k"})
		a.AddHop(Hop{Kind: HopTier, Name: "tier1"})
		a.AddHop(Hop{Kind: HopRPC, Name: "peer"})
		a.End(nil)
	})
	if allocs > 1 {
		t.Errorf("Begin, 3 hops, End: %.0f allocs, want <= 1 (the Active)", allocs)
	}

	for _, hops := range []int{inlineHops - 1, inlineHops, inlineHops + 2} {
		a := r.Begin("get", fmt.Sprintf("k%d", hops), "n", "r", "p")
		for i := 0; i < hops; i++ {
			a.AddHop(Hop{Kind: HopRPC, Name: fmt.Sprintf("peer%d", i), CostUSD: 1})
		}
		a.End(nil)
		a.AddHop(Hop{Kind: HopRPC, Name: "late"})
		rec := r.Recent(1)[0]
		if len(rec.Hops) != hops || rec.CostUSD != float64(hops) {
			t.Fatalf("%d hops filed as %d (cost %v)", hops, len(rec.Hops), rec.CostUSD)
		}
		for i, h := range rec.Hops {
			if want := fmt.Sprintf("peer%d", i); h.Name != want {
				t.Fatalf("%d hops: hop %d is %q, want %q", hops, i, h.Name, want)
			}
		}
	}
}
