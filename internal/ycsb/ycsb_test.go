package ycsb

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// mapStore is an in-memory Store for generator tests.
type mapStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	fail bool
}

func newMapStore() *mapStore { return &mapStore{m: map[string][]byte{}} }

func (s *mapStore) Put(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return errors.New("store down")
	}
	s.m[key] = append([]byte(nil), value...)
	return nil
}

func (s *mapStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return nil, errors.New("store down")
	}
	v, ok := s.m[key]
	if !ok {
		return nil, fmt.Errorf("no key %s", key)
	}
	return v, nil
}

func TestStandardWorkloadsValid(t *testing.T) {
	for _, w := range []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadF} {
		if err := w.Validate(); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Workload{
		{Name: "x", ReadProp: 0.5, Distribution: "zipfian", RecordCount: 10}, // sums to 0.5
		{Name: "x", ReadProp: 1, Distribution: "pareto", RecordCount: 10},    // unknown dist
		{Name: "x", ReadProp: 1, Distribution: "zipfian", RecordCount: 0},    // no records
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestUniformInRange(t *testing.T) {
	u := NewUniform(100, 1)
	for i := 0; i < 10000; i++ {
		k := u.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("out of range: %d", k)
		}
	}
}

// Zipfian property: rank 0 must be the most frequent, and frequency must
// broadly decrease with rank (monotone over rank buckets).
func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(1000, ZipfianConstant, 42)
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		k := z.Next()
		if k < 0 || k >= 1000 {
			t.Fatalf("out of range: %d", k)
		}
		counts[k]++
	}
	max := 0
	for i, c := range counts {
		if c > counts[max] {
			max = i
		}
		_ = c
	}
	if max != 0 {
		t.Fatalf("hottest rank = %d, want 0", max)
	}
	// The head must dominate: the top 10% of keys get well over half the
	// accesses under theta=0.99 (Facebook-like skew the paper cites).
	head := 0
	for _, c := range counts[:100] {
		head += c
	}
	if frac := float64(head) / 200000; frac < 0.5 {
		t.Fatalf("top-10%% keys got %.2f of accesses, want > 0.5", frac)
	}
	// Bucketed monotonicity.
	bucket := func(lo, hi int) int {
		s := 0
		for _, c := range counts[lo:hi] {
			s += c
		}
		return s
	}
	if !(bucket(0, 10) > bucket(10, 100) || bucket(0, 10) > bucket(100, 1000)) {
		t.Fatal("zipfian head does not dominate tails")
	}
}

func TestZipfianDeterministicWithSeed(t *testing.T) {
	a := NewZipfian(100, ZipfianConstant, 7)
	b := NewZipfian(100, ZipfianConstant, 7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("seeded zipfian diverged")
		}
	}
}

func TestLatestSkewsToNewest(t *testing.T) {
	l := NewLatest(1000, 3)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		k := l.Next()
		if k < 0 || k >= 1000 {
			t.Fatalf("out of range: %d", k)
		}
		counts[k]++
	}
	if counts[999] < counts[0] {
		t.Fatal("latest distribution does not favor the newest record")
	}
	// Growing shifts the head.
	l.Grow()
	seen1000 := false
	for i := 0; i < 10000; i++ {
		if l.Next() == 1000 {
			seen1000 = true
			break
		}
	}
	if !seen1000 {
		t.Fatal("grown record never chosen")
	}
}

func TestClientLoadAndRun(t *testing.T) {
	store := newMapStore()
	w := WorkloadA
	w.RecordCount = 50
	w.FieldLength = 16
	c, err := NewClient(w, store, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(); err != nil {
		t.Fatal(err)
	}
	if len(store.m) != 50 {
		t.Fatalf("loaded %d records", len(store.m))
	}
	ok := c.RunOps(500, nil)
	if ok != 500 {
		t.Fatalf("ok = %d, errors = %d", ok, c.Errors.Load())
	}
	reads := c.ReadLatency.Count()
	writes := c.WriteLatency.Count()
	if reads+writes != 500 {
		t.Fatalf("latency samples = %d + %d", reads, writes)
	}
	// Workload A: roughly half reads (within generous bounds).
	if reads < 175 || reads > 325 {
		t.Fatalf("reads = %d, want ~250", reads)
	}
}

func TestClientInsertWorkload(t *testing.T) {
	store := newMapStore()
	w := WorkloadD
	w.RecordCount = 20
	w.FieldLength = 8
	c, err := NewClient(w, store, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(); err != nil {
		t.Fatal(err)
	}
	c.RunOps(2000, nil)
	if len(store.m) <= 20 {
		t.Fatal("inserts never grew the keyspace")
	}
	if _, ok := store.m[Key(20)]; !ok {
		t.Fatal("first inserted key missing")
	}
}

func TestClientRMWWorkload(t *testing.T) {
	store := newMapStore()
	w := WorkloadF
	w.RecordCount = 10
	w.FieldLength = 8
	c, err := NewClient(w, store, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Load()
	ok := c.RunOps(200, nil)
	if ok != 200 {
		t.Fatalf("ok = %d", ok)
	}
}

func TestClientErrors(t *testing.T) {
	store := newMapStore()
	w := WorkloadC
	w.RecordCount = 5
	c, _ := NewClient(w, store, 4)
	c.Load()
	store.fail = true
	ok := c.RunOps(10, nil)
	if ok != 0 || c.Errors.Load() != 10 {
		t.Fatalf("ok = %d, errors = %d", ok, c.Errors.Load())
	}
}

func TestNewClientRejectsBadWorkload(t *testing.T) {
	if _, err := NewClient(Workload{Name: "bad", Distribution: "zipfian", RecordCount: 1}, newMapStore(), 1); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestUniformDistributionClient(t *testing.T) {
	w := WorkloadC
	w.Distribution = "uniform"
	w.RecordCount = 10
	c, err := NewClient(w, newMapStore(), 5)
	if err != nil {
		t.Fatal(err)
	}
	c.Load()
	if ok := c.RunOps(50, nil); ok != 50 {
		t.Fatal("uniform client failed")
	}
}

func TestKeyFormat(t *testing.T) {
	if Key(7) != "user00000007" {
		t.Fatalf("Key = %q", Key(7))
	}
	keys := []string{Key(2), Key(10), Key(1)}
	sort.Strings(keys)
	if keys[0] != Key(1) || keys[2] != Key(10) {
		t.Fatal("keys do not sort numerically")
	}
}

func TestOpKindString(t *testing.T) {
	for _, k := range []OpKind{OpRead, OpUpdate, OpInsert, OpReadModifyWrite, OpKind(9)} {
		if k.String() == "" {
			t.Fatal("empty op name")
		}
	}
}

// Property: op mix frequencies converge to the configured proportions.
func TestOpMixProperty(t *testing.T) {
	f := func(seed int64) bool {
		store := newMapStore()
		w := WorkloadB // 95/5
		w.RecordCount = 10
		w.FieldLength = 4
		c, err := NewClient(w, store, seed)
		if err != nil {
			return false
		}
		c.Load()
		c.RunOps(2000, nil)
		reads := float64(c.ReadLatency.Count())
		frac := reads / 2000
		return frac > 0.90 && frac < 0.99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
