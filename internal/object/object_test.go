package object

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2016, 5, 31, 0, 0, 0, 0, time.UTC)

func TestPutAssignsIncreasingVersions(t *testing.T) {
	s := NewStore()
	m1 := s.Put("k", 10, "mem", "us-east", nil, t0)
	m2 := s.Put("k", 20, "mem", "us-east", nil, t0.Add(time.Second))
	if m1.Version != 1 || m2.Version != 2 {
		t.Fatalf("versions = %d, %d", m1.Version, m2.Version)
	}
	l, err := s.Latest("k")
	if err != nil {
		t.Fatal(err)
	}
	if l.Version != 2 || l.Size != 20 {
		t.Fatalf("Latest = %+v", l)
	}
}

func TestLatestMissing(t *testing.T) {
	s := NewStore()
	_, err := s.Latest("nope")
	var nf ErrNotFound
	if !errors.As(err, &nf) || nf.Key != "nope" {
		t.Fatalf("err = %v", err)
	}
}

func TestGetVersion(t *testing.T) {
	s := NewStore()
	s.Put("k", 10, "mem", "a", nil, t0)
	s.Put("k", 20, "mem", "a", nil, t0)
	m, err := s.GetVersion("k", 1)
	if err != nil || m.Size != 10 {
		t.Fatalf("GetVersion(1) = %+v, %v", m, err)
	}
	if _, err := s.GetVersion("k", 5); err == nil {
		t.Fatal("missing version should error")
	}
	if _, err := s.GetVersion("other", 1); err == nil {
		t.Fatal("missing key should error")
	}
}

func TestVersionList(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		s.Put("k", int64(i), "mem", "a", nil, t0)
	}
	vs, err := s.VersionList("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 5 {
		t.Fatalf("len = %d", len(vs))
	}
	for i, v := range vs {
		if v != Version(i+1) {
			t.Fatalf("VersionList = %v", vs)
		}
	}
	if _, err := s.VersionList("none"); err == nil {
		t.Fatal("want error for missing key")
	}
}

func TestRemove(t *testing.T) {
	s := NewStore()
	s.Put("k", 1, "mem", "a", nil, t0)
	if err := s.Remove("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Latest("k"); err == nil {
		t.Fatal("key should be gone")
	}
	if err := s.Remove("k"); err == nil {
		t.Fatal("double remove should error")
	}
}

func TestRemoveVersion(t *testing.T) {
	s := NewStore()
	s.Put("k", 1, "mem", "a", nil, t0)
	s.Put("k", 2, "mem", "a", nil, t0)
	if err := s.RemoveVersion("k", 2); err != nil {
		t.Fatal(err)
	}
	l, _ := s.Latest("k")
	if l.Version != 1 {
		t.Fatalf("Latest after removing v2 = %d", l.Version)
	}
	if err := s.RemoveVersion("k", 2); err == nil {
		t.Fatal("removing missing version should error")
	}
	// Removing the last version drops the key entirely.
	if err := s.RemoveVersion("k", 1); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatal("key should be gone after last version removed")
	}
	if err := s.RemoveVersion("k", 1); err == nil {
		t.Fatal("want error for missing key")
	}
}

func TestTouch(t *testing.T) {
	s := NewStore()
	s.Put("k", 1, "mem", "a", nil, t0)
	later := t0.Add(time.Hour)
	s.Touch("k", 1, later)
	s.Touch("k", 1, later.Add(time.Hour))
	m, _ := s.GetVersion("k", 1)
	if m.AccessCnt != 2 {
		t.Fatalf("AccessCnt = %d", m.AccessCnt)
	}
	if !m.AccessedAt.Equal(later.Add(time.Hour)) {
		t.Fatalf("AccessedAt = %v", m.AccessedAt)
	}
	s.Touch("missing", 1, later) // must not panic
}

func TestSetDirtyAndTier(t *testing.T) {
	s := NewStore()
	s.Put("k", 1, "mem", "a", nil, t0)
	if err := s.SetDirty("k", 1, true); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTier("k", 1, "ebs"); err != nil {
		t.Fatal(err)
	}
	m, _ := s.GetVersion("k", 1)
	if !m.Dirty || m.TierName != "ebs" {
		t.Fatalf("meta = %+v", m)
	}
	if err := s.SetDirty("x", 1, true); err == nil {
		t.Fatal("want error")
	}
	if err := s.SetTier("k", 9, "ebs"); err == nil {
		t.Fatal("want error")
	}
	if err := s.SetDirty("k", 9, true); err == nil {
		t.Fatal("want error for missing version")
	}
	if err := s.SetTier("x", 1, "ebs"); err == nil {
		t.Fatal("want error for missing key")
	}
}

func TestTags(t *testing.T) {
	s := NewStore()
	m := s.Put("k", 1, "mem", "a", []string{"tmp", "log"}, t0)
	if !m.HasTag("tmp") || !m.HasTag("log") || m.HasTag("hot") {
		t.Fatalf("tags = %v", m.Tags)
	}
}

func TestMetaCloneIndependence(t *testing.T) {
	s := NewStore()
	m := s.Put("k", 1, "mem", "a", []string{"x"}, t0)
	m.Tags[0] = "mutated"
	fresh, _ := s.Latest("k")
	if fresh.Tags[0] != "x" {
		t.Fatal("returned Meta aliases internal tags")
	}
}

func TestNewerLWWRules(t *testing.T) {
	base := Meta{Version: 3, ModifiedAt: t0, Origin: "a"}
	higher := Meta{Version: 4, ModifiedAt: t0.Add(-time.Hour), Origin: "a"}
	if !Newer(higher, base) {
		t.Fatal("higher version must win regardless of mtime")
	}
	newer := Meta{Version: 3, ModifiedAt: t0.Add(time.Second), Origin: "a"}
	if !Newer(newer, base) {
		t.Fatal("same version, later mtime must win")
	}
	tie := Meta{Version: 3, ModifiedAt: t0, Origin: "b"}
	if !Newer(tie, base) || Newer(base, tie) {
		t.Fatal("ties must break deterministically on origin")
	}
}

func TestApplyLWW(t *testing.T) {
	s := NewStore()
	s.Put("k", 1, "mem", "us-east", nil, t0)
	// Remote update with same version but later mtime wins.
	won := s.Apply(Meta{Key: "k", Version: 1, Size: 99, Origin: "eu-west", CreatedAt: t0, ModifiedAt: t0.Add(time.Second)})
	if !won {
		t.Fatal("later remote write should win")
	}
	m, _ := s.GetVersion("k", 1)
	if m.Size != 99 || m.Origin != "eu-west" {
		t.Fatalf("after apply = %+v", m)
	}
	// An older update must be rejected.
	if s.Apply(Meta{Key: "k", Version: 1, Size: 1, Origin: "ap", ModifiedAt: t0.Add(-time.Minute)}) {
		t.Fatal("older write must lose")
	}
	// A new version on a fresh key is always accepted.
	if !s.Apply(Meta{Key: "fresh", Version: 7, Origin: "x", ModifiedAt: t0}) {
		t.Fatal("fresh key apply should succeed")
	}
}

// Property: regardless of delivery order, two replicas applying the same
// set of updates converge to identical winners (LWW convergence).
func TestApplyConvergenceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		updates := make([]Meta, 0, 8)
		for i := 0; i < 8; i++ {
			updates = append(updates, Meta{
				Key:        "k",
				Version:    Version(1 + (int(seed)+i*3)%3),
				Size:       int64(i),
				Origin:     fmt.Sprintf("origin-%d", i%4),
				ModifiedAt: t0.Add(time.Duration((int(seed)*7+i*13)%5) * time.Second),
			})
		}
		a, b := NewStore(), NewStore()
		for _, u := range updates {
			a.Apply(u)
		}
		for i := len(updates) - 1; i >= 0; i-- { // reverse order
			b.Apply(updates[i])
		}
		for v := Version(1); v <= 3; v++ {
			ma, errA := a.GetVersion("k", v)
			mb, errB := b.GetVersion("k", v)
			if (errA == nil) != (errB == nil) {
				return false
			}
			if errA == nil && (ma.Size != mb.Size || ma.Origin != mb.Origin) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	s := NewStore()
	s.Put("a", 1, "mem", "x", nil, t0)
	s.Put("b", 2, "mem", "x", nil, t0)
	s.Put("b", 3, "mem", "x", nil, t0)
	count := 0
	s.Scan(func(m Meta) bool { count++; return true })
	if count != 3 {
		t.Fatalf("Scan visited %d metas, want 3", count)
	}
	// Early stop.
	count = 0
	s.Scan(func(m Meta) bool { count++; return false })
	if count != 1 {
		t.Fatalf("Scan with early stop visited %d", count)
	}
}

func TestKeysSorted(t *testing.T) {
	s := NewStore()
	s.Put("zebra", 1, "mem", "x", nil, t0)
	s.Put("alpha", 1, "mem", "x", nil, t0)
	ks := s.Keys()
	if len(ks) != 2 || ks[0] != "alpha" || ks[1] != "zebra" {
		t.Fatalf("Keys = %v", ks)
	}
}

func TestVersionKey(t *testing.T) {
	if got := VersionKey("photo.jpg", 3); got != "photo.jpg@v3" {
		t.Fatalf("VersionKey = %q", got)
	}
	// Byte-identical to the Sprintf form it replaced, at one allocation.
	keys := []string{"", "k", "photo.jpg", "a@v2", "@v", "tn:gold:k@v1@v1", strings.Repeat("x", 300)}
	versions := []Version{0, 1, 7, 1234567890, math.MaxInt64, -1, math.MinInt64}
	for _, k := range keys {
		for _, v := range versions {
			if got, want := VersionKey(k, v), fmt.Sprintf("%s@v%d", k, v); got != want {
				t.Errorf("VersionKey(%q, %d) = %q, want %q", k, v, got, want)
			}
		}
	}
	key, v := "photo.jpg", Version(41)
	if allocs := testing.AllocsPerRun(200, func() { sinkString = VersionKey(key, v) }); allocs > 1 {
		t.Errorf("VersionKey allocates %.0f times per call, want <= 1", allocs)
	}
}

var sinkString string

func TestErrNotFoundMessages(t *testing.T) {
	e1 := ErrNotFound{Key: "k"}
	e2 := ErrNotFound{Key: "k", Version: 2}
	if e1.Error() == e2.Error() {
		t.Fatal("messages should differ with/without version")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%4)
			for j := 0; j < 200; j++ {
				s.Put(key, int64(j), "mem", "a", nil, t0)
				_, _ = s.Latest(key)
				s.Touch(key, 1, t0)
				_ = s.Len()
			}
		}(i)
	}
	wg.Wait()
	// 2 goroutines per key, 200 puts each -> 400 versions.
	vs, err := s.VersionList("k0")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("no versions recorded")
	}
}

func TestVersionedObjectLatestEmpty(t *testing.T) {
	vo := NewVersionedObject("k")
	if vo.Latest() != nil {
		t.Fatal("empty object Latest should be nil")
	}
}

// TestLatestMatchesBruteForce mutates a few keys at random through every
// path that changes a version map and checks, after every step, that Latest
// and LatestVersion name the highest retained version (the last entry of
// the sorted VersionList, which does not use the maintained pointer) and
// return that version's current metadata.
func TestLatestMatchesBruteForce(t *testing.T) {
	keys := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		for step := 0; step < 3000; step++ {
			key := keys[rng.Intn(len(keys))]
			vs, _ := s.VersionList(key)
			switch op := rng.Intn(10); {
			case op < 3:
				s.Put(key, int64(step), "mem", "local", nil, t0)
			case op < 6:
				// Replica updates arrive out of order, and under LWW those
				// for a version already held win or lose on ModifiedAt.
				s.Apply(Meta{
					Key: key, Version: Version(1 + rng.Intn(12)), Size: int64(step),
					Origin: "remote", ModifiedAt: t0.Add(time.Duration(rng.Intn(5)) * time.Second),
				})
			case op < 8 && len(vs) > 0:
				// The highest version as often as any other.
				v := vs[len(vs)-1]
				if rng.Intn(2) == 0 {
					v = vs[rng.Intn(len(vs))]
				}
				if err := s.RemoveVersion(key, v); err != nil {
					t.Fatal(err)
				}
			case op == 8:
				_ = s.RemoveVersion(key, Version(100)) // never present
			case len(vs) > 0:
				if err := s.Remove(key); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range keys {
				vs, _ := s.VersionList(k)
				got, err := s.Latest(k)
				v, ok := s.LatestVersion(k)
				if len(vs) == 0 {
					if err == nil || ok {
						t.Fatalf("seed %d step %d: key %s has no versions, Latest = %+v, LatestVersion = %d", seed, step, k, got, v)
					}
					continue
				}
				want, _ := s.GetVersion(k, vs[len(vs)-1])
				if err != nil || !ok || v != want.Version || got.Version != want.Version ||
					got.Size != want.Size || got.Origin != want.Origin || !got.ModifiedAt.Equal(want.ModifiedAt) {
					t.Fatalf("seed %d step %d: key %s: Latest = %+v (%v), LatestVersion = %d, want %+v", seed, step, k, got, err, v, want)
				}
			}
		}
	}
}

// TestDeepKeyCostIndependentOfDepth is the quadratic-blow-up guard: 100 000
// puts to one key, then 100 000 reads of its latest version. Walking the
// version map on each needs 5e9 and 1e10 steps (tens of seconds); the
// bounds are coarse enough that only that can miss them.
func TestDeepKeyCostIndependentOfDepth(t *testing.T) {
	const n = 100000
	s := NewStore()
	start := time.Now()
	for i := 0; i < n; i++ {
		s.Put("k", 1, "mem", "o", nil, t0)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("%d puts to one key took %v", n, el)
	}
	start = time.Now()
	for i := 0; i < n; i++ {
		if v, ok := s.LatestVersion("k"); !ok || v != n {
			t.Fatalf("LatestVersion = %d, %v", v, ok)
		}
		if m, err := s.Latest("k"); err != nil || m.Version != n {
			t.Fatalf("Latest = %+v, %v", m, err)
		}
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("%d latest-version reads at depth %d took %v", n, n, el)
	}
}
