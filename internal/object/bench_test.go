package object

import (
	"fmt"
	"testing"
	"time"
)

// benchKeys is how many keys the depth benchmarks spread over: few enough
// that a thousand versions of each stay a few tens of MiB.
const benchKeys = 128

// deepStore returns a store of benchKeys keys with the given number of
// versions each.
func deepStore(versions int) *Store {
	s := NewStore()
	now := time.Unix(0, 0)
	for i := 0; i < benchKeys; i++ {
		key := fmt.Sprintf("key-%d", i)
		for v := 0; v < versions; v++ {
			s.Put(key, 64, "tier1", "o", nil, now)
		}
	}
	return s
}

// BenchmarkStorePut: ns/op must not depend on how many versions the key
// already has.
func BenchmarkStorePut(b *testing.B) {
	for _, versions := range []int{1, 1000} {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			s := deepStore(versions)
			now := time.Unix(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Put(fmt.Sprintf("key-%d", i%benchKeys), 4096, "tier1", "origin", nil, now)
			}
		})
	}
}

func BenchmarkStoreApplyLWW(b *testing.B) {
	s := NewStore()
	base := time.Unix(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Apply(Meta{
			Key: fmt.Sprintf("key-%d", i%512), Version: Version(i%8 + 1),
			Origin: "remote", ModifiedAt: base.Add(time.Duration(i) * time.Microsecond),
		})
	}
}

// BenchmarkStoreLatest: ns/op must not depend on how many versions the key
// has.
func BenchmarkStoreLatest(b *testing.B) {
	for _, versions := range []int{1, 1000} {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			s := deepStore(versions)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Latest(fmt.Sprintf("key-%d", i%benchKeys)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
