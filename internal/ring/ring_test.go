package ring

import (
	"fmt"
	"testing"
)

func mapFor(shards int) *Map {
	m := &Map{Epoch: 1, Workers: map[string][]string{"us-east": nil}}
	for i := 0; i < shards; i++ {
		m.Workers["us-east"] = append(m.Workers["us-east"], fmt.Sprintf("inst/us-east/w%d", i))
	}
	return m
}

func keyCounts(t *Table, total int) []int {
	counts := make([]int, t.Shards())
	for i := 0; i < total; i++ {
		counts[t.Owner(fmt.Sprintf("user%08d", i))]++
	}
	return counts
}

// TestBalance: every shard's key share stays within 10% of the mean at the
// default vnode count (>= 128), for realistic pool sizes.
func TestBalance(t *testing.T) {
	if DefaultVnodes < 128 {
		t.Fatalf("default vnodes %d < 128", DefaultVnodes)
	}
	const total = 20000
	for _, shards := range []int{2, 3, 4, 5, 6, 7, 8} {
		counts := keyCounts(NewTable(mapFor(shards)), total)
		mean := float64(total) / float64(shards)
		for s, c := range counts {
			dev := (float64(c) - mean) / mean
			if dev < 0 {
				dev = -dev
			}
			if dev > 0.10 {
				t.Errorf("shards=%d: shard %d holds %d keys, %.1f%% from mean %f",
					shards, s, c, dev*100, mean)
			}
		}
	}
}

// TestMinimalMovement: a single worker join or leave remaps at most 1/N of
// the keys (N = the smaller pool size; the ideal is 1/(N+1) on join).
func TestMinimalMovement(t *testing.T) {
	const total = 20000
	cases := [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 4}, {8, 9}, {9, 8}}
	for _, c := range cases {
		before, after := NewTable(mapFor(c[0])), NewTable(mapFor(c[1]))
		moved := 0
		for i := 0; i < total; i++ {
			key := fmt.Sprintf("user%08d", i)
			if before.Owner(key) != after.Owner(key) {
				moved++
			}
		}
		minN := c[0]
		if c[1] < minN {
			minN = c[1]
		}
		bound := total / minN
		if moved > bound {
			t.Errorf("%d->%d shards: %d/%d keys moved, bound %d (1/%d)",
				c[0], c[1], moved, total, bound, minN)
		}
		// Join must only move keys onto the new shard; leave only off the
		// removed one.
		if c[1] > c[0] {
			for i := 0; i < total; i++ {
				key := fmt.Sprintf("user%08d", i)
				if b, a := before.Owner(key), after.Owner(key); b != a && a != c[1]-1 {
					t.Fatalf("join moved key %s from shard %d to existing shard %d", key, b, a)
				}
			}
		}
	}
}

// TestDeterminism: identical maps produce identical tables, and worker
// names don't influence placement (only geometry does).
func TestDeterminism(t *testing.T) {
	a, b := NewTable(mapFor(4)), NewTable(mapFor(4))
	renamed := mapFor(4)
	renamed.Workers["us-east"][2] = "other/name#2"
	c := NewTable(renamed)
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("k-%d", i*7919)
		if a.Owner(key) != b.Owner(key) || a.Owner(key) != c.Owner(key) {
			t.Fatalf("owner of %q diverged: %d %d %d", key, a.Owner(key), b.Owner(key), c.Owner(key))
		}
	}
}

func TestMapHelpers(t *testing.T) {
	m := &Map{Epoch: 7, Workers: map[string][]string{
		"us-east": {"i/us-east/w0", "i/us-east/w1"},
		"us-west": {"i/us-west/w0", "i/us-west/w1"},
	}}
	if err := m.Validate(); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	if m.Shards() != 2 {
		t.Fatalf("shards = %d, want 2", m.Shards())
	}
	if got := m.ShardOf("us-west", "i/us-west/w1"); got != 1 {
		t.Fatalf("ShardOf = %d, want 1", got)
	}
	if got := m.ShardOf("us-west", "nope"); got != -1 {
		t.Fatalf("ShardOf unknown = %d, want -1", got)
	}
	cl := m.Clone()
	cl.Workers["us-east"][0] = "mutated"
	if m.Workers["us-east"][0] == "mutated" {
		t.Fatal("Clone shares worker slices")
	}
	tb := NewTable(m)
	for _, key := range []string{"a", "b", "user00000042"} {
		shard := tb.Owner(key)
		if w := tb.Worker("us-east", key); w != m.Workers["us-east"][shard] {
			t.Fatalf("Worker(us-east, %q) = %q, want shard %d's worker", key, w, shard)
		}
		if w := tb.WorkerForShard("us-west", shard); w != m.Workers["us-west"][shard] {
			t.Fatalf("WorkerForShard = %q", w)
		}
	}
	if tb.Worker("eu-west", "a") != "" {
		t.Fatal("unknown region should yield empty worker")
	}

	bad := &Map{Workers: map[string][]string{"us-east": {"a"}, "us-west": {"a", "b"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("uneven map validated")
	}
	if err := (&Map{}).Validate(); err == nil {
		t.Fatal("empty map validated")
	}
}

// TestOwnerAllocBudget pins Owner at zero allocations, on the one-shard
// table every unsharded deployment routes through and on a sharded one.
func TestOwnerAllocBudget(t *testing.T) {
	for _, shards := range []int{1, 3} {
		tb := NewTable(mapFor(shards))
		key := "user00000042"
		if got := testing.AllocsPerRun(1000, func() { _ = tb.Owner(key) }); got != 0 {
			t.Errorf("Owner on a %d-shard table allocates %.1f times per call, want 0", shards, got)
		}
	}
}
