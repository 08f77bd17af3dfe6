// Package ring partitions the keyspace across shard groups with a
// consistent-hash ring of virtual nodes (Dynamo/Anna style). Each shard
// contributes Vnodes points to the ring, placed by FNV-64a with a 64-bit
// avalanche finisher; a key belongs to the shard owning the first point at
// or after the key's hash (wrapping). Ordering is fully deterministic —
// equal hashes (vanishingly rare) break ties by shard index — so every
// participant that holds the same Map computes the same owner for every
// key.
//
// A Map is the unit of distribution: the coordinator assigns each Map a
// monotonically increasing Epoch and pushes it to workers and clients.
// Ownership checks compare epochs, so a stale client is told exactly which
// epoch it is missing. The expected imbalance of a vnode ring is ~1/sqrt
// (Vnodes) per shard; the default of 192 points per shard keeps the worst
// shard within 10% of the mean for realistic pool sizes. Raise Vnodes if
// you run more than ~9 shards per region.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVnodes is the per-shard virtual node count used when a Map does
// not specify one. 192 keeps worst-case key imbalance under 10% for pools
// of up to 9 workers (see package comment).
const DefaultVnodes = 192

// Map is the authoritative shard layout of one Wiera instance at one
// epoch: which worker serves each shard in each region. Shard i's workers
// across all regions form one replication group — worker i in region A
// fans out to worker i in every other region. A one-shard map is the
// paper's layout, one node per region. The Map is gob-encodable and
// self-contained: routing and migration need no naming conventions.
type Map struct {
	// Epoch orders maps; higher wins. Assigned by the coordinator.
	Epoch int64
	// Vnodes is the per-shard virtual node count (0 = DefaultVnodes).
	Vnodes int
	// Workers maps region name -> worker endpoint names indexed by shard.
	// Every region lists the same number of workers.
	Workers map[string][]string
}

// Shards returns the shard count (workers per region).
func (m *Map) Shards() int {
	for _, ws := range m.Workers {
		return len(ws)
	}
	return 0
}

// Summary renders the map's shape in one line — the form event journals
// and health endpoints attribute ring changes with.
func (m *Map) Summary() string {
	return fmt.Sprintf("epoch %d: %d regions x %d shards (%d vnodes/shard)",
		m.Epoch, len(m.Workers), m.Shards(), m.VnodeCount())
}

// VnodeCount returns the effective per-shard virtual node count.
func (m *Map) VnodeCount() int {
	if m.Vnodes <= 0 {
		return DefaultVnodes
	}
	return m.Vnodes
}

// Regions returns the map's region names in sorted order.
func (m *Map) Regions() []string {
	out := make([]string, 0, len(m.Workers))
	for r := range m.Workers {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Validate checks structural invariants: at least one region, equal worker
// counts everywhere, and no empty worker names.
func (m *Map) Validate() error {
	if len(m.Workers) == 0 {
		return fmt.Errorf("ring: map has no regions")
	}
	n := -1
	for region, ws := range m.Workers {
		if n == -1 {
			n = len(ws)
		}
		if len(ws) != n {
			return fmt.Errorf("ring: region %q has %d workers, want %d", region, len(ws), n)
		}
		for i, w := range ws {
			if w == "" {
				return fmt.Errorf("ring: region %q shard %d has no worker", region, i)
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("ring: map has no shards")
	}
	return nil
}

// Clone returns a deep copy (safe to mutate independently).
func (m *Map) Clone() *Map {
	if m == nil {
		return nil
	}
	out := &Map{Epoch: m.Epoch, Vnodes: m.Vnodes, Workers: make(map[string][]string, len(m.Workers))}
	for r, ws := range m.Workers {
		out.Workers[r] = append([]string(nil), ws...)
	}
	return out
}

// ShardOf returns the shard index worker serves in region, or -1 when the
// worker is not a member (it is leaving or already gone).
func (m *Map) ShardOf(region, worker string) int {
	for i, w := range m.Workers[region] {
		if w == worker {
			return i
		}
	}
	return -1
}

// point is one virtual node on the ring.
type point struct {
	hash  uint64
	shard int
}

// Table is a Map with its ring points precomputed for O(log n) lookups.
// Tables are immutable after construction and safe for concurrent use.
type Table struct {
	m      *Map
	points []point
}

// NewTable builds the lookup table for m. The point set depends only on
// (Shards, Vnodes), so two Tables over maps with the same geometry agree
// on every key's shard regardless of worker names. A one-shard map gets no
// points: its one shard owns every key without a hash.
func NewTable(m *Map) *Table {
	shards := m.Shards()
	if shards < 2 {
		return &Table{m: m}
	}
	vnodes := m.VnodeCount()
	pts := make([]point, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, point{hash(fmt.Sprintf("shard-%d#%d", s, v)), s})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].shard < pts[j].shard
	})
	return &Table{m: m, points: pts}
}

// Map returns the table's underlying map.
func (t *Table) Map() *Map { return t.m }

// Epoch returns the table's map epoch.
func (t *Table) Epoch() int64 { return t.m.Epoch }

// Shards returns the shard count.
func (t *Table) Shards() int { return t.m.Shards() }

// Owner returns the shard index owning key. It allocates nothing: every
// operation of every instance asks it.
func (t *Table) Owner(key string) int {
	if len(t.points) == 0 {
		return 0
	}
	h := hash(key)
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].hash >= h })
	if i == len(t.points) {
		i = 0
	}
	return t.points[i].shard
}

// Worker returns the worker serving key in region ("" when the region is
// not in the map).
func (t *Table) Worker(region, key string) string {
	ws := t.m.Workers[region]
	if len(ws) == 0 {
		return ""
	}
	return ws[t.Owner(key)]
}

// WorkerForShard returns the worker serving shard in region ("" when
// unknown).
func (t *Table) WorkerForShard(region string, shard int) string {
	ws := t.m.Workers[region]
	if shard < 0 || shard >= len(ws) {
		return ""
	}
	return ws[shard]
}

// hash positions a label on the ring: FNV-64a spread by a 64-bit avalanche
// finisher (FNV alone clusters nearby inputs like "shard-0#1"/"shard-0#2").
func hash(s string) uint64 {
	f := fnv.New64a()
	_, _ = f.Write([]byte(s))
	return mix64(f.Sum64())
}

// mix64 is the MurmurHash3 64-bit finisher.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
