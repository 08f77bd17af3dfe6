package bench

import (
	_ "embed"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"

	"repro/internal/policy"
	"repro/internal/ycsb"
)

//go:embed policies/eventual3.pol
var eventualThreeSrc string

// Spec describes one workload. Every field is fixed: the same command on
// every commit runs the same number of the same operations. Why each
// workload exists is recorded in BENCHMARK.json and README.md.
type Spec struct {
	Name string

	// Policy is a builtin policy name, or "" for the bench-owned
	// three-region eventual policy.
	Policy string
	Params map[string]string

	ValueSize int
	Keys      int
	Zipf      bool    // ycsb zipfian theta 0.99, else uniform
	PutFrac   float64 // share of operations that are puts

	// OpsPerSecond freezes the op count: a run asked for s seconds issues
	// OpsPerSecond*s operations, however long they take. Calibrated once, on
	// the commit that added the benchmark, so that the measured work takes
	// about s seconds on the 2-core reference box.
	OpsPerSecond int

	TCP    bool // two OS processes over loopback TCP
	Strict bool // per-key linearizable: the audit checks real-time order
	// SingleWriter gives every key one writing client (key index mod
	// Clients); every client still reads every key.
	SingleWriter bool
}

// Clients is the client count: one in us-east and one in us-west, each with
// a stream of its own. They take turns, so one operation is in flight at a
// time (see run.issue).
const Clients = 2

// Specs lists the workloads in the order they run. Names are final.
var Specs = []Spec{
	{
		Name:      "fabric_small_rw",
		Params:    map[string]string{"t": "1h", "queueFlush": "100ms"},
		ValueSize: 128, Keys: 10000, Zipf: true, PutFrac: 0.5,
		OpsPerSecond: 36000,
		// Two regions that each write version n of a key, inside one flush
		// period, deliver to the third concurrently; ApplyRemote sets
		// metadata and payload in two steps, so now and then the third keeps
		// the winner's metadata over the loser's bytes (1 deployment in ~200
		// diverged for good). A benchmark workload must pass its audit.
		SingleWriter: true,
	},
	{
		Name:   "fabric_large_ec",
		Policy: "ECCostOptimized",
		Params: map[string]string{
			"t": "1h",
			// The chooser's heat gate keeps read objects replicated; switch
			// it off so every put takes the stripe path (ec.striped_frac=1).
			"ecHotGets": "1000000000",
			// A read repair that overtakes the asynchronous fragment pushes
			// installs the pusher's bundle on every member and leaves the key
			// unreadable ("only 2 of 6 fragments reachable") until its next
			// write; a benchmark workload must not contain failing operations.
			"antiEntropy": "false",
		},
		ValueSize: 128 << 10, Keys: 256, PutFrac: 0.2,
		OpsPerSecond: 1750,
		// Two regions striping the same key at the same moment corrupt it
		// (reads fail value verification).
		SingleWriter: true,
	},
	{
		Name:      "fabric_sync_put",
		Policy:    "MultiPrimariesConsistency",
		Params:    map[string]string{"t": "1h"},
		ValueSize: 4 << 10, Keys: 1000, PutFrac: 0.5,
		OpsPerSecond: 13000,
		Strict:       true,
	},
	{
		Name:   "tcp_read_heavy",
		Params: map[string]string{"t": "1h", "queueFlush": "100ms"},
		// 2 000 keys, not fabric_small_rw's 10 000: every segment preloads
		// them over TCP, one at a time.
		ValueSize: 4 << 10, Keys: 2000, Zipf: true, PutFrac: 0.05,
		OpsPerSecond: 9500,
		TCP:          true,
		SingleWriter: true, // same policy as fabric_small_rw, same reason
	},
}

// SpecByName finds a workload.
func SpecByName(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// PolicySource returns the workload's global policy text.
func (s Spec) PolicySource() (string, error) {
	if s.Policy == "" {
		return eventualThreeSrc, nil
	}
	return policy.BuiltinSource(s.Policy)
}

// Quick shrinks a spec so all four workloads and their ladders finish in
// a few seconds (the smoke test). Numbers from a quick run mean nothing.
func (s Spec) Quick() Spec {
	s.OpsPerSecond /= 40
	if s.Keys > 500 {
		s.Keys = 500
	}
	return s
}

// Ops is one client's operation stream, generated from the seed before any
// timer starts. Values are built from (key, client, sequence) on issue.
type Ops struct {
	Put []bool
	Key []int32
}

// Len is the number of operations in the stream.
func (o Ops) Len() int { return len(o.Key) }

// GenOps generates each client's stream of perClient operations.
func GenOps(spec Spec, seed int64, perClient int) []Ops {
	out := make([]Ops, Clients)
	for c := range out {
		cseed := seed*7919 + int64(c)*104729 + 1
		rng := rand.New(rand.NewSource(cseed))
		var next func() int
		if spec.Zipf {
			next = ycsb.NewZipfian(spec.Keys, ycsb.ZipfianConstant, cseed+1).Next
		} else {
			next = ycsb.NewUniform(spec.Keys, cseed+1).Next
		}
		ops := Ops{Put: make([]bool, perClient), Key: make([]int32, perClient)}
		for i := 0; i < perClient; i++ {
			ops.Put[i] = rng.Float64() < spec.PutFrac
			k := next()
			if k >= spec.Keys { // zipfian rounding at the tail
				k = spec.Keys - 1
			}
			if spec.SingleWriter && ops.Put[i] {
				k = min(k-k%Clients+c, spec.Keys-Clients+c)
			}
			ops.Key[i] = int32(k)
		}
		out[c] = ops
	}
	return out
}

// KeyTable holds the key strings and their hashes, index-aligned.
type KeyTable struct {
	Name []string
	Hash []uint64
}

// NewKeyTable builds the table for n keys.
func NewKeyTable(n int) KeyTable {
	t := KeyTable{Name: make([]string, n), Hash: make([]uint64, n)}
	for i := range t.Name {
		t.Name[i] = ycsb.Key(i)
		t.Hash[i] = keyHash(t.Name[i])
	}
	return t
}

func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// Values are self-describing: key hash, client id, per-client sequence and
// a CRC over an incompressible body, so any reader can tell a value that
// belongs to another key, a corrupt one, and which write produced it.
const valueHeader = 8 + 4 + 8 + 4

// ValueGen builds values from a seeded pool of random bytes.
type ValueGen struct {
	pool []byte
	size int
}

// NewValueGen returns a generator of size-byte values.
func NewValueGen(seed int64, size int) *ValueGen {
	if size < valueHeader {
		panic(fmt.Sprintf("bench: value size %d below header %d", size, valueHeader))
	}
	pool := make([]byte, size+(1<<16))
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(pool)
	return &ValueGen{pool: pool, size: size}
}

// Size is the length of every value the generator makes.
func (g *ValueGen) Size() int { return g.size }

// Make returns a fresh value for write seq of client to the key hashed h.
func (g *ValueGen) Make(h uint64, client uint32, seq uint64) []byte {
	v := make([]byte, g.size)
	off := int((seq*2654435761 + uint64(client)*40503) % (1 << 16))
	body := v[valueHeader:]
	copy(body, g.pool[off:])
	binary.LittleEndian.PutUint64(v[0:], h)
	binary.LittleEndian.PutUint32(v[8:], client)
	binary.LittleEndian.PutUint64(v[12:], seq)
	binary.LittleEndian.PutUint32(v[20:], crc32.ChecksumIEEE(body))
	return v
}

// Writer names the write that produced a value.
type Writer struct {
	Client uint32
	Seq    uint64
}

// CheckValue verifies that data is an intact value of the key hashed h and
// reports which write produced it.
func CheckValue(data []byte, h uint64) (Writer, bool) {
	if len(data) < valueHeader || binary.LittleEndian.Uint64(data) != h ||
		binary.LittleEndian.Uint32(data[20:]) != crc32.ChecksumIEEE(data[valueHeader:]) {
		return Writer{}, false
	}
	return Writer{
		Client: binary.LittleEndian.Uint32(data[8:]),
		Seq:    binary.LittleEndian.Uint64(data[12:]),
	}, true
}
