package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/tier"
	"repro/internal/wiera"
)

// The ladder is the traced run. One client replays client 0's measured
// stream at successively deeper exported entry points — wiera.Client, then
// wiera.Node, then tiera.Instance, then a bare tier.Store — and every call
// is wrapped in a span recorded from the benchmark's side of the API.
//
// Every rung runs on a deployment of its own, set up exactly as a measured
// segment is (same preload through the clients, same warm-up), so all rungs
// start from the same state. They cannot share one deployment: a node's put
// cost grows with the number of puts it served in the last ten seconds (its
// latency monitor rescans that window on every put), so a rung replayed
// after another would be slower by the other's puts, not by the layers
// between them. The rungs are separate replays; a span's parent is the same
// operation's span one rung up, and a layer's self time is its rung minus
// the rungs and side spans it contains.

// Span is one timed call: {name, op_id, parent, start, end}.
type Span struct {
	Name   string `json:"name"`
	Op     int    `json:"op_id"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start"` // unix ns
	End    int64  `json:"end"`
}

// Level is one rung: per-operation start and duration in replay order, and
// allocations per call from a single-goroutine MemStats bracket.
type Level struct {
	Start     []int64
	Dur       []int64
	PutAllocs float64
	GetAllocs float64
}

// Rungs served by a deployment's own process (Target.Ladder).
const (
	RungNode  = "node"
	RungTiera = "tiera"
)

// LadderRequest names a rung and the operations to replay: the stack
// regenerates client 0's stream from the seed and replays [From, To).
type LadderRequest struct {
	Rung      string
	Seed      int64
	PerClient int
	From, To  int
}

// LadderReply is one rung plus the spans that need that rung's live stack.
type LadderReply struct {
	Level Level
	// LocalBytes is the payload size the node hands its local instance for
	// one put: the value itself, or the fragment bundle under EC.
	LocalBytes int
	// Node rung: Node.FlushQueue over a known number of queued updates.
	FlushUsPerUpdate float64
	FlushedUpdates   int
	// Tiera rung: a put on a key with 1000 prior versions.
	DeepPutUs float64
}

type callFuncs struct {
	put func(ctx context.Context, key string, val []byte) error
	get func(ctx context.Context, key string) ([]byte, error)
}

// allocOpsFor bounds the pre-built values of an allocation bracket to 16 MiB.
func allocOpsFor(valueSize int) int {
	return min(500, (16<<20)/valueSize)
}

// replay times operations [from, to) of ops through f, then brackets up to
// allocOpsFor puts and gets each with MemStats to count allocations per
// call. verify checks returned values (only where the rung returns whole
// values).
func replay(ops Ops, from, to int, kt KeyTable, gen *ValueGen, client uint32, verify bool, f callFuncs) (Level, error) {
	ctx := context.Background()
	n := to - from
	lv := Level{Start: make([]int64, n), Dur: make([]int64, n)}
	var seq uint64
	for i := 0; i < n; i++ {
		k := ops.Key[from+i]
		if ops.Put[from+i] {
			seq++
			val := gen.Make(kt.Hash[k], client, seq)
			t0 := time.Now()
			err := f.put(ctx, kt.Name[k], val)
			lv.Dur[i] = int64(time.Since(t0))
			lv.Start[i] = t0.UnixNano()
			if err != nil {
				return lv, fmt.Errorf("ladder put %s: %w", kt.Name[k], err)
			}
			continue
		}
		t0 := time.Now()
		data, err := f.get(ctx, kt.Name[k])
		lv.Dur[i] = int64(time.Since(t0))
		lv.Start[i] = t0.UnixNano()
		if err != nil {
			return lv, fmt.Errorf("ladder get %s: %w", kt.Name[k], err)
		}
		if verify {
			if _, ok := CheckValue(data, kt.Hash[k]); !ok {
				return lv, fmt.Errorf("ladder get %s: value failed verification", kt.Name[k])
			}
		}
	}

	limit := allocOpsFor(gen.Size())
	var putKeys, getKeys []int32
	for i := from; i < to && (len(putKeys) < limit || len(getKeys) < limit); i++ {
		if ops.Put[i] && len(putKeys) < limit {
			putKeys = append(putKeys, ops.Key[i])
		} else if !ops.Put[i] && len(getKeys) < limit {
			getKeys = append(getKeys, ops.Key[i])
		}
	}
	vals := make([][]byte, len(putKeys))
	for i, k := range putKeys {
		seq++
		vals[i] = gen.Make(kt.Hash[k], client, seq)
	}
	var err error
	lv.PutAllocs = allocsPerCall(len(putKeys), func(i int) {
		if e := f.put(ctx, kt.Name[putKeys[i]], vals[i]); e != nil {
			err = e
		}
	})
	lv.GetAllocs = allocsPerCall(len(getKeys), func(i int) {
		if _, e := f.get(ctx, kt.Name[getKeys[i]]); e != nil {
			err = e
		}
	})
	return lv, err
}

func allocsPerCall(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// Ladder replays one rung on this stack, at the node client 0 routes to:
// wiera.Node followed by the queue-flush span, or tiera.Instance followed
// by the deep-chain put.
func (s *Stack) Ladder(req LadderRequest) (*LadderReply, error) {
	ops := GenOps(s.Spec, req.Seed, req.PerClient)[0]
	kt := NewKeyTable(s.Spec.Keys)
	node := s.Nodes[0]
	local := node.Local()
	reply := &LadderReply{LocalBytes: s.Spec.ValueSize}
	if m, err := local.Objects().Latest(kt.Name[0]); err == nil {
		reply.LocalBytes = int(m.StoredBytes())
	}
	var err error
	switch req.Rung {
	case RungNode:
		gen := NewValueGen(req.Seed, s.Spec.ValueSize)
		reply.Level, err = replay(ops, req.From, req.To, kt, gen, 101, true, callFuncs{
			put: func(ctx context.Context, key string, val []byte) error {
				_, err := node.Put(ctx, key, val, nil)
				return err
			},
			get: func(ctx context.Context, key string) ([]byte, error) {
				data, _, err := node.Get(ctx, key)
				return data, err
			},
		})
		if err == nil {
			reply.FlushUsPerUpdate, reply.FlushedUpdates = flushSpan(node, kt, gen)
		}
	case RungTiera:
		// Below the node the payload is whatever the node stores locally, and
		// a local get returns that (a fragment bundle under EC): no verify.
		gen := NewValueGen(req.Seed, max(reply.LocalBytes, valueHeader))
		reply.Level, err = replay(ops, req.From, req.To, kt, gen, 102, false, callFuncs{
			put: func(ctx context.Context, key string, val []byte) error {
				_, err := local.Put(ctx, key, val)
				return err
			},
			get: func(ctx context.Context, key string) ([]byte, error) {
				data, _, err := local.Get(ctx, key)
				return data, err
			},
		})
		if err != nil {
			break
		}
		// History-dependent put cost: a key with 1000 prior versions.
		ctx := context.Background()
		deep := gen.Make(0, 103, 0)
		durs := make([]int64, 0, 200)
		for i := 0; i < 1000+cap(durs) && err == nil; i++ {
			t0 := time.Now()
			_, err = local.Put(ctx, "ladder-deep", deep)
			if i >= 1000 {
				durs = append(durs, int64(time.Since(t0)))
			}
		}
		reply.DeepPutUs = medianUs(durs)
	default:
		err = fmt.Errorf("bench: unknown ladder rung %q", req.Rung)
	}
	if err != nil {
		return nil, err
	}
	return reply, nil
}

// flushSpan times Node.FlushQueue over a known number of queued updates:
// it queues puts on distinct keys and divides the flush time by the depth
// read just before the flush (the background flusher may take a share).
// Policies that never queue report zero.
func flushSpan(node *wiera.Node, kt KeyTable, gen *ValueGen) (usPerUpdate float64, updates int) {
	ctx := context.Background()
	n := min(256, len(kt.Name))
	var per []float64
	for round := 0; round < 5; round++ {
		node.FlushQueue()
		for i := 0; i < n; i++ {
			if _, err := node.Put(ctx, kt.Name[i], gen.Make(kt.Hash[i], 104, uint64(round*n+i)), nil); err != nil {
				return 0, 0
			}
		}
		depth := node.QueueDepth()
		t0 := time.Now()
		node.FlushQueue()
		d := time.Since(t0)
		if depth == 0 {
			if round == 0 {
				break // this policy does not queue: nothing to time
			}
			continue // the background flusher got there first
		}
		per = append(per, float64(d.Microseconds())/float64(depth))
		updates += depth
	}
	if len(per) == 0 {
		return 0, 0
	}
	sort.Float64s(per)
	return per[len(per)/2], updates
}

// tierLevel is the bottom rung: a standalone tier.Store of the kind and
// size the workload's instances write to, preloaded with every key and
// driven with the local payload size, outside any stack.
func tierLevel(ops Ops, from, to int, kt KeyTable, localBytes int, seed int64) (Level, error) {
	st, err := tier.Standard("tier1", "memory", 5<<30, &Clock{})
	if err != nil {
		return Level{}, err
	}
	gen := NewValueGen(seed, max(localBytes, valueHeader))
	ctx := context.Background()
	for k, key := range kt.Name {
		if err := st.Put(ctx, key, gen.Make(kt.Hash[k], 105, 0)); err != nil {
			return Level{}, err
		}
	}
	// An instance stores every version under a key of its own; building
	// those keys here would bill the harness to the tier, so a put
	// overwrites its key instead.
	return replay(ops, from, to, kt, gen, 105, false, callFuncs{put: st.Put, get: st.Get})
}

// levelSpans turns a level into spans named <layer>.put / <layer>.get. Span
// ids are rung*stride+op, so the parent (the same op one rung up) is
// computable without a lookup.
func levelSpans(layer string, rung int, puts []bool, lv Level) []Span {
	const stride = 1 << 32
	spans := make([]Span, len(lv.Dur))
	for i := range lv.Dur {
		name := layer + ".get"
		if puts[i] {
			name = layer + ".put"
		}
		var parent int64
		if rung > 0 {
			parent = int64(rung-1)*stride + int64(i) + 1
		}
		spans[i] = Span{Name: name, Op: i, ID: int64(rung)*stride + int64(i) + 1, Parent: parent,
			Start: lv.Start[i], End: lv.Start[i] + lv.Dur[i]}
	}
	return spans
}

// split returns a level's put and get durations; puts[i] tells which the
// i-th replayed operation was.
func (lv Level) split(puts []bool) (put, get []int64) {
	for i, d := range lv.Dur {
		if puts[i] {
			put = append(put, d)
		} else {
			get = append(get, d)
		}
	}
	return put, get
}

func medianUs(durs []int64) float64 { return percentileUs(durs, 0.5) }

// percentileUs sorts a copy of durs (ns) and returns the p-quantile in µs.
func percentileUs(durs []int64, p float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	s := append([]int64(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[min(int(p*float64(len(s))), len(s)-1)]) / 1e3
}
