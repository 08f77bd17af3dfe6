package wiera

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/simnet"
)

// eventualThreeSrc is the body of bench/policies/eventual3.pol (the
// benchmark's fabric_small_rw policy; bench/ is not importable from here).
const eventualThreeSrc = `
Wiera BenchEventualThree {
	Region1 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region3 = {name: LowLatencyInstance, region: eu-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		queue(what: insert.object, to: all_regions);
	}
}`

// TestNodeOpAllocBudget pins what one put and one get allocate on a node of
// a three-region eventual deployment with telemetry on: the policy engine,
// the flight record and the tier key must not bring back per-op maps, action
// calls or slice growth, and a closure handed to another goroutine must not
// capture a variable the op reassigns (that moves it to the heap on every
// call). The budgets are what the op allocates, with no slack: one more
// allocation is a regression to explain.
func TestNodeOpAllocBudget(t *testing.T) {
	const (
		putBudget = 7
		getBudget = 4
		runs      = 400
	)
	c := newCluster(t, simnet.USEast, simnet.USWest, simnet.EUWest)
	// Background work would be counted against the op: park the write-back
	// timer and the queue flusher for the length of the measurement.
	nodes := c.startSrc(t, "alloc", eventualThreeSrc, map[string]string{"t": "100h", "queueFlush": "100h"})
	if len(nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(nodes))
	}
	n := c.node(t, nodes[0].Name)
	ctx := context.Background()
	val := make([]byte, 128)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%04d", i)
		if _, err := n.Put(ctx, keys[i], val, nil); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	puts := testing.AllocsPerRun(runs, func() {
		if _, err := n.Put(ctx, keys[i%len(keys)], val, nil); err != nil {
			t.Error(err)
		}
		i++
	})
	gets := testing.AllocsPerRun(runs, func() {
		if _, _, err := n.Get(ctx, keys[i%len(keys)]); err != nil {
			t.Error(err)
		}
		i++
	})
	t.Logf("Node.Put %.1f allocs/op, Node.Get %.1f allocs/op", puts, gets)
	if puts > putBudget {
		t.Errorf("Node.Put allocates %.1f times per op, budget %d", puts, putBudget)
	}
	if gets > getBudget {
		t.Errorf("Node.Get allocates %.1f times per op, budget %d", gets, getBudget)
	}
}

// TestMultiPrimariesPutAllocBudget pins what one MultiPrimaries put
// allocates on a three-region deployment with telemetry on, counting
// everything the put sets off: the coord lock, the local store, the
// synchronous copy to both peers (whose handlers the fabric runs inline)
// and the asynchronous release. Latency is off, so no compressed background
// timer fires inside the measurement.
func TestMultiPrimariesPutAllocBudget(t *testing.T) {
	const (
		putBudget = 44 // measures 43; its parent, with a fresh goroutine per peer, 45
		runs      = 400
	)
	c := newClusterOn(t, zeroLatencyClock{}, simnet.USEast, simnet.USWest, simnet.EUWest)
	nodes := c.start(t, "allocmp", "MultiPrimariesConsistency", map[string]string{"t": "100h"})
	n := c.node(t, nodes[0].Name)
	ctx := context.Background()
	val := make([]byte, 4<<10)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%04d", i)
		if _, err := n.Put(ctx, keys[i], val, nil); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	puts := testing.AllocsPerRun(runs, func() {
		if _, err := n.Put(ctx, keys[i%len(keys)], val, nil); err != nil {
			t.Error(err)
		}
		i++
		// AllocsPerRun measures on one P, where the put's release waits in
		// the run queue behind the next put. Yield so it runs, and its
		// worker parks, within the op that started it: otherwise a run of
		// puts that never yields drains the warm pool, and how many fresh
		// goroutines it then starts depends on when the scheduler preempts.
		runtime.Gosched()
	})
	t.Logf("MultiPrimaries Node.Put %.1f allocs/op", puts)
	if puts > putBudget {
		t.Errorf("MultiPrimaries Node.Put allocates %.1f times per op, budget %d", puts, putBudget)
	}
}
