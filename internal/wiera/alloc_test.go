package wiera

import (
	"context"
	"fmt"
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
// calls or slice growth. The budgets are absolute; the parent of the change
// that introduced them measured about 32 per put and 7 per get.
func TestNodeOpAllocBudget(t *testing.T) {
	const (
		putBudget = 14
		getBudget = 6
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
