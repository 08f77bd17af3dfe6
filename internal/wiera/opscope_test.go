package wiera

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// TestOpScopeAccounting pins what surrounds every put and get — flight
// record, error budget, gate, scheduler slot, latency histogram — for each
// way an operation can leave the node, so no early return can leak a slot
// or skip the record's End.
func TestOpScopeAccounting(t *testing.T) {
	ctx := context.Background()
	val := []byte("value")
	ops := []struct {
		name    string
		fromApp bool
		get     bool
		hot     bool // served by the non-owner from its hot-replica cache
		run     func(n *Node, key string) error
	}{
		{name: "app put", fromApp: true, run: func(n *Node, key string) error {
			_, err := n.Put(ctx, key, val, nil)
			return err
		}},
		{name: "forwarded put", run: func(n *Node, key string) error {
			_, err := n.put(ctx, key, val, nil, false)
			return err
		}},
		{name: "get", fromApp: true, get: true, run: func(n *Node, key string) error {
			_, _, err := n.Get(ctx, key)
			return err
		}},
		{name: "hot-replica get", fromApp: true, get: true, hot: true, run: func(n *Node, key string) error {
			_, _, err := n.Get(ctx, key)
			return err
		}},
	}
	conds := []string{"ok", "quota", "wrong-shard", "gate killed"}

	for _, op := range ops {
		for _, cond := range conds {
			t.Run(op.name+"/"+cond, func(t *testing.T) {
				c, _ := heatCluster(t, "scope", 2, map[string]string{
					"tenants": "gold,bronze", "tenantSlots": "1",
					// Practically zero refill: once drained, every op NACKs.
					"tenantIOPS:bronze": "0.0001",
				})
				tid := "gold"
				if cond == "quota" {
					tid = "bronze"
				}
				key := tenant.Qualify(tid, "k")
				rm, err := c.server.Ring("scope")
				if err != nil {
					t.Fatal(err)
				}
				table := ring.NewTable(rm)
				shard := table.Owner(key)
				own := c.node(t, table.WorkerForShard(string(simnet.USWest), shard))
				other := c.node(t, table.WorkerForShard(string(simnet.USWest), 1-shard))

				// Seed the key at its owner; the hot rows serve it from the
				// other worker's cache.
				meta, err := own.put(ctx, key, val, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				n := own
				if op.hot {
					n = other
					n.heat.handleInstall(HotInstallMsg{Meta: meta, Data: val, Owner: own.name})
				}
				switch cond {
				case "quota":
					for n.tenants.admit(tid, 0) == nil {
					}
				case "wrong-shard":
					if op.hot {
						n.heat.handleDrop(key)
					} else {
						n = other
					}
				case "gate killed":
					n.gate.kill()
				}

				hist, errs := n.PutLatency, n.putErrors
				if op.get {
					hist, errs = n.GetLatency, n.getErrors
				}
				records := func() []flight.Record {
					var out []flight.Record
					for _, r := range c.fabric.Flight().Recent(0) {
						if r.Key == key && r.Node == n.name {
							out = append(out, r)
						}
					}
					return out
				}
				recBefore, histBefore, errsBefore := len(records()), hist.Count(), errs.Value()

				err = op.run(n, key)

				// Forwarded puts are never admitted against a quota.
				quotaNACK := cond == "quota" && op.fromApp
				switch {
				case cond == "ok" || (cond == "quota" && !op.fromApp):
					if err != nil {
						t.Fatalf("err = %v, want nil", err)
					}
				case quotaNACK:
					if qe := tenant.AsQuotaExceeded(err); qe == nil || qe.Tenant != tid {
						t.Fatalf("err = %v, want %s quota NACK", err, tid)
					}
				case cond == "wrong-shard":
					if AsWrongShard(err) == nil {
						t.Fatalf("err = %v, want wrong-shard NACK", err)
					}
				case cond == "gate killed":
					if !errors.Is(err, ErrChanging) {
						t.Fatalf("err = %v, want ErrChanging", err)
					}
				}

				// Only application ops open a flight record, and every opened
				// record ends carrying the op's error.
				recs := records()
				wantRecs := 0
				if op.fromApp {
					wantRecs = 1
				}
				if got := len(recs) - recBefore; got != wantRecs {
					t.Fatalf("flight records for %s on %s: %d new, want %d", key, n.name, got, wantRecs)
				}
				if op.fromApp {
					rec, wantOp, wantErr := recs[0], "put", ""
					if op.get {
						wantOp = "get"
					}
					if err != nil {
						wantErr = err.Error()
					}
					if rec.Op != wantOp || rec.Err != wantErr || rec.Tenant != tid {
						t.Fatalf("record = {op %q err %q tenant %q}, want {%q %q %q}",
							rec.Op, rec.Err, rec.Tenant, wantOp, wantErr, tid)
					}
					cacheHops := 0
					for _, h := range rec.Hops {
						if h.Kind == flight.HopCache && h.Name == "hot-replica" {
							cacheHops++
						}
					}
					if want := op.hot && err == nil; (cacheHops == 1) != want {
						t.Fatalf("hot-replica hops = %d (served from cache: %v)", cacheHops, want)
					}
				}

				// A quota NACK is admission working, not an availability event.
				wantErrs := int64(0)
				if op.fromApp && err != nil && !quotaNACK {
					wantErrs = 1
				}
				if got := errs.Value() - errsBefore; got != wantErrs {
					t.Fatalf("wiera_op_errors_total moved by %d, want %d", got, wantErrs)
				}
				wantHist := int64(0)
				if op.fromApp && err == nil {
					wantHist = 1
				}
				if got := hist.Count() - histBefore; got != wantHist {
					t.Fatalf("wiera_op_seconds count moved by %d, want %d", got, wantHist)
				}

				// Nothing stays held: the gate is empty and the scheduler's one
				// slot can be claimed at once.
				n.gate.mu.Lock()
				active := n.gate.active
				n.gate.mu.Unlock()
				if active != 0 {
					t.Fatalf("gate active = %d after the op returned", active)
				}
				granted := make(chan error, 1)
				go func() { granted <- n.tenants.sched.Acquire(tid) }()
				select {
				case err := <-granted:
					if err != nil {
						t.Fatal(err)
					}
					n.tenants.sched.Release()
				case <-time.After(5 * time.Second):
					t.Fatal("scheduler slot still held after the op returned")
				}
			})
		}
	}
}

// A put forwarded to an unreachable primary must leave its failed hop — the
// slowest one of the request — on the flight record.
func TestFailedForwardPutFilesHop(t *testing.T) {
	c := newCluster(t)
	nodes := c.start(t, "pbhop", "PrimaryBackupConsistency", nil)
	var primary, backup *Node
	for _, pi := range nodes {
		if n := c.node(t, pi.Name); n.IsPrimary() {
			primary = n
		} else {
			backup = n
		}
	}
	if primary == nil || backup == nil {
		t.Fatal("no primary/backup split")
	}
	c.net.Partition(backup.region, primary.region)
	if _, err := backup.Put(context.Background(), "k", []byte("v"), nil); err == nil {
		t.Fatal("put forwarded across a partition succeeded")
	}
	for _, rec := range c.fabric.Flight().Recent(0) {
		if rec.Op != "put" || rec.Key != "k" || rec.Node != backup.name {
			continue
		}
		if rec.Err == "" {
			t.Fatal("flight record of the failed put carries no error")
		}
		for _, h := range rec.Hops {
			if h.Kind == flight.HopRPC && h.Name == primary.name && h.Err != "" {
				return
			}
		}
		t.Fatalf("no failed rpc hop to %s among %+v", primary.name, rec.Hops)
	}
	t.Fatal("the failed put opened no flight record")
}

// GetLatency is application-perceived like PutLatency: a get parked behind
// a policy change's freeze reports the time it waited. Its flight record
// files that wait as one queue hop; an operation that found the gate open
// files none, however many nanoseconds passed between its two clock reads.
func TestGetLatencyIncludesGateWait(t *testing.T) {
	c := newCluster(t, simnet.USWest)
	nodes := c.start(t, "gatelat", "EventualConsistency", nil)
	n := c.node(t, nodes[0].Name)
	ctx := context.Background()
	if _, err := n.Put(ctx, "k", []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	n.gate.freeze()
	done := make(chan error, 1)
	go func() {
		_, _, err := n.Get(ctx, "k")
		done <- err
	}()
	// 50 ms of real time is 100 s on the cluster's clock; the get reaches
	// the gate within the first few of them.
	time.Sleep(50 * time.Millisecond)
	n.gate.thaw()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, parked := n.GetLatency.Max(), 20*time.Second; got < parked {
		t.Fatalf("GetLatency.Max() = %v for a get parked at least %v behind the gate", got, parked)
	}
	for _, rec := range c.fabric.Flight().Recent(0) {
		var gateHops []flight.Hop
		for _, h := range rec.Hops {
			if h.Kind == flight.HopQueue && h.Name == "gate" {
				gateHops = append(gateHops, h)
			}
		}
		switch rec.Op {
		case "put": // went through the open gate
			if len(gateHops) != 0 {
				t.Errorf("put through an open gate filed gate hops %+v", gateHops)
			}
		case "get": // released by thaw
			if len(gateHops) != 1 || gateHops[0].Wait <= 0 {
				t.Errorf("parked get filed gate hops %+v, want one with Wait > 0", gateHops)
			}
		}
	}
}

// Every client operation shows in a caller's trace as a client.<op> child
// span that carries the operation's error.
func TestClientOpSpans(t *testing.T) {
	c := newCluster(t, simnet.USWest)
	c.start(t, "spans", "EventualConsistency", nil)
	cli, err := NewClient(c.fabric, "cli-spans", simnet.USWest, c.server.Name(), "spans")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// A node that fails every call stands in for the instance in the error
	// column: an application error is returned to the caller at once.
	failing, err := c.fabric.NewEndpoint("spans-failing", simnet.USWest)
	if err != nil {
		t.Fatal(err)
	}
	failing.Serve(func(context.Context, string, []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	healthy := cli.Nodes()

	ops := []struct {
		span string
		run  func(ctx context.Context) error
	}{
		{"client.put", func(ctx context.Context) error {
			_, err := cli.Put(ctx, "k", []byte("v"))
			return err
		}},
		{"client.get", func(ctx context.Context) error {
			_, _, err := cli.Get(ctx, "k")
			return err
		}},
		{"client.getVersion", func(ctx context.Context) error {
			_, _, err := cli.GetVersion(ctx, "k", 1)
			return err
		}},
		{"client.versionList", func(ctx context.Context) error {
			_, err := cli.VersionList(ctx, "k")
			return err
		}},
		{"client.removeVersion", func(ctx context.Context) error { return cli.RemoveVersion(ctx, "k", 1) }},
		{"client.remove", func(ctx context.Context) error { return cli.Remove(ctx, "k") }},
	}
	for _, fail := range []bool{true, false} {
		cli.SetNodes(healthy)
		if fail {
			cli.SetNodes([]PeerInfo{{Name: "spans-failing", Region: simnet.USWest}})
		}
		for _, op := range ops {
			root := c.fabric.Tracer().StartRoot("caller")
			err := op.run(telemetry.ContextWithSpan(context.Background(), root))
			root.End()
			if (err != nil) != fail {
				t.Fatalf("%s (failing node: %v): err = %v", op.span, fail, err)
			}
			var found bool
			for _, rec := range c.fabric.Tracer().TraceSpans(root.TraceIDString()) {
				if rec.Name != op.span || rec.ParentID != root.Context().Span {
					continue
				}
				found = true
				if (rec.Err != "") != fail {
					t.Fatalf("%s (failing node: %v): span err = %q", op.span, fail, rec.Err)
				}
			}
			if !found {
				t.Fatalf("%s (failing node: %v): no child span under the caller's", op.span, fail)
			}
		}
	}
}
