package wiera

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/simnet"
	"repro/internal/tenant"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestRetryClassification is the client's retry policy as a table: every
// failure cause, raised directly by the called node, raised one forwarded
// hop behind it (the MethodForwardPut shape: the handler returns its own
// call's error), and wrapped by callKey's "retries exhausted", over both the
// fabric and loopback TCP. The action depends on the status code alone, the
// typed NACKs come back as values with every field intact, and what the
// error text contains never matters — the bug class PR 9 shipped, where a
// forwarded chain's text held both a NACK marker and a retryable substring.
func TestRetryClassification(t *testing.T) {
	wrongShard := &WrongShardError{Epoch: 7, Shard: 2, Owner: "ok"}
	rebalance := &ErrRebalanceInProgress{InstanceID: "app"}
	quota := &tenant.ErrQuotaExceeded{Tenant: "bronze", Kind: "iops"}
	causes := []struct {
		name      string
		raise     error  // what the raising handler returns (nil: the call itself fails)
		dst       string // endpoint whose call fails with the cause
		direct    callAction
		forwarded callAction
		typed     wire.Coded // the NACK the As* functions must recover, nil for none
	}{
		{"wrong-shard", wrongShard, "srv", actReroute, actReroute, wrongShard},
		{"rebalance-in-progress", rebalance, "srv", actReturn, actReturn, rebalance},
		{"quota-exceeded", quota, "srv", actReturn, actReturn, quota},
		{"quota-exceeded/retryable-text", fmt.Errorf("%v: %w", ErrChanging, quota), "srv", actReturn, actReturn, quota},
		{"changing", ErrChanging, "srv", actNextNode, actNextNode, nil},
		{"application", errors.New("tier: disk full"), "srv", actReturn, actReturn, nil},
		{"application/nack-text", errors.New(quota.Error() + ": " + wrongShard.Error() + ": " + ErrChanging.Error()), "srv", actReturn, actReturn, nil},
		// A call that reached no handler moves on; reported by a forwarding
		// node it is that node's application error.
		{"no-endpoint", nil, "nobody", actNextNode, actReturn, nil},
		{"unreachable", nil, "far", actNextNode, actReturn, nil},
	}

	fabric := transport.NewFabric(simnet.New(clock.NewScaled(1e6)))
	defer fabric.Close()
	endpoint := func(name string, region simnet.Region, h transport.Handler) *transport.Endpoint {
		ep, err := fabric.NewEndpoint(name, region)
		if err != nil {
			t.Fatal(err)
		}
		ep.Serve(h)
		return ep
	}
	// The payload names the cause; srv raises it, front forwards to the
	// cause's dst and hands back whatever that call returned.
	byName := func(payload []byte) (string, error) {
		for _, c := range causes {
			if c.name == string(payload) {
				return c.dst, c.raise
			}
		}
		return "", fmt.Errorf("unknown cause %q", payload)
	}
	endpoint("srv", simnet.USEast, func(_ context.Context, _ string, payload []byte) ([]byte, error) {
		_, err := byName(payload)
		return nil, err
	})
	var okCalls atomic.Int64
	endpoint("ok", simnet.USEast, func(context.Context, string, []byte) ([]byte, error) {
		okCalls.Add(1)
		return []byte("served"), nil
	})
	endpoint("far", simnet.EUWest, func(context.Context, string, []byte) ([]byte, error) { return nil, nil })
	fabric.Network().Partition(simnet.USEast, simnet.EUWest)
	var front *transport.Endpoint
	forward := func(ctx context.Context, _ string, payload []byte) ([]byte, error) {
		dst, _ := byName(payload)
		return front.Call(ctx, dst, MethodForwardPut, payload)
	}
	front = endpoint("front", simnet.USEast, forward)
	cli := endpoint("cli", simnet.USEast, nil)

	tcpCall := func(h transport.Handler) func(string) error {
		srv, err := transport.ListenTCP("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		tc := transport.DialTCP(srv.Addr())
		t.Cleanup(tc.Close)
		return func(cause string) error {
			_, err := tc.Call(context.Background(), "", MethodPut, []byte(cause))
			return err
		}
	}
	tcpDirect := tcpCall(func(ctx context.Context, m string, p []byte) ([]byte, error) {
		dst, _ := byName(p)
		if dst != "srv" {
			return nil, errors.New("not a handler cause")
		}
		return cli.Call(ctx, "srv", m, p) // the daemon's proxy hop adds nothing of its own
	})
	tcpForwarded := tcpCall(forward)

	type path struct {
		name string
		want callAction
		call func() error
	}
	ctx := context.Background()
	for _, c := range causes {
		paths := []path{
			{"fabric/direct", c.direct, func() error {
				_, err := cli.Call(ctx, c.dst, MethodPut, []byte(c.name))
				return err
			}},
			{"fabric/forwarded", c.forwarded, func() error {
				_, err := cli.Call(ctx, "front", MethodPut, []byte(c.name))
				return err
			}},
			{"tcp/forwarded", c.forwarded, func() error { return tcpForwarded(c.name) }},
		}
		if c.raise != nil {
			paths = append(paths, path{"tcp/direct", c.direct, func() error { return tcpDirect(c.name) }})
		}
		for _, p := range paths {
			t.Run(c.name+"/"+p.name, func(t *testing.T) {
				err := p.call()
				if err == nil {
					t.Fatal("call succeeded")
				}
				for _, e := range []error{err, fmt.Errorf("wiera: retries exhausted: %w", err)} {
					if got := classify(e); got != p.want {
						t.Errorf("classify(%v) = %d, want %d", e, got, p.want)
					}
					if got := recoverNACK(e); !reflect.DeepEqual(got, c.typed) {
						t.Errorf("typed NACK recovered from %v = %#v, want %#v", e, got, c.typed)
					}
					// The text is for people, and unchanged: the cause reads
					// the same at the caller as where it was raised.
					if c.raise != nil && !strings.Contains(e.Error(), c.raise.Error()) {
						t.Errorf("error text %q lost the cause %q", e, c.raise)
					}
				}
			})
		}

		// What callKey does with the action, on a two-node view whose first
		// node fails with the cause and whose second ("ok") serves.
		t.Run(c.name+"/callKey", func(t *testing.T) {
			cl := &Client{name: "cli", region: simnet.USEast, ep: cli, fabric: fabric,
				serverDst: "nobody", rng: rand.New(rand.NewSource(1)),
				nodes: []PeerInfo{{Name: c.dst, Region: simnet.USEast}, {Name: "ok", Region: simnet.USEast}}}
			before := okCalls.Load()
			raw, err := cl.Call(ctx, MethodPut, []byte(c.name))
			served := okCalls.Load() - before
			if c.direct == actReturn {
				// Returned at once: no other node tried, no retry budget spent.
				if err == nil || served != 0 || strings.Contains(err.Error(), "retries exhausted") {
					t.Fatalf("raw=%q err=%v with %d calls to the next node; want the cause returned at once", raw, err, served)
				}
				return
			}
			// Re-routed (the NACK's owner is "ok") or moved to the next node.
			if err != nil || string(raw) != "served" || served != 1 {
				t.Fatalf("raw=%q err=%v with %d calls to the next node; want it served there once", raw, err, served)
			}
		})
	}
}
