package coord

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// coordMessages returns one populated sample of every session and lock
// message, paired with a fresh zero destination of the same type.
func coordMessages() []struct {
	name string
	msg  wire.Unmarshaler
	zero func() wire.Unmarshaler
} {
	return []struct {
		name string
		msg  wire.Unmarshaler
		zero func() wire.Unmarshaler
	}{
		{"createSessionReq", &createSessionReq{TTLMillis: 30000}, func() wire.Unmarshaler { return &createSessionReq{} }},
		{"createSessionResp", &createSessionResp{SessionID: 1 << 40}, func() wire.Unmarshaler { return &createSessionResp{} }},
		{"keepAliveReq", &keepAliveReq{SessionID: 7}, func() wire.Unmarshaler { return &keepAliveReq{} }},
		{"closeSessionReq", &closeSessionReq{SessionID: -3}, func() wire.Unmarshaler { return &closeSessionReq{} }},
		{"acquireReq", &acquireReq{SessionID: 9, Key: "obj/a", WaitMillis: 5000}, func() wire.Unmarshaler { return &acquireReq{} }},
		{"acquireReq/try", &acquireReq{SessionID: 9, Key: "k"}, func() wire.Unmarshaler { return &acquireReq{} }},
		{"acquireResp", &acquireResp{Granted: true}, func() wire.Unmarshaler { return &acquireResp{} }},
		{"acquireResp/denied", &acquireResp{}, func() wire.Unmarshaler { return &acquireResp{} }},
		{"releaseReq", &releaseReq{SessionID: 9, Key: "obj/a"}, func() wire.Unmarshaler { return &releaseReq{} }},
		{"empty", &empty{}, func() wire.Unmarshaler { return &empty{} }},
	}
}

// TestCoordWireRoundTrip: every message's frame is exactly header +
// WireSize bytes, decodes (through transport.Decode, the path the handler
// and client use) into an equal value, and re-encodes byte-exact.
func TestCoordWireRoundTrip(t *testing.T) {
	for _, tc := range coordMessages() {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := transport.Encode(tc.msg)
			if err != nil {
				t.Fatal(err)
			}
			if want := wire.HeaderLen + tc.msg.WireSize(); len(frame) != want || !wire.Is(frame) {
				t.Fatalf("frame %x: %d bytes, want a %d-byte wire frame", frame, len(frame), want)
			}
			out := tc.zero()
			if err := transport.Decode(frame, out); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(out, tc.msg) {
				t.Fatalf("decoded %+v, want %+v", out, tc.msg)
			}
			if again := wire.Marshal(out); !bytes.Equal(frame, again) {
				t.Fatalf("re-encode differs:\n  first  %x\n  second %x", frame, again)
			}
		})
	}
}

// TestCoordWireTruncationAndCorruption: every strict prefix, a trailing
// byte, an unknown version, another message's tag and a non-canonical body
// byte are all rejected, never misparsed.
func TestCoordWireTruncationAndCorruption(t *testing.T) {
	for _, tc := range coordMessages() {
		t.Run(tc.name, func(t *testing.T) {
			frame := wire.Marshal(tc.msg)
			for i := 0; i < len(frame); i++ {
				if err := transport.Decode(frame[:i:i], tc.zero()); err == nil {
					t.Fatalf("truncation at byte %d/%d decoded", i, len(frame))
				}
			}
			if err := transport.Decode(append(append([]byte{}, frame...), 0x00), tc.zero()); err == nil {
				t.Fatal("trailing byte not rejected")
			}
			bad := append([]byte{}, frame...)
			bad[2] = 0x7E
			if err := transport.Decode(bad, tc.zero()); err == nil {
				t.Fatal("unknown frame version not rejected")
			}
			bad = append([]byte{}, frame...)
			bad[3] ^= 0x01 // the neighbouring coord tag
			if err := transport.Decode(bad, tc.zero()); err == nil {
				t.Fatal("frame with another message's tag decoded")
			}
			if len(frame) > wire.HeaderLen {
				// An all-0xFF body is an unterminated or overlong varint, or
				// a bool byte other than 0/1: corrupt for every message.
				bad = append([]byte{}, frame...)
				for i := wire.HeaderLen; i < len(bad); i++ {
					bad[i] = 0xFF
				}
				if err := transport.Decode(bad, tc.zero()); err == nil {
					t.Fatalf("corrupt body decoded: %x", bad)
				}
			}
		})
	}
}

// TestCoordWireTags: coord's tags are unique and inside the range the wire
// tag table gives the package, 0x40–0x4F.
func TestCoordWireTags(t *testing.T) {
	owner := map[byte]reflect.Type{}
	for _, tc := range coordMessages() {
		tag, typ := tc.msg.WireTag(), reflect.TypeOf(tc.msg)
		if tag < 0x40 || tag > 0x4F {
			t.Errorf("%s: tag 0x%02x outside coord's range 0x40-0x4F", tc.name, tag)
		}
		if prev, ok := owner[tag]; ok && prev != typ {
			t.Errorf("%s and %s share tag 0x%02x", typ, prev, tag)
		}
		owner[tag] = typ
	}
}

// TestLockUnlockAllocBudget pins what one Client.Lock + Unlock costs over a
// same-region fabric with telemetry off: the codec, the fabric hop and the
// server's lock table. The parent of the change that introduced it
// measured 528 (a fresh gob encoder and decoder per message).
func TestLockUnlockAllocBudget(t *testing.T) {
	const budget = 12
	fab := transport.NewFabric(simnet.New(clock.NewScaled(1e6)), transport.WithoutTelemetry())
	defer fab.Close()
	clk := clock.NewScaled(1e6)
	zk, err := fab.NewEndpoint("zk", simnet.USEast)
	if err != nil {
		t.Fatal(err)
	}
	zk.Serve(NewServer(clk).Handler())
	ep, err := fab.NewEndpoint("node", simnet.USEast)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ep, "zk", longTTL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if err := cli.Lock(ctx, "user0001", time.Second); err != nil {
			t.Fatal(err)
		}
		if err := cli.Unlock(ctx, "user0001"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("Lock+Unlock = %.1f allocs, budget %d", allocs, budget)
	}
	t.Logf("Lock+Unlock = %.1f allocs (budget %d)", allocs, budget)
}
