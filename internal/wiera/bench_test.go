package wiera

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/coord"
	"repro/internal/policy"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// benchStack is a full Wiera deployment for benchmarks, with telemetry
// either on (the fabric's default registry + tracer: always-on metrics,
// traces head-sampled at the default 1-in-16) or off
// (transport.WithoutTelemetry), so the two variants measure the
// instrumentation's end-to-end overhead on the same code path:
//
//	go test -bench=BenchmarkClient ./internal/wiera/
//
// and compare the instrumented and bare sub-benchmarks; the instrumented
// path must stay within 5% of bare.
type benchStack struct {
	fabric *transport.Fabric
	server *Server
	tss    []*TieraServer
	cli    *Client
}

func newBenchStack(b *testing.B, telemetryOn bool) *benchStack {
	b.Helper()
	// A huge compression factor makes the simulated WAN sleeps vanish in
	// real time, so the benchmark measures code cost, not timer resolution.
	clk := clock.NewScaled(100000)
	net := simnet.New(clk)
	var opts []transport.FabricOption
	if !telemetryOn {
		opts = append(opts, transport.WithoutTelemetry())
	}
	fabric := transport.NewFabric(net, opts...)
	cs := coord.NewServer(clk)
	zkEP, err := fabric.NewEndpoint("zk", simnet.USEast)
	if err != nil {
		b.Fatal(err)
	}
	zkEP.Serve(cs.Handler())
	srv, err := NewServer(ServerConfig{Fabric: fabric, CoordDst: "zk"})
	if err != nil {
		b.Fatal(err)
	}
	s := &benchStack{fabric: fabric, server: srv}
	for _, r := range simnet.DefaultRegions() {
		ts, err := NewTieraServer(fabric, r, srv, "zk")
		if err != nil {
			b.Fatal(err)
		}
		s.tss = append(s.tss, ts)
	}
	src, err := policy.BuiltinSource("EventualConsistency")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.StartInstances(StartInstancesRequest{
		InstanceID: "bench", PolicySrc: src, Params: map[string]string{"t": "1h"},
	}); err != nil {
		b.Fatal(err)
	}
	cli, err := NewClient(fabric, "bench-cli", simnet.USEast, srv.Name(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	s.cli = cli
	b.Cleanup(func() {
		for _, ts := range s.tss {
			ts.Close()
		}
		srv.Close()
		fabric.Close()
	})
	return s
}

// BenchmarkClientPut measures a full client put through the fabric —
// dispatch, global policy execution, tier write — instrumented (metrics +
// tracing) versus bare.
func BenchmarkClientPut(b *testing.B) {
	for _, variant := range []struct {
		name string
		on   bool
	}{{"instrumented", true}, {"bare", false}} {
		b.Run(variant.name, func(b *testing.B) {
			s := newBenchStack(b, variant.on)
			ctx := context.Background()
			data := make([]byte, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.cli.Put(ctx, fmt.Sprintf("k%d", i%64), data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// encodeMessages are the real hot-path messages (not a stand-in shape — see
// internal/transport's BenchmarkEncode for the transport-local variant)
// that BenchmarkEncode times and TestEncodeDecodeZeroAlloc gates.
func encodeMessages() []struct {
	name string
	msg  any
	zero func() any
} {
	meta := sampleMeta("bench-key")
	return []struct {
		name string
		msg  any
		zero func() any
	}{
		{"PutRequest", PutRequest{Key: "bench-key", Data: make([]byte, 4096), Tags: []string{"hot"}, From: "us-east"},
			func() any { return &PutRequest{} }},
		{"GetRequest", GetRequest{Key: "bench-key"}, func() any { return &GetRequest{} }},
		{"GetResponse", GetResponse{Data: make([]byte, 4096), Meta: meta, HotReplicas: []string{"a", "b"}},
			func() any { return &GetResponse{} }},
		{"UpdateBatchRequest", UpdateBatchRequest{Updates: []UpdateMsg{
			{Meta: meta, Data: make([]byte, 1024)},
			{Meta: meta, Data: make([]byte, 1024)},
			{Meta: meta, Data: make([]byte, 1024)},
			{Meta: meta, Data: make([]byte, 1024)},
		}}, func() any { return &UpdateBatchRequest{} }},
	}
}

// BenchmarkEncode times one encode+decode round trip per iteration: "wire"
// allocates the frame, "wire/append" is the steady state (reused buffer and
// destination, zero allocations).
func BenchmarkEncode(b *testing.B) {
	for _, m := range encodeMessages() {
		raw, err := transport.Encode(m.msg)
		if err != nil {
			b.Fatal(err)
		}
		payload := int64(len(raw))
		b.Run(m.name+"/wire", func(b *testing.B) {
			b.SetBytes(payload)
			b.ReportAllocs()
			out := m.zero()
			for i := 0; i < b.N; i++ {
				raw, err := transport.Encode(m.msg)
				if err != nil {
					b.Fatal(err)
				}
				if err := transport.Decode(raw, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(m.name+"/wire/append", func(b *testing.B) {
			b.SetBytes(payload)
			b.ReportAllocs()
			out := m.zero()
			var buf []byte
			for i := 0; i < b.N; i++ {
				raw, ok := transport.AppendEncode(transport.CodecAuto, buf[:0], m.msg)
				if !ok {
					b.Fatal("wire fast path not taken")
				}
				buf = raw
				if err := transport.Decode(raw, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClientGet measures a full client get, instrumented versus bare.
func BenchmarkClientGet(b *testing.B) {
	for _, variant := range []struct {
		name string
		on   bool
	}{{"instrumented", true}, {"bare", false}} {
		b.Run(variant.name, func(b *testing.B) {
			s := newBenchStack(b, variant.on)
			ctx := context.Background()
			data := make([]byte, 1024)
			for i := 0; i < 64; i++ {
				if _, err := s.cli.Put(ctx, fmt.Sprintf("k%d", i), data); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.cli.Get(ctx, fmt.Sprintf("k%d", i%64)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
