package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/coord"
	"repro/internal/ec"
	"repro/internal/object"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wiera"
)

// Sides are the side spans: standalone calls into single layers at the
// workload's real message sizes.
type Sides struct {
	WirePutRtUs, WireGetRtUs, WireRtAllocs float64
	FabricCallUs, FabricCallAllocs         float64
	TCPCallUs, TCPCallAllocs               float64
	ECEncodeUs, ECReconstructUs            float64
	CoordLockUnlockUs                      float64
	Spans                                  []Span

	iters int
	err   error // the first failure; later spans are skipped
}

func sideIters(valueSize int) int {
	if valueSize >= 64<<10 {
		return 300
	}
	return 2000
}

// time runs fn s.iters times, timing each call, keeps the spans, and
// returns the median in µs and the allocations per call.
func (s *Sides) time(name string, fn func() error) (us, allocs float64) {
	if s.err != nil {
		return 0, 0
	}
	durs := make([]int64, s.iters)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range durs {
		t0 := time.Now()
		if err := fn(); err != nil {
			s.err = fmt.Errorf("%s: %w", name, err)
			return 0, 0
		}
		durs[i] = int64(time.Since(t0))
		s.Spans = append(s.Spans, Span{Name: name, Op: i, Start: t0.UnixNano(), End: t0.UnixNano() + durs[i]})
	}
	runtime.ReadMemStats(&after)
	return medianUs(durs), float64(after.Mallocs-before.Mallocs) / float64(s.iters)
}

// SideSpans measures every side span for spec.
func SideSpans(spec Spec, seed int64) (*Sides, error) {
	s := &Sides{iters: sideIters(spec.ValueSize)}
	const key = "user00000000"
	val := NewValueGen(seed, spec.ValueSize).Make(keyHash(key), 106, 1)
	ctx := context.Background()

	// wire: encode+decode of the request and the response, reusing the
	// buffer the way node and client do.
	now := time.Now()
	putReq := wiera.PutRequest{Key: key, Data: val}
	putResp := wiera.PutResponse{Meta: object.Meta{Key: key, Version: 7, Size: int64(len(val)),
		TierName: "tier1", Origin: "bench/us-east", CreatedAt: now, ModifiedAt: now, AccessedAt: now}}
	getReq := wiera.GetRequest{Key: key}
	getResp := wiera.GetResponse{Data: val, Meta: putResp.Meta}
	var buf []byte
	roundTrip := func(msg, into any) error {
		raw, ok := transport.AppendEncode(transport.CodecAuto, buf[:0], msg)
		if !ok {
			return fmt.Errorf("%T has no wire encoding", msg)
		}
		buf = raw
		return transport.Decode(raw, into)
	}
	var putAllocs, getAllocs float64
	s.WirePutRtUs, putAllocs = s.time("wire.put_rt", func() error {
		if err := roundTrip(putReq, &wiera.PutRequest{}); err != nil {
			return err
		}
		return roundTrip(putResp, &wiera.PutResponse{})
	})
	s.WireGetRtUs, getAllocs = s.time("wire.get_rt", func() error {
		if err := roundTrip(getReq, &wiera.GetRequest{}); err != nil {
			return err
		}
		return roundTrip(getResp, &wiera.GetResponse{})
	})
	s.WireRtAllocs = putAllocs + getAllocs

	// transport: one same-region fabric call and one loopback TCP call to
	// echo handlers, carrying an encoded put request.
	payload, err := transport.Encode(putReq)
	if err != nil {
		return nil, err
	}
	echo := func(_ context.Context, _ string, p []byte) ([]byte, error) { return p, nil }
	clk := &Clock{}
	fabric := transport.NewFabric(simnet.New(clk))
	defer fabric.Close()
	srv, err := fabric.NewEndpoint("echo", simnet.USEast)
	if err != nil {
		return nil, err
	}
	srv.Serve(echo)
	cli, err := fabric.NewEndpoint("caller", simnet.USEast)
	if err != nil {
		return nil, err
	}
	s.FabricCallUs, s.FabricCallAllocs = s.time("transport.fabric_call", func() error {
		_, err := cli.Call(ctx, "echo", methodEcho, payload)
		return err
	})

	tcpSrv, err := transport.ListenTCP("127.0.0.1:0", echo)
	if err != nil {
		return nil, err
	}
	defer tcpSrv.Close()
	tcpCli := transport.DialTCP(tcpSrv.Addr())
	defer tcpCli.Close()
	if _, err := tcpCli.Call(ctx, "", methodEcho, payload); err != nil { // dial outside the timer
		return nil, err
	}
	s.TCPCallUs, s.TCPCallAllocs = s.time("transport.tcp_call", func() error {
		_, err := tcpCli.Call(ctx, "", methodEcho, payload)
		return err
	})

	// ec: encode the value, then rebuild what a striped get rebuilds on three
	// members: one data shard and one parity shard.
	codec, err := ec.New(ec.DefaultScheme.K, ec.DefaultScheme.M)
	if err != nil {
		return nil, err
	}
	var shards [][]byte
	s.ECEncodeUs, _ = s.time("ec.encode", func() (err error) {
		shards, err = codec.Encode(val)
		return err
	})
	work := make([][]byte, len(shards))
	s.ECReconstructUs, _ = s.time("ec.reconstruct", func() error {
		copy(work, shards)
		work[2], work[5] = nil, nil
		return codec.Reconstruct(work)
	})

	// coord: lock + unlock of one key through a session on the fabric.
	zk, err := fabric.NewEndpoint(coordName, simnet.USEast)
	if err != nil {
		return nil, err
	}
	zk.Serve(coord.NewServer(clk).Handler())
	locks, err := coord.NewClient(cli, coordName, time.Hour)
	if err != nil {
		return nil, err
	}
	s.CoordLockUnlockUs, _ = s.time("coord.lock_unlock", func() error {
		if err := locks.Lock(ctx, key, time.Minute); err != nil {
			return err
		}
		return locks.Unlock(ctx, key)
	})
	return s, s.err
}
