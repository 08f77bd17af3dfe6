package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"repro/internal/clock"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func BenchmarkFabricCallSameRegion(b *testing.B) {
	fab := NewFabric(simnet.New(clock.NewScaled(1e6)))
	defer fab.Close()
	srv, err := fab.NewEndpoint("srv", simnet.USEast)
	if err != nil {
		b.Fatal(err)
	}
	srv.Serve(func(_ context.Context, _ string, p []byte) ([]byte, error) { return p, nil })
	cli, err := fab.NewEndpoint("cli", simnet.USEast)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call(context.Background(), "srv", "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// roundTripSizes are the echo payloads the TCP benchmarks run at: a small
// message, tcp_read_heavy's value, and a frame past the read buffer.
var roundTripSizes = []struct {
	name string
	size int
}{{"128B", 128}, {"4KiB", 4 << 10}, {"128KiB", 128 << 10}}

// BenchmarkTCPRoundTrip times one serial echo call over the TCP transport,
// client and server in this process. BenchmarkLoopbackPingPong is its floor.
func BenchmarkTCPRoundTrip(b *testing.B) {
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, _ string, p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli := DialTCP(srv.Addr())
	defer cli.Close()
	for _, rs := range roundTripSizes {
		b.Run(rs.name, func(b *testing.B) {
			payload := make([]byte, rs.size)
			b.SetBytes(int64(rs.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Call(context.Background(), "", "echo", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoopbackPingPong is the floor under BenchmarkTCPRoundTrip: the
// same request and response frames over a raw loopback connection, one
// goroutine per side, each frame sent in one Write and read into a reused
// buffer. It has no mux, no handler and no allocation per round trip, only
// the two syscalls and two wake-ups per side that no transport can avoid.
func BenchmarkLoopbackPingPong(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	for _, rs := range roundTripSizes {
		b.Run(rs.name, func(b *testing.B) {
			payload := make([]byte, rs.size)
			request := encodeFrame(func(fw *frameWriter) error { return fw.writeRequest(1, "echo", payload) })
			response := encodeFrame(func(fw *frameWriter) error { return fw.writeResponse(1, wire.CodeOK, "", nil, payload) })
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			peer, err := ln.Accept()
			if err != nil {
				b.Fatal(err)
			}
			served := make(chan struct{})
			go func() {
				defer close(served)
				answerFrames(peer, response)
			}()
			defer func() {
				conn.Close() // answerFrames reads EOF and returns
				<-served
				peer.Close()
			}()
			br := bufio.NewReaderSize(conn, readBufSize)
			var buf []byte
			b.SetBytes(int64(rs.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Write(request); err != nil {
					b.Fatal(err)
				}
				if buf, err = readFrameInto(br, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// answerFrames writes response for every frame it reads off conn, until
// the connection closes.
func answerFrames(conn net.Conn, response []byte) {
	br := bufio.NewReaderSize(conn, readBufSize)
	var buf []byte
	for {
		var err error
		if buf, err = readFrameInto(br, buf); err != nil {
			return
		}
		if _, err := conn.Write(response); err != nil {
			return
		}
	}
}

// readFrameInto reads the next frame, after its length, into buf, which
// it grows when the frame does not fit.
func readFrameInto(br *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := br.Peek(frameLenSize)
	if err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	_, _ = br.Discard(frameLenSize)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	_, err = io.ReadFull(br, buf[:n])
	return buf[:n], err
}

// benchMsg mirrors the shape of the hot put/get messages. The transport
// package cannot import internal/wiera (cycle), so it implements the wire
// interfaces the same way wirecodec.go does; the real-message numbers live
// in internal/wiera's BenchmarkEncode.
type benchMsg struct {
	Key  string
	Data []byte
}

func (m benchMsg) WireTag() byte { return 0x7E }
func (m benchMsg) WireSize() int {
	return wire.SizeString(m.Key) + wire.SizeBytes(m.Data)
}
func (m benchMsg) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Key)
	return wire.AppendBytes(dst, m.Data)
}
func (m *benchMsg) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	r.StringInto(&m.Key)
	m.Data = r.Bytes()
	return r.Close()
}

// BenchmarkEncode times one encode+decode round trip of a wire message:
// via Encode (one exact-size allocation) and via AppendEncode into a reused
// buffer, the zero-alloc steady state.
func BenchmarkEncode(b *testing.B) {
	in := benchMsg{Key: "object-key", Data: make([]byte, 4096)}

	b.Run("wire", func(b *testing.B) {
		b.SetBytes(4096)
		b.ReportAllocs()
		var out benchMsg
		for i := 0; i < b.N; i++ {
			raw, err := Encode(in)
			if err != nil {
				b.Fatal(err)
			}
			if err := Decode(raw, &out); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("wire/append", func(b *testing.B) {
		b.SetBytes(4096)
		b.ReportAllocs()
		buf := make([]byte, 0, wire.HeaderLen+in.WireSize())
		var out benchMsg
		// Hoist the interface conversions: real call sites already hold
		// the message as `any` and the destination as a pointer.
		var inAny any = in
		var outAny any = &out
		for i := 0; i < b.N; i++ {
			raw, ok := AppendEncode(CodecAuto, buf[:0], inAny)
			if !ok {
				b.Fatal("wire fast path not taken")
			}
			if err := Decode(raw, outAny); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTCPPipelined measures throughput with many concurrent callers
// on one multiplexed connection — contrast with BenchmarkTCPRoundTrip's
// single serial caller.
func BenchmarkTCPPipelined(b *testing.B) {
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, _ string, p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli := DialTCP(srv.Addr())
	defer cli.Close()
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cli.Call(context.Background(), "", "echo", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
