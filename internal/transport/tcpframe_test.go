package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestTCPPayloadOwnership: a handler may keep the request payloads it is
// given. 64 pipelined callers share one connection; once every call has
// returned, each kept payload must still hold what its caller sent. A read
// buffer reused for a later frame would overwrite an earlier payload.
func TestTCPPayloadOwnership(t *testing.T) {
	var mu sync.Mutex
	kept := map[string][]byte{}
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, method string, payload []byte) ([]byte, error) {
		mu.Lock()
		kept[method] = payload
		mu.Unlock()
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := DialTCP(srv.Addr())
	defer client.Close()

	const callers, rounds = 64, 8
	sent := func(id, r int) []byte {
		return bytes.Repeat([]byte{byte(id), byte(r)}, 64+id)
	}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := client.Call(context.Background(), "", fmt.Sprintf("m%d/%d", id, r), sent(id, r))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(resp, sent(id, r)) {
					t.Errorf("caller %d round %d: response differs from request", id, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if d := client.Dials(); d != 1 {
		t.Fatalf("dials = %d, want 1", d)
	}
	if len(kept) != callers*rounds {
		t.Fatalf("handler kept %d payloads, want %d", len(kept), callers*rounds)
	}
	for i := 0; i < callers; i++ {
		for r := 0; r < rounds; r++ {
			if got := kept[fmt.Sprintf("m%d/%d", i, r)]; !bytes.Equal(got, sent(i, r)) {
				t.Fatalf("payload of caller %d round %d changed after its call: % x...", i, r, got[:min(8, len(got))])
			}
		}
	}
}

// fakeServer serves raw frames: on each connection it reads requests until
// want are pending, then writes reply and closes the connection. (Callers
// racing to dial may open connections they drop at once; those see EOF.)
func fakeServer(t *testing.T, want int, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	serve := func(conn net.Conn) {
		defer conn.Close()
		br := bufio.NewReader(conn)
		for i := 0; i < want; i++ {
			frame, err := readFrame(br)
			if err != nil {
				return
			}
			if _, err := parseRequest(frame); err != nil {
				return
			}
		}
		conn.Write(reply)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// TestTCPBrokenResponseFailsPending: a response stream that ends inside a
// header or a payload, or declares a frame past maxFrame, fails every
// pending call promptly — no panic, no hang — and the size limit is named.
func TestTCPBrokenResponseFailsPending(t *testing.T) {
	frame := func(declared uint32, body []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, declared), body...)
	}
	cases := []struct {
		name  string
		reply []byte
		want  error
	}{
		{"truncated header", []byte{0x00, 0x00}, io.ErrUnexpectedEOF},
		{"truncated payload", frame(100, make([]byte, 20)), io.ErrUnexpectedEOF},
		{"oversize header", frame(maxFrame+1, nil), errFrameTooLarge},
		{"corrupt frame", frame(3, []byte{1, 2, 3}), wire.ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const pending = 8
			client := DialTCP(fakeServer(t, pending, tc.reply))
			defer client.Close()
			done := make(chan error, pending)
			for i := 0; i < pending; i++ {
				go func() {
					_, err := client.Call(context.Background(), "", "m", []byte("x"))
					done <- err
				}()
			}
			for i := 0; i < pending; i++ {
				select {
				case err := <-done:
					if !errors.Is(err, tc.want) {
						t.Fatalf("call %d: err = %v, want %v", i, err, tc.want)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("pending call hung")
				}
			}
		})
	}
}

// TestTCPServerRejectsOversizeFrame: a request header past maxFrame closes
// the connection instead of allocating the declared size.
func TestTCPServerRejectsOversizeFrame(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(context.Context, string, []byte) ([]byte, error) {
		t.Error("handler ran for an oversize frame")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after an oversize header = %d, %v; want the server to close (EOF)", n, err)
	}
}

// TestTCPOversizeCallRejected: a request past maxFrame fails before it is
// sent, and the connection stays up for other calls.
func TestTCPOversizeCallRejected(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, _ string, p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := DialTCP(srv.Addr())
	defer client.Close()
	if _, err := client.Call(context.Background(), "", "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(context.Background(), "", "m", make([]byte, maxFrame)); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversize call: err = %v, want errFrameTooLarge", err)
	}
	if resp, err := client.Call(context.Background(), "", "m", []byte("y")); err != nil || string(resp) != "y" {
		t.Fatalf("call after an oversize call = %q, %v", resp, err)
	}
	if d := client.Dials(); d != 1 {
		t.Fatalf("dials = %d, want 1", d)
	}
}

// encodeFrame runs one of the frame writers into a fresh buffer.
func encodeFrame(write func(bw *bufio.Writer)) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	write(bw)
	bw.Flush()
	return buf.Bytes()
}

// FuzzTCPFrame feeds arbitrary bytes to the request and response frame
// decoders. Each either errors or decodes a frame that re-encodes to
// exactly the bytes it was read from.
func FuzzTCPFrame(f *testing.F) {
	f.Add(encodeFrame(func(bw *bufio.Writer) {
		writeRequest(bw, 1, "wiera.get", []byte{0xBD, 0x57, 1, 3, 1, 'k'})
	}))
	f.Add(encodeFrame(func(bw *bufio.Writer) { writeRequest(bw, 1<<40, "", nil) }))
	f.Add(encodeFrame(func(bw *bufio.Writer) { writeResponse(bw, 7, wire.CodeOK, "", nil, []byte("payload")) }))
	f.Add(encodeFrame(func(bw *bufio.Writer) {
		writeResponse(bw, 7, wire.CodeWrongShard, "wiera: wrong shard", []byte{2, 4, 1, 'n'}, nil)
	}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if frame, err := readFrame(bufio.NewReader(bytes.NewReader(data))); err == nil {
			n := frameLenSize + len(frame)
			if req, err := parseRequest(frame); err == nil {
				again := encodeFrame(func(bw *bufio.Writer) { writeRequest(bw, req.seq, req.method, req.payload) })
				if !bytes.Equal(again, data[:n]) {
					t.Fatalf("request frame re-encodes differently:\ninput: %x\nagain: %x", data[:n], again)
				}
			}
			if resp, err := parseResponse(frame); err == nil {
				again := encodeFrame(func(bw *bufio.Writer) {
					writeResponse(bw, resp.seq, resp.code, resp.msg, resp.detail, resp.payload)
				})
				if !bytes.Equal(again, data[:n]) {
					t.Fatalf("response frame re-encodes differently:\ninput: %x\nagain: %x", data[:n], again)
				}
			}
		}
	})
}
