package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
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
	// The handlers wrote kept under mu, on the server's goroutines: only
	// mu orders those writes before these reads.
	mu.Lock()
	defer mu.Unlock()
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

// writeSyscalls returns the write syscalls this process has made so far
// (the syscw field of /proc/self/io), and skips t where it is unreadable.
func writeSyscalls(t *testing.T) int64 {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no write syscall count: %v", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("/proc/self/io: %q: %v", line, err)
			}
			return n
		}
	}
	t.Skip("no syscw field in /proc/self/io")
	return 0
}

// TestTCPOneWritePerFrame: every frame leaves in one write syscall whatever
// its size, so an echo call — client and server in this one process — costs
// two: its request frame and its response frame. A frame written as header
// and payload apart takes two, and wakes its peer twice.
func TestTCPOneWritePerFrame(t *testing.T) {
	writeSyscalls(t) // skips here, before any server starts, where unreadable
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, _ string, p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := DialTCP(srv.Addr())
	defer client.Close()

	const calls = 200
	for _, size := range []int{128, 4 << 10, 256 << 10} {
		payload := make([]byte, size)
		if _, err := client.Call(context.Background(), "", "echo", payload); err != nil {
			t.Fatal(err) // dials, outside the count
		}
		before := writeSyscalls(t)
		for i := 0; i < calls; i++ {
			if _, err := client.Call(context.Background(), "", "echo", payload); err != nil {
				t.Fatal(err)
			}
		}
		if per := float64(writeSyscalls(t)-before) / calls; per > 2.02 {
			t.Errorf("%d-byte echo: %.2f write syscalls per call, want 2 (one per frame)", size, per)
		}
	}
}

// TestTCPCallAllocBudget pins what a 4 KiB echo call allocates, client and
// server together: the two frames read off the sockets and the request's
// method string. The completion channel comes from a pool, the frame
// writers reuse their header buffers, and a request runs on the goroutine
// that read it, so no closure or request escapes per call.
func TestTCPCallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its Puts under the race detector")
	}
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, _ string, p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := DialTCP(srv.Addr())
	defer client.Close()
	payload := make([]byte, 4<<10)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := client.Call(context.Background(), "", "echo", payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("a 4 KiB echo call allocates %.0f times, want ≤ 3", allocs)
	}
}

// encodeFrame runs the connections' frame writer into a fresh buffer.
func encodeFrame(write func(fw *frameWriter) error) []byte {
	var buf bytes.Buffer
	if err := write(&frameWriter{w: &buf}); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return buf.Bytes()
}

// seedFrames are one frame of each shape, as the writer encodes them, with
// the bytes each must encode to. The bytes are the frame layout of
// DESIGN.md §13 written out by hand; the writer must never change them.
var seedFrames = []struct {
	write func(fw *frameWriter) error
	hex   string
}{
	{func(fw *frameWriter) error { return fw.writeRequest(1, "wiera.get", []byte{0xBD, 0x57, 1, 3, 1, 'k'}) },
		"00000018" + "0000000000000001" + "09" + "77696572612e676574" + "bd570103016b"},
	{func(fw *frameWriter) error { return fw.writeRequest(1<<40, "", nil) },
		"00000009" + "0000010000000000" + "00"},
	{func(fw *frameWriter) error { return fw.writeResponse(7, wire.CodeOK, "", nil, []byte("payload")) },
		"00000012" + "0000000000000007" + "00" + "00" + "00" + "7061796c6f6164"},
	{func(fw *frameWriter) error {
		return fw.writeResponse(7, wire.CodeWrongShard, "wiera: wrong shard", []byte{2, 4, 1, 'n'}, nil)
	}, "00000021" + "0000000000000007" + "02" + "12" + "77696572613a2077726f6e67207368617264" + "04" + "0204016e"},
}

// TestTCPFrameLayout: the writer produces the seed frames byte for byte,
// also when one frameWriter writes them in turn (head is reused).
func TestTCPFrameLayout(t *testing.T) {
	var buf bytes.Buffer
	fw := frameWriter{w: &buf}
	for i, s := range seedFrames {
		buf.Reset()
		if err := s.write(&fw); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != s.hex {
			t.Errorf("frame %d = %s, want %s", i, got, s.hex)
		}
	}
}

// FuzzTCPFrame feeds arbitrary bytes to the request and response frame
// decoders. Each either errors or decodes a frame that re-encodes to
// exactly the bytes it was read from.
func FuzzTCPFrame(f *testing.F) {
	for _, s := range seedFrames {
		f.Add(encodeFrame(s.write))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if frame, err := readFrame(bufio.NewReader(bytes.NewReader(data))); err == nil {
			n := frameLenSize + len(frame)
			if req, err := parseRequest(frame); err == nil {
				again := encodeFrame(func(fw *frameWriter) error { return fw.writeRequest(req.seq, req.method, req.payload) })
				if !bytes.Equal(again, data[:n]) {
					t.Fatalf("request frame re-encodes differently:\ninput: %x\nagain: %x", data[:n], again)
				}
			}
			if resp, err := parseResponse(frame); err == nil {
				again := encodeFrame(func(fw *frameWriter) error {
					return fw.writeResponse(resp.seq, resp.code, resp.msg, resp.detail, resp.payload)
				})
				if !bytes.Equal(again, data[:n]) {
					t.Fatalf("response frame re-encodes differently:\ninput: %x\nagain: %x", data[:n], again)
				}
			}
		}
	})
}
