package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/spawn"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The TCP transport's frames (DESIGN.md §13). Every frame is a big-endian
// u32 count of the bytes after it, then a big-endian u64 sequence ID, then:
//
//	request:  uvarint len | method | payload
//	response: u8 wire.Code | uvarint len | error text | uvarint len | detail | payload
//
// The payload is the rest of the frame, as transport.Encode produced it and
// behind the caller's trace envelope exactly as on the Fabric (the server
// unwraps it before dispatch). The client stamps the sequence ID, the server
// echoes it on the matching response, and responses may arrive in any
// order, so one connection carries many in-flight calls. A response with
// code zero is a success carrying a payload; any other code is a failure
// carrying the text and detail of a RemoteError, and no payload.
//
// Buffer ownership: each frame is read into a buffer of its exact size that
// the handler goroutine (request) or the waiting caller (response) then
// owns. Payloads alias it and handlers run concurrently, so a read buffer is
// never reused.
const (
	frameLenSize = 4
	seqSize      = 8

	// maxFrame bounds the size a frame header may declare, well above the
	// largest EC fragment bundle or value any workload moves. A header past
	// it closes the connection before anything is allocated.
	maxFrame = 64 << 20

	// readBufSize is each connection's read buffer: a frame of up to this
	// size comes off the socket in one read.
	readBufSize = 64 << 10
)

// errFrameTooLarge reports a frame longer than maxFrame.
var errFrameTooLarge = errors.New("transport: frame exceeds the size limit")

func requestLen(method string, payload []byte) int {
	return seqSize + wire.SizeString(method) + len(payload)
}

func responseLen(msg string, detail, payload []byte) int {
	return seqSize + 1 + wire.SizeString(msg) + wire.SizeBytes(detail) + len(payload)
}

// frameWriter writes one connection's frames, each in a single writev
// whatever its size: a frame that left as header and payload in two writes
// would wake its peer twice. The header — with a request's method, or a
// response's error text and detail — is appended into head, which the
// writer reuses, and the payload goes out in place from the caller's slice,
// so writing a frame allocates nothing and copies no payload. The caller
// holds the connection's send lock and has checked the frame's length
// against maxFrame.
type frameWriter struct {
	w    io.Writer
	head []byte
	vec  [2][]byte // bufs' backing array: head, payload
	bufs net.Buffers
}

func (fw *frameWriter) writeRequest(seq uint64, method string, payload []byte) error {
	h := binary.BigEndian.AppendUint32(fw.head[:0], uint32(requestLen(method, payload)))
	h = binary.BigEndian.AppendUint64(h, seq)
	h = wire.AppendString(h, method)
	return fw.write(h, payload)
}

func (fw *frameWriter) writeResponse(seq uint64, code wire.Code, msg string, detail, payload []byte) error {
	h := binary.BigEndian.AppendUint32(fw.head[:0], uint32(responseLen(msg, detail, payload)))
	h = binary.BigEndian.AppendUint64(h, seq)
	h = append(h, byte(code))
	h = wire.AppendString(h, msg)
	h = wire.AppendBytes(h, detail)
	return fw.write(h, payload)
}

// write sends head and payload as one frame. WriteTo consumes bufs,
// clearing each element of vec it has written, so bufs is rebuilt over vec
// for every frame.
func (fw *frameWriter) write(head, payload []byte) error {
	fw.head = head
	fw.vec = [2][]byte{head, payload}
	fw.bufs = fw.vec[:]
	_, err := fw.bufs.WriteTo(fw.w)
	return err
}

// readFrame reads the next frame, after its length, into a new buffer of
// exactly that length. A stream that ends inside a frame is
// io.ErrUnexpectedEOF; one that ends between frames is io.EOF.
func readFrame(br *bufio.Reader) ([]byte, error) {
	hdr, err := br.Peek(frameLenSize)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("%w: header declares %d bytes", errFrameTooLarge, n)
	}
	_, _ = br.Discard(frameLenSize) // cannot fail: Peek buffered these bytes
	frame := make([]byte, n)
	if _, err := io.ReadFull(br, frame); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return frame, nil
}

// tcpRequest is a decoded request frame.
type tcpRequest struct {
	seq     uint64
	method  string
	payload []byte // aliases the frame; nil when empty
}

// parseRequest decodes a request frame (without its length).
func parseRequest(frame []byte) (tcpRequest, error) {
	if len(frame) < seqSize {
		return tcpRequest{}, fmt.Errorf("transport: request frame of %d bytes: %w", len(frame), wire.ErrTruncated)
	}
	r := wire.NewReader(frame[seqSize:])
	method := r.Bytes()
	if err := r.Err(); err != nil {
		return tcpRequest{}, fmt.Errorf("transport: request frame: %w", err)
	}
	return tcpRequest{
		seq:     binary.BigEndian.Uint64(frame),
		method:  string(method),
		payload: rest(frame, &r),
	}, nil
}

// tcpResponse is a decoded response frame: a payload on success, and the
// text and detail of a RemoteError when the code is not wire.CodeOK.
type tcpResponse struct {
	seq     uint64
	code    wire.Code
	msg     string
	detail  []byte // aliases the frame; nil when empty
	payload []byte // aliases the frame; nil when empty
}

// parseResponse decodes a response frame (without its length). A success
// that carries error text or a detail, or a failure that carries a payload,
// is corrupt: the writer never produces either.
func parseResponse(frame []byte) (tcpResponse, error) {
	if len(frame) < seqSize+1 {
		return tcpResponse{}, fmt.Errorf("transport: response frame of %d bytes: %w", len(frame), wire.ErrTruncated)
	}
	r := wire.NewReader(frame[seqSize+1:])
	msg := r.Bytes()
	detail := r.Bytes()
	if err := r.Err(); err != nil {
		return tcpResponse{}, fmt.Errorf("transport: response frame: %w", err)
	}
	resp := tcpResponse{
		seq:     binary.BigEndian.Uint64(frame),
		code:    wire.Code(frame[seqSize]),
		msg:     string(msg),
		payload: rest(frame, &r),
	}
	if len(detail) > 0 {
		resp.detail = detail
	}
	if resp.code == wire.CodeOK && (len(msg) > 0 || len(detail) > 0) || resp.code != wire.CodeOK && resp.payload != nil {
		return tcpResponse{}, fmt.Errorf("transport: response frame: code %d with text %q, %d detail and %d payload bytes: %w",
			resp.code, msg, len(detail), len(resp.payload), wire.ErrCorrupt)
	}
	return resp, nil
}

// rest returns the frame bytes r has not read: a frame's payload.
func rest(frame []byte, r *wire.Reader) []byte {
	if r.Remaining() == 0 {
		return nil
	}
	return frame[len(frame)-r.Remaining():]
}

// clientWindow bounds how many calls a client keeps in flight on one
// multiplexed connection; excess callers block until a slot frees.
const clientWindow = 128

// serverWindow bounds how many handlers one server connection runs
// concurrently (memory backstop against a misbehaving client).
const serverWindow = 256

// TCPServer serves transport handlers on a real TCP listener. It is the
// deployment-grade counterpart of the in-process Fabric, used by cmd/wiera.
// Requests on one connection are served concurrently, each on the warm
// goroutine from internal/spawn that read it, bounded by serverWindow;
// responses are written back tagged with the request's sequence ID, in
// completion order.
type TCPServer struct {
	ln      net.Listener
	addr    string
	handler Handler
	server  *rpcServer // the callee side of every frame (rpc.go)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// TCPServerOption configures ListenTCP.
type TCPServerOption func(*TCPServer)

// WithServerTelemetry makes the server record per-method RPC metrics into
// reg and continue inbound trace envelopes on tr (either may be nil).
func WithServerTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) TCPServerOption {
	return func(s *TCPServer) { s.server = newRPCServer(reg, tr, time.Now) }
}

// ListenTCP starts a server on addr ("host:port", empty port picks one) and
// serves h on every accepted connection. Connections are persistent: each
// carries a stream of tagged request/response frames served concurrently.
func ListenTCP(addr string, h Handler, opts ...TCPServerOption) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	s := &TCPServer{ln: ln, addr: ln.Addr().String(), handler: h,
		server: newRPCServer(nil, nil, time.Now), conns: make(map[net.Conn]struct{})}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *TCPServer) Addr() string { return s.addr }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		c := &serverConn{s: s, conn: conn, br: bufio.NewReaderSize(conn, readBufSize),
			fw: frameWriter{w: conn}, sem: make(chan struct{}, serverWindow)}
		c.next = c.serveNext
		spawn.Go(c.next)
	}
}

// tcpRegionLabel is the region of TCP-served RPC metrics and spans; the
// daemon's frontend is not region-pinned the way Fabric endpoints are.
const tcpRegionLabel = "tcp"

// serverConn is one accepted connection. At any time one goroutine reads
// it; each request runs on the goroutine that read it.
type serverConn struct {
	s    *TCPServer
	conn net.Conn
	br   *bufio.Reader
	next func() // serveNext, bound once so handing reading on allocates nothing

	sem      chan struct{} // handler slots
	handlers sync.WaitGroup

	writeMu sync.Mutex // guards fw: responses interleave frame-atomically
	fw      frameWriter
}

// serveNext reads the next request, hands reading on to a warm pool
// goroutine, and then serves the request on this one: a request costs no
// hand-off of its own, and the next frame is read while its handler runs,
// so the connection still pipelines. The reader that meets EOF, a broken
// connection or a bad frame closes the connection instead.
func (c *serverConn) serveNext() {
	frame, err := readFrame(c.br)
	var req tcpRequest
	if err == nil {
		req, err = parseRequest(frame)
	}
	if err != nil {
		// EOF, a broken connection, a frame past maxFrame, or a corrupt
		// frame, after which nothing on the stream can be trusted.
		c.close()
		return
	}
	c.sem <- struct{}{}
	c.handlers.Add(1)
	spawn.Go(c.next)
	c.serve(req)
	<-c.sem
	c.handlers.Done()
}

// serve runs one request's handler and writes its response.
func (c *serverConn) serve(req tcpRequest) {
	s := c.s
	out, err := s.server.dispatch(s.handler, s.addr, tcpRegionLabel, req.method, req.payload)
	if err == nil && responseLen("", nil, out) > maxFrame {
		err = fmt.Errorf("%w: response of %d bytes", errFrameTooLarge, len(out))
	}
	var re RemoteError
	if err != nil {
		re, out = remoteError(err), nil
	}
	c.writeMu.Lock()
	werr := c.fw.writeResponse(req.seq, re.Code, re.Msg, re.Detail, out)
	c.writeMu.Unlock()
	if werr != nil {
		c.conn.Close() // wake the reader; remaining handlers fail fast
	}
}

// close closes the connection once its reader has stopped, waits for the
// handlers still running, and forgets it.
func (c *serverConn) close() {
	c.conn.Close()
	c.handlers.Wait() // late handlers must not write into the next conn's map slot
	c.s.mu.Lock()
	delete(c.s.conns, c.conn)
	c.s.mu.Unlock()
	c.s.wg.Done()
}

// Close stops accepting and closes all live connections.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// TCPClient issues calls to one TCPServer over a single multiplexed
// connection: every in-flight call gets a sequence ID, frames share the
// connection, and a demux goroutine routes each tagged response to its
// waiting caller. Concurrency is bounded by clientWindow; callers past the
// window block until a slot frees. Safe for concurrent use. A broken
// connection fails all its in-flight calls and is replaced on the next
// Call.
type TCPClient struct {
	addr string

	mu     sync.Mutex
	cur    *muxConn
	dials  int // connections dialed over the client's lifetime (tests)
	closed bool
}

// muxConn is one multiplexed connection: a shared frame writer guarded by
// sendMu, a demux goroutine draining responses, and per-sequence
// completion channels.
type muxConn struct {
	conn   net.Conn
	window chan struct{} // in-flight slots

	sendMu sync.Mutex // guards fw
	fw     frameWriter

	mu      sync.Mutex
	nextSeq uint64
	pending map[uint64]chan tcpResponse
	dead    bool
	err     error // why the conn died (set once, before channels close)
}

// respChans holds idle completion channels (capacity 1). A channel goes
// back only after its caller received a response on it: one that fail
// closed is never reused.
var respChans = sync.Pool{New: func() any { return make(chan tcpResponse, 1) }}

// DialTCP returns a client for the server at addr. The connection is
// opened lazily on the first Call.
func DialTCP(addr string) *TCPClient {
	return &TCPClient{addr: addr}
}

// Call implements a single request/response exchange over the shared
// multiplexed connection. The dst parameter is ignored (a TCPClient is
// bound to one server); it exists so TCPClient can satisfy call sites
// written against Caller. A trace span carried by ctx is propagated to the
// server inside the payload.
func (c *TCPClient) Call(ctx context.Context, _ string, method string, payload []byte) ([]byte, error) {
	if sp := telemetry.SpanFromContext(ctx); sp != nil {
		payload = telemetry.WrapPayload(sp.Context(), payload)
	}
	if n := requestLen(method, payload); n > maxFrame {
		return nil, fmt.Errorf("%w: request of %d bytes", errFrameTooLarge, n)
	}
	mc, err := c.acquire()
	if err != nil {
		return nil, err
	}
	resp, err := mc.roundTrip(method, payload)
	if err != nil {
		c.discard(mc)
		return nil, err
	}
	if resp.code != wire.CodeOK {
		return nil, RemoteError{Code: resp.code, Msg: resp.msg, Detail: resp.detail}
	}
	return resp.payload, nil
}

// acquire returns the live multiplexed connection, dialing one if needed.
func (c *TCPClient) acquire() (*muxConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if mc := c.cur; mc != nil && !mc.isDead() {
		c.mu.Unlock()
		return mc, nil
	}
	c.mu.Unlock()

	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", c.addr, err)
	}
	mc := &muxConn{
		conn:    conn,
		window:  make(chan struct{}, clientWindow),
		fw:      frameWriter{w: conn},
		pending: make(map[uint64]chan tcpResponse),
	}
	go mc.demux(bufio.NewReaderSize(conn, readBufSize))

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		mc.fail(ErrClosed)
		return nil, ErrClosed
	}
	if c.cur != nil && !c.cur.isDead() {
		// A concurrent caller won the dial race; use its connection.
		cur := c.cur
		c.mu.Unlock()
		mc.fail(ErrClosed)
		return cur, nil
	}
	c.cur = mc
	c.dials++
	c.mu.Unlock()
	return mc, nil
}

// discard drops mc after a transport error so the next Call redials.
func (c *TCPClient) discard(mc *muxConn) {
	mc.fail(fmt.Errorf("transport: connection discarded"))
	c.mu.Lock()
	if c.cur == mc {
		c.cur = nil
	}
	c.mu.Unlock()
}

// Dials reports how many connections the client has opened (test hook for
// asserting connection reuse under concurrent calls).
func (c *TCPClient) Dials() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dials
}

// Close fails all in-flight calls and closes the connection.
func (c *TCPClient) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	mc := c.cur
	c.cur = nil
	c.mu.Unlock()
	if mc != nil {
		mc.fail(ErrClosed)
	}
}

// roundTrip sends one tagged frame and blocks until its response is
// demuxed back (or the connection dies).
func (mc *muxConn) roundTrip(method string, payload []byte) (tcpResponse, error) {
	mc.window <- struct{}{}
	defer func() { <-mc.window }()

	ch := respChans.Get().(chan tcpResponse)
	mc.mu.Lock()
	if mc.dead {
		err := mc.err
		mc.mu.Unlock()
		respChans.Put(ch) // never registered
		return tcpResponse{}, err
	}
	mc.nextSeq++
	seq := mc.nextSeq
	mc.pending[seq] = ch
	mc.mu.Unlock()

	mc.sendMu.Lock()
	err := mc.fw.writeRequest(seq, method, payload)
	mc.sendMu.Unlock()
	if err != nil {
		mc.mu.Lock()
		delete(mc.pending, seq)
		mc.mu.Unlock()
		mc.fail(fmt.Errorf("transport: send: %w", err))
		return tcpResponse{}, fmt.Errorf("transport: send: %w", err)
	}

	resp, ok := <-ch
	if !ok {
		mc.mu.Lock()
		err := mc.err
		mc.mu.Unlock()
		return tcpResponse{}, err
	}
	respChans.Put(ch)
	return resp, nil
}

// demux drains tagged responses off the connection and completes the
// matching callers, each of which then owns its response's frame. A read or
// decode error (EOF, server close, truncated or corrupt frame, a header past
// maxFrame) fails every pending call.
func (mc *muxConn) demux(br *bufio.Reader) {
	for {
		frame, err := readFrame(br)
		var resp tcpResponse
		if err == nil {
			resp, err = parseResponse(frame)
		}
		if err != nil {
			mc.fail(fmt.Errorf("transport: connection lost: %w", err))
			return
		}
		mc.mu.Lock()
		ch := mc.pending[resp.seq]
		delete(mc.pending, resp.seq)
		mc.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// isDead reports whether the connection has failed.
func (mc *muxConn) isDead() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.dead
}

// fail marks the connection dead with err, closes it, and completes every
// pending call with the failure (idempotent; the first error wins).
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return
	}
	mc.dead = true
	mc.err = err
	pending := mc.pending
	mc.pending = make(map[uint64]chan tcpResponse)
	mc.mu.Unlock()
	mc.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
}
