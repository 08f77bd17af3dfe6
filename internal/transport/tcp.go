package transport

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// wireRequest/wireResponse are the gob frame types of the TCP transport.
// Frames are tagged with a sequence ID so one connection carries many
// in-flight calls: the client stamps Seq, the server echoes it on the
// matching response, and responses may arrive in any order. The conn's gob
// encoder/decoder pair persists for its lifetime, so type descriptors
// cross the wire once per connection, not once per frame.
//
// The Payload may carry a telemetry trace envelope exactly as on the
// Fabric transport — the server unwraps it before dispatch.
type wireRequest struct {
	Seq     uint64
	Method  string
	Payload []byte
}

// A response with Code zero is a success carrying Payload; any other Code
// is a failure carrying Err (text) and Detail, the fields of RemoteError.
type wireResponse struct {
	Seq     uint64
	Payload []byte
	Err     string
	Code    wire.Code
	Detail  []byte
}

// clientWindow bounds how many calls a client keeps in flight on one
// multiplexed connection; excess callers block until a slot frees.
const clientWindow = 128

// serverWindow bounds how many handlers one server connection runs
// concurrently (memory backstop against a misbehaving client).
const serverWindow = 256

// TCPServer serves transport handlers on a real TCP listener. It is the
// deployment-grade counterpart of the in-process Fabric, used by cmd/wiera.
// Requests on one connection are served concurrently (each in its own
// goroutine, bounded by serverWindow); responses are written back tagged
// with the request's sequence ID, in completion order.
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
		go s.serveConn(conn)
	}
}

// tcpRegionLabel is the region of TCP-served RPC metrics and spans; the
// daemon's frontend is not region-pinned the way Fabric endpoints are.
const tcpRegionLabel = "tcp"

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	var (
		handlers sync.WaitGroup
		writeMu  sync.Mutex // guards enc + bw: responses interleave frame-atomically
	)
	defer func() {
		conn.Close()
		handlers.Wait() // late handlers must not write into the next conn's map slot
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	dec := gob.NewDecoder(br)
	enc := gob.NewEncoder(bw)
	sem := make(chan struct{}, serverWindow)
	for {
		var req wireRequest
		if err := dec.Decode(&req); err != nil {
			return // EOF or broken connection
		}
		sem <- struct{}{}
		handlers.Add(1)
		go func(req wireRequest) {
			defer handlers.Done()
			defer func() { <-sem }()
			resp := wireResponse{Seq: req.Seq}
			out, err := s.server.dispatch(s.handler, s.addr, tcpRegionLabel, req.Method, req.Payload)
			if err != nil {
				re := remoteError(err)
				resp.Code, resp.Err, resp.Detail = re.Code, re.Msg, re.Detail
			} else {
				resp.Payload = out
			}
			writeMu.Lock()
			werr := enc.Encode(&resp)
			if werr == nil {
				werr = bw.Flush()
			}
			writeMu.Unlock()
			if werr != nil {
				conn.Close() // wake the read loop; remaining handlers fail fast
			}
		}(req)
	}
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
// connection's persistent gob streams, and a demux goroutine routes each
// tagged response to its waiting caller. Concurrency is bounded by
// clientWindow; callers past the window block until a slot frees. Safe for
// concurrent use. A broken connection fails all its in-flight calls and is
// replaced on the next Call.
type TCPClient struct {
	addr string

	mu     sync.Mutex
	cur    *muxConn
	dials  int // connections dialed over the client's lifetime (tests)
	closed bool
}

// muxConn is one multiplexed connection: a shared encoder guarded by
// sendMu, a demux goroutine draining responses, and per-sequence completion
// channels.
type muxConn struct {
	conn   net.Conn
	window chan struct{} // in-flight slots

	sendMu sync.Mutex // guards enc + bw
	enc    *gob.Encoder
	bw     *bufio.Writer

	mu      sync.Mutex
	nextSeq uint64
	pending map[uint64]chan *wireResponse
	dead    bool
	err     error // why the conn died (set once, before channels close)
}

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
	mc, err := c.acquire()
	if err != nil {
		return nil, err
	}
	resp, err := mc.roundTrip(method, payload)
	if err != nil {
		c.discard(mc)
		return nil, err
	}
	if resp.Code != wire.CodeOK {
		return nil, RemoteError{Code: resp.Code, Msg: resp.Err, Detail: resp.Detail}
	}
	return resp.Payload, nil
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
	bw := bufio.NewWriter(conn)
	mc := &muxConn{
		conn:    conn,
		window:  make(chan struct{}, clientWindow),
		enc:     gob.NewEncoder(bw),
		bw:      bw,
		pending: make(map[uint64]chan *wireResponse),
	}
	dec := gob.NewDecoder(bufio.NewReader(conn))
	go mc.demux(dec)

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
func (mc *muxConn) roundTrip(method string, payload []byte) (*wireResponse, error) {
	mc.window <- struct{}{}
	defer func() { <-mc.window }()

	ch := make(chan *wireResponse, 1)
	mc.mu.Lock()
	if mc.dead {
		err := mc.err
		mc.mu.Unlock()
		return nil, err
	}
	mc.nextSeq++
	seq := mc.nextSeq
	mc.pending[seq] = ch
	mc.mu.Unlock()

	mc.sendMu.Lock()
	err := mc.enc.Encode(wireRequest{Seq: seq, Method: method, Payload: payload})
	if err == nil {
		err = mc.bw.Flush()
	}
	mc.sendMu.Unlock()
	if err != nil {
		mc.mu.Lock()
		delete(mc.pending, seq)
		mc.mu.Unlock()
		mc.fail(fmt.Errorf("transport: send: %w", err))
		return nil, fmt.Errorf("transport: send: %w", err)
	}

	resp, ok := <-ch
	if !ok {
		mc.mu.Lock()
		err := mc.err
		mc.mu.Unlock()
		return nil, err
	}
	return resp, nil
}

// demux drains tagged responses off the connection and completes the
// matching callers. A decode error (EOF, server close, corrupt stream)
// fails every pending call.
func (mc *muxConn) demux(dec *gob.Decoder) {
	for {
		var resp wireResponse
		if err := dec.Decode(&resp); err != nil {
			mc.fail(fmt.Errorf("transport: connection closed by server: %w", err))
			return
		}
		mc.mu.Lock()
		ch := mc.pending[resp.Seq]
		delete(mc.pending, resp.Seq)
		mc.mu.Unlock()
		if ch != nil {
			ch <- &resp
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
	mc.pending = make(map[uint64]chan *wireResponse)
	mc.mu.Unlock()
	mc.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
}
