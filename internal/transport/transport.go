// Package transport is the RPC layer between Wiera components and Tiera
// instances — the repository's Apache Thrift substitute. It defines a small
// request/response contract and two interchangeable implementations:
//
//   - Fabric: in-process endpoints connected through the simulated WAN
//     (internal/simnet), so every call pays the region-to-region latency and
//     bandwidth cost. All experiments run on this.
//   - TCP (tcp.go): a real wire transport, one fixed binary frame per call
//     (sequence ID, method or status, payload), used by the cmd/wiera daemon
//     and cmd/wieractl client.
//
// Payloads are opaque bytes; callers encode typed messages with the
// Encode/Decode helpers. A message's type alone decides its encoding:
// per-op messages (put/get/batch/repair/ec, the daemon's proxy envelope,
// the coord lock) implement wire.Marshaler and travel as internal/wire
// frames, everything else uses encoding/gob (see DESIGN.md §13). A failed call comes back as a RemoteError carrying the
// handler error's status code and detail.
//
// Both implementations carry distributed-trace context across calls: when
// the caller's context holds a telemetry span, its SpanContext is prepended
// to the payload (telemetry.WrapPayload) and the receiving side starts a
// linked server span before dispatching to the handler. Untraced payloads
// pass through untouched, so instrumented and uninstrumented parties
// interoperate.
package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"repro/internal/flight"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/watch"
	"repro/internal/wire"
)

// Handler serves one method invocation. The context carries the server-side
// trace span (if the caller propagated one). Returning an error transmits
// its text, and the status it declares (wire.Coded), to the caller.
type Handler func(ctx context.Context, method string, payload []byte) ([]byte, error)

// Caller issues RPCs to a named endpoint.
type Caller interface {
	// Call invokes method on the endpoint named dst with payload and
	// returns its response. The context's trace span (if any) propagates to
	// the callee.
	Call(ctx context.Context, dst, method string, payload []byte) ([]byte, error)
}

// Transport-level errors.
var (
	// ErrNoEndpoint reports an unknown destination name.
	ErrNoEndpoint = errors.New("transport: no such endpoint")
	// ErrClosed reports a closed endpoint or fabric.
	ErrClosed = errors.New("transport: closed")
)

// RemoteError is an error returned by a remote handler, as opposed to a
// transport failure. Code and Detail are what the handler's error declared
// (wire.CodeError and nil when it declared nothing); Msg is its text, for
// people only.
type RemoteError struct {
	Code   wire.Code
	Msg    string
	Detail []byte
}

// Error implements error.
func (e RemoteError) Error() string { return "transport: remote error: " + e.Msg }

// WireStatus implements wire.Coded, so a handler that returns (or wraps) a
// RemoteError from a forwarded call hands its caller the original status.
func (e RemoteError) WireStatus() (wire.Code, []byte) { return e.Code, e.Detail }

// remoteError is what a caller receives for a handler's non-nil error.
func remoteError(herr error) RemoteError {
	code, detail := wire.CodeOf(herr)
	return RemoteError{Code: code, Msg: herr.Error(), Detail: detail}
}

// Fabric connects in-process endpoints through the simulated WAN. Every
// call sleeps for the simnet transfer time of its request and response
// bodies between the caller's and callee's regions. Safe for concurrent
// use.
//
// A Fabric owns the process's telemetry by default: a metrics Registry and
// a Tracer running on the simnet clock, shared by every layer above it.
// Use WithTelemetry to share an external pair or WithoutTelemetry to run
// bare (e.g. for overhead benchmarks).
type Fabric struct {
	net       *simnet.Network
	metrics   *telemetry.Registry
	tracer    *telemetry.Tracer
	flightRec *flight.Recorder
	journal   *watch.Journal

	// server is the callee side of every call (rpc.go), built in NewFabric
	// once the options have settled the registry and the tracer.
	server *rpcServer

	mu        sync.RWMutex
	endpoints map[string]*Endpoint
	closed    bool
}

// FabricOption configures NewFabric.
type FabricOption func(*Fabric)

// WithTelemetry makes the fabric record into an externally owned registry
// and tracer (either may be nil to disable that half).
func WithTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) FabricOption {
	return func(f *Fabric) {
		f.metrics = reg
		f.tracer = tr
	}
}

// WithoutTelemetry disables the fabric's default registry, tracer, flight
// recorder, and event journal; calls pay only a nil check.
func WithoutTelemetry() FabricOption {
	return func(f *Fabric) {
		f.metrics = nil
		f.tracer = nil
		f.flightRec = nil
		f.journal = nil
	}
}

// WithJournal replaces the fabric's default event journal (nil disables
// structured event recording).
func WithJournal(j *watch.Journal) FabricOption {
	return func(f *Fabric) { f.journal = j }
}

// WithFlightRecorder replaces the fabric's default flight recorder (nil
// disables per-request flight records while keeping metrics and traces).
func WithFlightRecorder(r *flight.Recorder) FabricOption {
	return func(f *Fabric) { f.flightRec = r }
}

// NewFabric returns a fabric over net. Unless configured otherwise it
// creates a fresh telemetry registry plus a tracer timestamping spans with
// the network's clock (so span durations line up with simulated latency),
// and instruments net's transfers into the registry.
func NewFabric(net *simnet.Network, opts ...FabricOption) *Fabric {
	f := &Fabric{net: net, endpoints: make(map[string]*Endpoint)}
	f.metrics = telemetry.NewRegistry()
	f.tracer = telemetry.NewTracer(telemetry.WithNow(net.Clock().Now))
	f.flightRec = flight.NewRecorder(flight.Config{Now: net.Clock().Now})
	f.journal = watch.NewJournal(net.Clock().Now, 0)
	for _, o := range opts {
		o(f)
	}
	if f.flightRec != nil && f.tracer != nil {
		// A slow request is past tracing, but its immediate successor —
		// likely hitting the same congested path — gets a guaranteed trace.
		tr := f.tracer
		f.flightRec.OnSlow(func(flight.Record) { tr.ForceSample(1) })
	}
	f.server = newRPCServer(f.metrics, f.tracer, net.Clock().Now)
	if f.metrics != nil {
		net.Instrument(f.metrics)
	}
	return f
}

// Network returns the underlying simulated WAN.
func (f *Fabric) Network() *simnet.Network { return f.net }

// Metrics returns the fabric's registry (nil when disabled).
func (f *Fabric) Metrics() *telemetry.Registry { return f.metrics }

// Tracer returns the fabric's tracer (nil when disabled).
func (f *Fabric) Tracer() *telemetry.Tracer { return f.tracer }

// Flight returns the fabric's shared request flight recorder (nil when
// disabled).
func (f *Fabric) Flight() *flight.Recorder { return f.flightRec }

// Events returns the fabric's shared structured event journal (nil when
// disabled). Every layer above the fabric records what it did to the
// deployment here: ring epochs, autoscale actions, SLO transitions,
// hot-key promotions, repair cycles, watchdog trips.
func (f *Fabric) Events() *watch.Journal { return f.journal }

// Endpoint is one addressable party on a Fabric.
type Endpoint struct {
	fabric  *Fabric
	name    string
	region  simnet.Region
	mu      sync.RWMutex
	handler Handler
	closed  bool
}

// NewEndpoint registers a new endpoint with a unique name in region.
func (f *Fabric) NewEndpoint(name string, region simnet.Region) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if _, ok := f.endpoints[name]; ok {
		return nil, fmt.Errorf("transport: endpoint %q already registered", name)
	}
	ep := &Endpoint{fabric: f, name: name, region: region}
	f.endpoints[name] = ep
	return ep, nil
}

// Remove unregisters an endpoint by name (idempotent).
func (f *Fabric) Remove(name string) {
	f.mu.Lock()
	if ep, ok := f.endpoints[name]; ok {
		ep.mu.Lock()
		ep.closed = true
		ep.mu.Unlock()
		delete(f.endpoints, name)
	}
	f.mu.Unlock()
}

// Registered reports whether an endpoint with this name currently exists.
func (f *Fabric) Registered(name string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, ok := f.endpoints[name]
	return ok
}

// Names returns the registered endpoint names (unordered).
func (f *Fabric) Names() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.endpoints))
	for n := range f.endpoints {
		out = append(out, n)
	}
	return out
}

// Close shuts down the fabric; all endpoints stop accepting calls.
func (f *Fabric) Close() {
	f.mu.Lock()
	f.closed = true
	for _, ep := range f.endpoints {
		ep.mu.Lock()
		ep.closed = true
		ep.mu.Unlock()
	}
	f.endpoints = make(map[string]*Endpoint)
	f.mu.Unlock()
}

// Name returns the endpoint's registered name.
func (e *Endpoint) Name() string { return e.name }

// Region returns the endpoint's region.
func (e *Endpoint) Region() simnet.Region { return e.region }

// Serve installs the handler invoked for incoming calls. It may be called
// again to swap handlers (used when policies change at run time).
func (e *Endpoint) Serve(h Handler) {
	e.mu.Lock()
	e.handler = h
	e.mu.Unlock()
}

// Call implements Caller. The request pays src->dst transfer time for the
// payload and dst->src time for the response. Handler errors arrive as
// RemoteError; partitions surface as simnet.ErrUnreachable.
//
// When ctx carries a trace span, Call opens an rpc.client child covering
// the whole exchange (with WAN transit times as attributes), ships its
// SpanContext inside the payload, and the callee side opens a linked
// rpc.server span around handler dispatch — exactly the span pair a real
// cross-process RPC would produce.
func (e *Endpoint) Call(ctx context.Context, dst, method string, payload []byte) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, ErrClosed
	}
	e.mu.RUnlock()

	f := e.fabric
	f.mu.RLock()
	target, ok := f.endpoints[dst]
	f.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoEndpoint, dst)
	}

	var clientSpan *telemetry.Span
	if _, sp := telemetry.StartSpan(ctx, "rpc.client"); sp != nil {
		clientSpan = sp
		clientSpan.SetAttr("method", method)
		clientSpan.SetAttr("dst", dst)
		clientSpan.SetAttr("src.region", string(e.region))
		clientSpan.SetAttr("dst.region", string(target.region))
	}
	wire := telemetry.WrapPayload(clientSpan.Context(), payload)

	clk := f.net.Clock()
	out, err := f.net.TransferTime(e.region, target.region, int64(len(wire))+int64(len(method)))
	if err != nil {
		clientSpan.SetError(err)
		clientSpan.End()
		return nil, err
	}
	clk.Sleep(out)

	target.mu.RLock()
	h := target.handler
	closed := target.closed
	target.mu.RUnlock()
	if closed || h == nil {
		err := fmt.Errorf("%w: %q has no handler", ErrNoEndpoint, dst)
		clientSpan.SetError(err)
		clientSpan.End()
		return nil, err
	}

	// Dispatch is concurrent by construction: each caller goroutine runs
	// the handler itself, so one endpoint serves many in-flight calls at
	// once — the same semantics the multiplexed TCP transport provides.
	resp, herr := f.server.dispatch(h, target.name, string(target.region), method, wire)

	back, err := f.net.TransferTime(target.region, e.region, int64(len(resp)))
	if err != nil {
		clientSpan.SetError(err)
		clientSpan.End()
		return nil, err
	}
	clk.Sleep(back)

	if clientSpan != nil {
		clientSpan.SetAttr("wan.request", out.String())
		clientSpan.SetAttr("wan.response", back.String())
	}
	if herr != nil {
		rerr := remoteError(herr)
		clientSpan.SetError(rerr)
		clientSpan.End()
		return nil, rerr
	}
	clientSpan.End()
	return resp, nil
}

// Codec and its single value survive only because the frozen benchmark
// (bench/sides.go) passes CodecAuto to AppendEncode.
type Codec uint8

// CodecAuto is the only encoding rule: see Encode.
const CodecAuto Codec = 0

// encBufPool recycles gob encode scratch buffers, which keep their grown
// capacity across uses, so Encode allocates only the returned copy (plus
// gob's own encoder state).
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decReaderPool recycles the reader wrapper gob Decode needs around its
// input.
var decReaderPool = sync.Pool{New: func() any { return bytes.NewReader(nil) }}

// Encode serializes v for use as an RPC payload: as a wire frame (a single
// exact-size allocation, no reflection) when v implements wire.Marshaler,
// with gob otherwise. The returned slice is owned by the caller.
func Encode(v any) ([]byte, error) {
	if m, ok := v.(wire.Marshaler); ok {
		return wire.Marshal(m), nil
	}
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		encBufPool.Put(buf)
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	encBufPool.Put(buf)
	return out, nil
}

// AppendEncode appends v's wire frame to dst, avoiding the allocation
// Encode pays. It reports false, leaving dst as it was, when v has no wire
// encoding; the caller then uses Encode. The first parameter is ignored; it
// stays because bench/sides.go passes it.
func AppendEncode(_ Codec, dst []byte, v any) ([]byte, bool) {
	m, ok := v.(wire.Marshaler)
	if !ok {
		return dst, false
	}
	return wire.AppendFrame(dst, m), true
}

// Decode deserializes an RPC payload into v (a pointer) with the encoding
// v's type has: a wire frame for a wire.Unmarshaler, gob for anything else.
// A payload in the other encoding is an error.
func Decode(data []byte, v any) error {
	if u, ok := v.(wire.Unmarshaler); ok {
		if err := wire.Unmarshal(data, u); err != nil {
			return fmt.Errorf("transport: decode: %w", err)
		}
		return nil
	}
	if wire.Is(data) {
		return fmt.Errorf("transport: decode: wire frame for non-wire type %T", v)
	}
	r := decReaderPool.Get().(*bytes.Reader)
	r.Reset(data)
	err := gob.NewDecoder(r).Decode(v)
	decReaderPool.Put(r)
	if err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}
