package transport

import (
	"context"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// rpcServer is the callee side of a call on either transport: Fabric.Call
// and the TCP server's frame loop both hand it the handler and the payload
// as it arrived. It owns the six rpc_* metric families, labeled by method
// and the callee's region, and the tracer that continues inbound traces.
type rpcServer struct {
	tracer *telemetry.Tracer
	now    func() time.Time // the transport's clock: simulated on a fabric, wall on TCP

	latency  *telemetry.HistogramVec // service time
	calls    *telemetry.CounterVec
	errors   *telemetry.CounterVec
	inflight *telemetry.GaugeVec   // handlers currently executing
	bytesIn  *telemetry.CounterVec // request payload bytes
	bytesOut *telemetry.CounterVec // response payload bytes

	// children caches the metric children per (method, region) so dispatch
	// skips six label-join lookups on every call.
	mu       sync.RWMutex
	children map[rpcKey]*rpcChildren
}

type rpcKey struct{ method, region string }

type rpcChildren struct {
	latency  *telemetry.Histogram
	calls    *telemetry.Counter
	errors   *telemetry.Counter
	inflight *telemetry.Gauge
	bytesIn  *telemetry.Counter
	bytesOut *telemetry.Counter
}

// newRPCServer declares the rpc_* families in reg. Either of reg and tr may
// be nil: no metrics, no server spans.
func newRPCServer(reg *telemetry.Registry, tr *telemetry.Tracer, now func() time.Time) *rpcServer {
	s := &rpcServer{tracer: tr, now: now}
	if reg == nil {
		return s
	}
	s.latency = reg.Histogram("rpc_server_seconds",
		"Server-side RPC service time.", "method", "region")
	s.calls = reg.Counter("rpc_calls_total",
		"RPCs dispatched to a handler.", "method", "region")
	s.errors = reg.Counter("rpc_errors_total",
		"RPCs whose handler returned an error.", "method", "region")
	s.inflight = reg.Gauge("rpc_inflight",
		"RPCs currently executing in a handler.", "method", "region")
	s.bytesIn = reg.Counter("rpc_bytes_in_total",
		"Request payload bytes received, per RPC method.", "method", "region")
	s.bytesOut = reg.Counter("rpc_bytes_out_total",
		"Response payload bytes sent, per RPC method.", "method", "region")
	s.children = make(map[rpcKey]*rpcChildren)
	return s
}

// metrics returns the cached children for (method, region), nil without a
// registry.
func (s *rpcServer) metrics(method, region string) *rpcChildren {
	if s.children == nil {
		return nil
	}
	key := rpcKey{method, region}
	s.mu.RLock()
	c, ok := s.children[key]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.children[key]; ok {
		return c
	}
	c = &rpcChildren{
		latency:  s.latency.With(method, region),
		calls:    s.calls.With(method, region),
		errors:   s.errors.With(method, region),
		inflight: s.inflight.With(method, region),
		bytesIn:  s.bytesIn.With(method, region),
		bytesOut: s.bytesOut.With(method, region),
	}
	s.children[key] = c
	return c
}

// dispatch serves one call: it unwraps the trace envelope, opens the
// rpc.server span on a fresh context (the handler is logically in another
// process — nothing of the caller's context crosses except the
// SpanContext), invokes h and records the metrics.
func (s *rpcServer) dispatch(h Handler, endpoint, region, method string, payload []byte) ([]byte, error) {
	remote, inner := telemetry.UnwrapPayload(payload)
	ctx := context.Background()
	var span *telemetry.Span
	if remote.Valid() && s.tracer != nil {
		span = s.tracer.StartRemote(remote, "rpc.server")
		span.SetAttr("method", method)
		span.SetAttr("endpoint", endpoint)
		span.SetAttr("region", region)
		ctx = telemetry.ContextWithSpan(ctx, span)
	}
	m := s.metrics(method, region)
	if m != nil {
		m.inflight.Add(1)
	}
	start := s.now()
	resp, err := h(ctx, method, inner)
	if m != nil {
		m.inflight.Add(-1)
		// Traced calls stamp their trace ID into the latency bucket as its
		// exemplar — the fleet p99 bucket then names a concrete trace.
		trace := ""
		if remote.Valid() {
			trace = remote.Trace.String()
		}
		m.latency.RecordTrace(s.now().Sub(start), trace)
		m.calls.Inc()
		if err != nil {
			m.errors.Inc()
		}
		// Per-method WAN byte attribution: request bytes after envelope
		// stripping, response bytes as handed back to the caller. These
		// feed the cost model and `wieractl top`'s wire section.
		m.bytesIn.Add(int64(len(inner)))
		m.bytesOut.Add(int64(len(resp)))
	}
	span.SetError(err)
	span.End()
	return resp, err
}
