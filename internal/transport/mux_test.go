package transport

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestTCPMuxNoCrossWiring storms one client with concurrent calls and
// asserts every response matches its own request — out-of-order completion
// on the shared connection must never hand caller A caller B's payload.
func TestTCPMuxNoCrossWiring(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, method string, payload []byte) ([]byte, error) {
		// Reverse-ish delay: later requests finish first, forcing the
		// demux path to route out-of-order responses.
		if len(payload)%2 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		return []byte(method + ":" + string(payload)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := DialTCP(srv.Addr())
	defer client.Close()

	const callers = 64
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req := fmt.Sprintf("caller-%d-round-%d", id, r)
				resp, err := client.Call(context.Background(), "", "echo", []byte(req))
				if err != nil {
					errs <- err
					return
				}
				if string(resp) != "echo:"+req {
					errs <- fmt.Errorf("cross-wired response: sent %q, got %q", req, resp)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTCPMuxSingleConnection asserts the concurrent storm above rode a
// single multiplexed connection — the whole point of tagged frames is that
// concurrency no longer costs a conn per in-flight call.
func TestTCPMuxSingleConnection(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, _ string, payload []byte) ([]byte, error) {
		time.Sleep(time.Millisecond)
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := DialTCP(srv.Addr())
	defer client.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Call(context.Background(), "", "m", []byte{byte(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if d := client.Dials(); d != 1 {
		t.Fatalf("dials = %d, want 1 (multiplexed reuse)", d)
	}
}

// TestTCPMuxConnSurvivesRemoteError checks a handler error is delivered as
// RemoteError — also when its text is empty: the status code, not the text,
// says the call failed — without poisoning the shared connection for other
// callers.
func TestTCPMuxConnSurvivesRemoteError(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, method string, _ []byte) ([]byte, error) {
		switch method {
		case "fail":
			return nil, errors.New("handler boom")
		case "empty":
			return nil, errors.New("")
		}
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := DialTCP(srv.Addr())
	defer client.Close()

	if _, err := client.Call(context.Background(), "", "fail", nil); err == nil {
		t.Fatal("want RemoteError")
	} else {
		var re RemoteError
		if !errors.As(err, &re) || re.Msg != "handler boom" {
			t.Fatalf("err = %v", err)
		}
	}
	resp, err := client.Call(context.Background(), "", "empty", nil)
	var re RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeError || re.Msg != "" {
		t.Fatalf("empty-text handler error: resp=%q err=%#v, want RemoteError with CodeError", resp, err)
	}
	if resp, err := client.Call(context.Background(), "", "ok", nil); err != nil || string(resp) != "ok" {
		t.Fatalf("call after RemoteError: resp=%q err=%v", resp, err)
	}
	if d := client.Dials(); d != 1 {
		t.Fatalf("dials = %d, want 1 (RemoteError must not discard the conn)", d)
	}
}

// TestTCPMuxCloseWithInflight shuts the client down while calls are
// blocked in handlers; every in-flight caller must get an error promptly
// instead of hanging on an orphaned completion channel.
func TestTCPMuxCloseWithInflight(t *testing.T) {
	release := make(chan struct{})
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, _ string, payload []byte) ([]byte, error) {
		<-release
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)

	client := DialTCP(srv.Addr())
	const inflight = 16
	started := make(chan struct{}, inflight)
	done := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			started <- struct{}{}
			_, err := client.Call(context.Background(), "", "hang", nil)
			done <- err
		}()
	}
	for i := 0; i < inflight; i++ {
		<-started
	}
	time.Sleep(10 * time.Millisecond) // let the calls hit the wire
	client.Close()
	for i := 0; i < inflight; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("in-flight call returned nil error after Close")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight call hung after Close")
		}
	}
	if _, err := client.Call(context.Background(), "", "m", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close: err = %v, want ErrClosed", err)
	}
}

// TestTCPMuxServerCloseFailsInflight mirrors the client-side test from the
// server's side: killing the server must fail blocked callers, and a later
// call must redial-and-fail rather than deadlock.
func TestTCPMuxServerCloseFailsInflight(t *testing.T) {
	block := make(chan struct{})
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, _ string, _ []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	client := DialTCP(srv.Addr())
	defer client.Close()
	done := make(chan error, 1)
	go func() {
		_, err := client.Call(context.Background(), "", "hang", nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	// Close drains gracefully (waits for in-flight handlers), so run it
	// concurrently: killing the conns must fail the blocked caller first.
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight call survived server Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after server Close")
	}
	close(block) // release the handler so Close can finish draining
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close did not finish after handlers drained")
	}
}

// TestTCPMuxPipelining proves >1 request rides the connection at once: with
// a handler that sleeps `d`, issuing N concurrent calls must take far less
// than N*d. The serial lower bound is compared against the measured
// concurrent wall time with a 3x margin, matching the acceptance criterion.
func TestTCPMuxPipelining(t *testing.T) {
	const handlerDelay = 20 * time.Millisecond
	const calls = 16
	var inflight, peak atomic.Int64
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, _ string, _ []byte) ([]byte, error) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(handlerDelay)
		inflight.Add(-1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := DialTCP(srv.Addr())
	defer client.Close()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Call(context.Background(), "", "sleep", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	serial := time.Duration(calls) * handlerDelay // 320ms if one-at-a-time
	if elapsed > serial/3 {
		t.Fatalf("concurrent wall time %v exceeds serial/3 (%v): connection is not pipelined", elapsed, serial/3)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak in-flight on one connection = %d, want >1", p)
	}
	if d := client.Dials(); d != 1 {
		t.Fatalf("dials = %d, want 1", d)
	}
}

// TestTCPMuxWindowBound checks the client's in-flight window applies
// backpressure instead of letting unbounded callers pile onto the wire.
func TestTCPMuxWindowBound(t *testing.T) {
	release := make(chan struct{})
	var inflight, peak atomic.Int64
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, _ string, _ []byte) ([]byte, error) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		<-release
		inflight.Add(-1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := DialTCP(srv.Addr())
	defer client.Close()

	const callers = clientWindow + 32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client.Call(context.Background(), "", "hold", nil)
		}()
	}
	// Give callers time to saturate the window, then release everything.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if p := peak.Load(); p > clientWindow {
		t.Fatalf("peak in-flight %d exceeds clientWindow %d", p, clientWindow)
	}
}

// TestTCPAndFabricServeAlike drives the same calls — two plain, one traced,
// one failing — through a fabric endpoint and a TCP server and asserts both
// leave the same rpc_* samples (apart from the region label) and the same
// rpc.server span attributes: the callee side is one function.
func TestTCPAndFabricServeAlike(t *testing.T) {
	handler := func(_ context.Context, method string, p []byte) ([]byte, error) {
		if method == "fail" {
			return nil, errors.New("boom")
		}
		return append([]byte("re:"), p...), nil
	}
	drive := func(tr *telemetry.Tracer, c Caller) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if _, err := c.Call(context.Background(), "server", "echo", []byte("hello")); err != nil {
				t.Fatal(err)
			}
		}
		root := tr.StartRoot("test.op")
		if _, err := c.Call(telemetry.ContextWithSpan(context.Background(), root), "server", "echo", []byte("traced")); err != nil {
			t.Fatal(err)
		}
		root.End()
		if _, err := c.Call(context.Background(), "server", "fail", nil); err == nil {
			t.Fatal("fail call succeeded")
		}
	}
	// samples keeps the rpc_* lines whose values do not depend on timing,
	// with the region label blanked.
	samples := func(reg *telemetry.Registry, region string) []string {
		var out []string
		for _, line := range strings.Split(reg.RenderPrometheus(), "\n") {
			if !strings.HasPrefix(line, "rpc_") || strings.Contains(line, "_bucket{") || strings.HasPrefix(line, "rpc_server_seconds_sum") {
				continue
			}
			out = append(out, strings.Replace(line, `region="`+region+`"`, `region=""`, 1))
		}
		sort.Strings(out)
		return out
	}
	serverSpan := func(tr *telemetry.Tracer) map[string]string {
		for _, sp := range tr.Spans() {
			if sp.Name == "rpc.server" {
				return sp.Attrs
			}
		}
		t.Fatal("no rpc.server span")
		return nil
	}

	f := newFabric()
	defer f.Close()
	server, _ := f.NewEndpoint("server", simnet.AsiaEast)
	server.Serve(handler)
	client, _ := f.NewEndpoint("client", simnet.USEast)
	drive(f.Tracer(), client)

	reg, tr := telemetry.NewRegistry(), telemetry.NewTracer()
	srv, err := ListenTCP("127.0.0.1:0", handler, WithServerTelemetry(reg, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := DialTCP(srv.Addr())
	defer cli.Close()
	drive(tr, cli)

	fab, tcp := samples(f.Metrics(), string(simnet.AsiaEast)), samples(reg, tcpRegionLabel)
	if len(fab) < 10 || strings.Join(fab, "\n") != strings.Join(tcp, "\n") {
		t.Fatalf("rpc_* samples differ\nfabric:\n%s\ntcp:\n%s", strings.Join(fab, "\n"), strings.Join(tcp, "\n"))
	}
	if !slices.Contains(fab, `rpc_calls_total{method="echo",region=""} 3`) || !slices.Contains(fab, `rpc_errors_total{method="fail",region=""} 1`) ||
		!slices.Contains(fab, `rpc_bytes_in_total{method="echo",region=""} 16`) {
		t.Fatalf("unexpected samples:\n%s", strings.Join(fab, "\n"))
	}
	fa, ta := serverSpan(f.Tracer()), serverSpan(tr)
	if fa["method"] != "echo" || fa["endpoint"] != "server" || fa["region"] != string(simnet.AsiaEast) {
		t.Fatalf("fabric rpc.server attrs = %v", fa)
	}
	if ta["method"] != "echo" || ta["endpoint"] != srv.Addr() || ta["region"] != tcpRegionLabel {
		t.Fatalf("tcp rpc.server attrs = %v", ta)
	}
}
