package bench

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wiera"
)

// KV is the client call a workload times.
type KV interface {
	Put(ctx context.Context, key string, val []byte) error
	Get(ctx context.Context, key string) ([]byte, error)
}

// Target is a deployment under test: a Stack in this process, or one inside
// a benchd process reached over loopback TCP.
type Target interface {
	// Clients returns the Clients closed-loop clients.
	Clients() []KV
	Settle() error
	Audit() ([]KeyState, error)
	// Counters sums the public counters of the deployment and the resource
	// use of every process in the run.
	Counters(start bool) (Counters, error)
	Sampler(on bool) error
	// Ladder replays one rung below the client, inside the deployment's
	// process.
	Ladder(req LadderRequest) (*LadderReply, error)
	Close() error
}

// fabricKV adapts a wiera.Client.
type fabricKV struct{ c *wiera.Client }

func (f fabricKV) Put(ctx context.Context, key string, val []byte) error {
	_, err := f.c.Put(ctx, key, val)
	return err
}

func (f fabricKV) Get(ctx context.Context, key string) ([]byte, error) {
	data, _, err := f.c.Get(ctx, key)
	return data, err
}

// localTarget is a Stack driven through wiera.Clients on its fabric.
type localTarget struct {
	stack   *Stack
	kt      KeyTable
	clients []KV
}

// NewLocalTarget builds an in-process deployment with client i in
// Regions[i].
func NewLocalTarget(spec Spec, telemetryOn bool) (Target, error) {
	stack, err := NewStack(spec, telemetryOn)
	if err != nil {
		return nil, err
	}
	t := &localTarget{stack: stack, kt: NewKeyTable(spec.Keys)}
	for i := 0; i < Clients; i++ {
		c, err := stack.Client(i)
		if err != nil {
			stack.Close()
			return nil, err
		}
		t.clients = append(t.clients, fabricKV{c})
	}
	return t, nil
}

func (t *localTarget) Clients() []KV                         { return t.clients }
func (t *localTarget) Settle() error                         { return t.stack.Settle(t.kt) }
func (t *localTarget) Audit() ([]KeyState, error)            { return t.stack.Audit(t.kt), nil }
func (t *localTarget) Counters(start bool) (Counters, error) { return t.stack.Counters(start) }
func (t *localTarget) Close() error                          { t.stack.Close(); return nil }

func (t *localTarget) Ladder(req LadderRequest) (*LadderReply, error) {
	return t.stack.Ladder(req)
}

func (t *localTarget) Sampler(on bool) error { t.stack.Sampler(on); return nil }

// Control methods benchd serves beside the data methods.
const (
	methodHello    = "bench.hello"
	methodSettle   = "bench.settle"
	methodAudit    = "bench.audit"
	methodStats    = "bench.stats"
	methodSampler  = "bench.sampler"
	methodLadder   = "bench.ladder"
	methodEcho     = "bench.echo"
	listenAnnounce = "benchd listening on "
)

type helloReply struct{ Instance string }
type statsRequest struct{ Start bool }
type samplerRequest struct{ On bool }
type auditReply struct{ Keys []KeyState }
type empty struct{}

// Daemon is benchd's body: a Stack behind a TCP front that wires fabric,
// coord, wiera.Server and one TieraServer per region exactly as cmd/wiera
// does, proxies the data methods through one wiera.Client the way
// cmd/wiera's frontend does (that frontend is in package main and its only
// latency control is -factor, so the ~40 lines are repeated here), and
// serves the stack's read-outs on bench.* methods.
type Daemon struct {
	stack *Stack
	kt    KeyTable
	front *wiera.Client
	tcp   *transport.TCPServer
}

// ServeDaemon builds the stack and listens on addr.
func ServeDaemon(spec Spec, telemetryOn bool, addr string) (*Daemon, error) {
	stack, err := NewStack(spec, telemetryOn)
	if err != nil {
		return nil, err
	}
	d := &Daemon{stack: stack, kt: NewKeyTable(spec.Keys)}
	// cmd/wiera's frontend holds one client per instance, in us-east.
	d.front, err = stack.Client(0)
	if err != nil {
		stack.Close()
		return nil, err
	}
	d.tcp, err = transport.ListenTCP(addr, d.handle,
		transport.WithServerTelemetry(stack.Fabric.Metrics(), stack.Fabric.Tracer()))
	if err != nil {
		stack.Close()
		return nil, err
	}
	return d, nil
}

// Addr is the daemon's listen address.
func (d *Daemon) Addr() string { return d.tcp.Addr() }

// Close stops the listener and the stack.
func (d *Daemon) Close() {
	d.tcp.Close()
	d.stack.Close()
}

func (d *Daemon) handle(ctx context.Context, method string, payload []byte) ([]byte, error) {
	switch method {
	case wiera.MethodPut, wiera.MethodGet:
		var env wiera.ProxyRequest
		if err := transport.Decode(payload, &env); err != nil {
			return nil, err
		}
		if env.InstanceID != d.stack.Instance {
			return nil, fmt.Errorf("benchd: no instance %q", env.InstanceID)
		}
		if telemetry.SpanFromContext(ctx) == nil {
			if sp := d.stack.Fabric.Tracer().SampleRoot("front." + strings.TrimPrefix(method, "wiera.")); sp != nil {
				sp.SetAttr("instance", env.InstanceID)
				defer sp.End()
				ctx = telemetry.ContextWithSpan(ctx, sp)
			}
		}
		// The second decode of the inner request, to route by its key.
		var key string
		if method == wiera.MethodPut {
			var req wiera.PutRequest
			if err := transport.Decode(env.Payload, &req); err != nil {
				return nil, err
			}
			key = req.Key
		} else {
			var req wiera.GetRequest
			if err := transport.Decode(env.Payload, &req); err != nil {
				return nil, err
			}
			key = req.Key
		}
		return d.front.CallKeyed(ctx, key, method, env.Payload)
	case methodHello:
		return transport.Encode(helloReply{Instance: d.stack.Instance})
	case methodSettle:
		if err := d.stack.Settle(d.kt); err != nil {
			return nil, err
		}
		return transport.Encode(empty{})
	case methodAudit:
		return transport.Encode(auditReply{Keys: d.stack.Audit(d.kt)})
	case methodStats:
		var req statsRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		c, err := d.stack.Counters(req.Start)
		if err != nil {
			return nil, err
		}
		return transport.Encode(c)
	case methodSampler:
		var req samplerRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		d.stack.Sampler(req.On)
		return transport.Encode(empty{})
	case methodLadder:
		var req LadderRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		reply, err := d.stack.Ladder(req)
		if err != nil {
			return nil, err
		}
		return transport.Encode(reply)
	default:
		return nil, fmt.Errorf("benchd: unknown method %q", method)
	}
}

// RunDaemon is benchd's main: serve until stdin closes, so the daemon can
// never outlive the runner that spawned it.
func RunDaemon(spec Spec, telemetryOn bool, addr string, stdin io.Reader, stdout io.Writer) error {
	d, err := ServeDaemon(spec, telemetryOn, addr)
	if err != nil {
		return err
	}
	defer d.Close()
	fmt.Fprintf(stdout, "%s%s\n", listenAnnounce, d.Addr())
	_, err = io.Copy(io.Discard, stdin)
	return err
}

// tcpKV is one client connection using the ProxyRequest envelope exactly as
// cmd/wieractl does.
type tcpKV struct {
	cli      *transport.TCPClient
	instance string
}

func (t tcpKV) proxy(ctx context.Context, method string, req, resp any) error {
	inner, err := transport.Encode(req)
	if err != nil {
		return err
	}
	payload, err := transport.Encode(wiera.ProxyRequest{InstanceID: t.instance, Payload: inner})
	if err != nil {
		return err
	}
	raw, err := t.cli.Call(ctx, "", method, payload)
	if err != nil {
		return err
	}
	return transport.Decode(raw, resp)
}

func (t tcpKV) Put(ctx context.Context, key string, val []byte) error {
	var resp wiera.PutResponse
	return t.proxy(ctx, wiera.MethodPut, wiera.PutRequest{Key: key, Data: val}, &resp)
}

func (t tcpKV) Get(ctx context.Context, key string) ([]byte, error) {
	var resp wiera.GetResponse
	err := t.proxy(ctx, wiera.MethodGet, wiera.GetRequest{Key: key}, &resp)
	return resp.Data, err
}

// remoteTarget is a benchd reached over loopback TCP: a spawned process, or
// (DaemonPath empty, the smoke test) a Daemon in this process.
type remoteTarget struct {
	cmd     *exec.Cmd
	stdin   io.Closer
	inproc  *Daemon
	ctl     *transport.TCPClient
	conns   []*transport.TCPClient
	clients []KV
}

// NewRemoteTarget starts benchd for spec and connects Clients data
// connections plus one control connection.
func NewRemoteTarget(spec Spec, telemetryOn bool, daemonPath string, quick bool) (Target, error) {
	t := &remoteTarget{}
	var addr string
	if daemonPath == "" {
		d, err := ServeDaemon(spec, telemetryOn, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		t.inproc, addr = d, d.Addr()
	} else {
		args := []string{"-workload", spec.Name, fmt.Sprintf("-telemetry=%v", telemetryOn),
			fmt.Sprintf("-quick=%v", quick)}
		t.cmd = exec.Command(daemonPath, args...)
		t.cmd.Stderr = os.Stderr
		stdin, err := t.cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := t.cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := t.cmd.Start(); err != nil {
			return nil, fmt.Errorf("bench: start %s: %w", daemonPath, err)
		}
		t.stdin = stdin
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil || !strings.HasPrefix(line, listenAnnounce) {
			t.Close()
			return nil, fmt.Errorf("bench: benchd did not announce its address (%q, %v)", line, err)
		}
		addr = strings.TrimSpace(strings.TrimPrefix(line, listenAnnounce))
	}
	t.ctl = transport.DialTCP(addr)
	var hello helloReply
	if err := t.control(methodHello, empty{}, &hello); err != nil {
		t.Close()
		return nil, err
	}
	for i := 0; i < Clients; i++ {
		c := transport.DialTCP(addr)
		t.conns = append(t.conns, c)
		t.clients = append(t.clients, tcpKV{cli: c, instance: hello.Instance})
	}
	return t, nil
}

func (t *remoteTarget) control(method string, req, resp any) error {
	payload, err := transport.Encode(req)
	if err != nil {
		return err
	}
	raw, err := t.ctl.Call(context.Background(), "", method, payload)
	if err != nil {
		return fmt.Errorf("bench: %s: %w", method, err)
	}
	return transport.Decode(raw, resp)
}

func (t *remoteTarget) Clients() []KV { return t.clients }

func (t *remoteTarget) Settle() error { return t.control(methodSettle, empty{}, &empty{}) }

func (t *remoteTarget) Audit() ([]KeyState, error) {
	var reply auditReply
	err := t.control(methodAudit, empty{}, &reply)
	return reply.Keys, err
}

func (t *remoteTarget) Sampler(on bool) error {
	return t.control(methodSampler, samplerRequest{On: on}, &empty{})
}

func (t *remoteTarget) Ladder(req LadderRequest) (*LadderReply, error) {
	var reply LadderReply
	err := t.control(methodLadder, req, &reply)
	return &reply, err
}

// Counters adds the runner's own resource use to the daemon's, so CPU and
// allocations cover every process in the run and peak RSS is the larger.
func (t *remoteTarget) Counters(start bool) (Counters, error) {
	var c Counters
	var mine ProcStats
	if !start {
		mine = ReadProcStats()
	}
	if err := t.control(methodStats, statsRequest{Start: start}, &c); err != nil {
		return c, err
	}
	if start {
		mine = ReadProcStats()
	}
	if mine.PID != c.Proc.PID {
		c.Proc.CPUNs += mine.CPUNs
		c.Proc.Mallocs += mine.Mallocs
		c.Proc.AllocBytes += mine.AllocBytes
		if mine.PeakRSSKiB > c.Proc.PeakRSSKiB {
			c.Proc.PeakRSSKiB = mine.PeakRSSKiB
		}
	}
	return c, nil
}

// Close drops the connections and stops the daemon, waiting until its
// process has ended.
func (t *remoteTarget) Close() error {
	for _, c := range t.conns {
		c.Close()
	}
	if t.ctl != nil {
		t.ctl.Close()
	}
	if t.inproc != nil {
		t.inproc.Close()
		return nil
	}
	if t.cmd == nil || t.cmd.Process == nil {
		return nil
	}
	t.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- t.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = t.cmd.Process.Kill()
		return <-done
	}
}
