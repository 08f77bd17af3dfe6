package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wiera"
)

// Regions are the three regions every workload deploys on, one worker each.
// Client i lives in Regions[i].
var Regions = []simnet.Region{simnet.USEast, simnet.USWest, simnet.EUWest}

const coordName = "zk"

// stackSeq makes instance ids unique per process: wiera keeps a process
// global node registry keyed by "<instance>/<region>".
var stackSeq atomic.Int64

// Stack is one complete in-process deployment on the zero-latency clock:
// simnet, fabric, coordination service, Wiera server, one Tiera server per
// region and a running instance of the workload's policy — the wiring of
// cmd/wiera with the clock swapped.
type Stack struct {
	Spec     Spec
	Clock    *Clock
	Fabric   *transport.Fabric
	Server   *wiera.Server
	Instance string
	Nodes    []*wiera.Node // index-aligned with Regions

	tss []*wiera.TieraServer

	samplerStop chan struct{}
	samplerDone sync.WaitGroup
	queueMax    atomic.Int64
}

// NewStack builds the deployment and starts the workload's instance.
// Telemetry on is what a deployment runs: the fabric's default registry,
// tracer and flight recorder.
func NewStack(spec Spec, telemetryOn bool) (*Stack, error) {
	clk := &Clock{}
	net := simnet.New(clk)
	var opts []transport.FabricOption
	if !telemetryOn {
		opts = append(opts, transport.WithoutTelemetry())
	}
	fabric := transport.NewFabric(net, opts...)
	s := &Stack{Spec: spec, Clock: clk, Fabric: fabric,
		Instance: fmt.Sprintf("bench%d", stackSeq.Add(1))}

	cs := coord.NewServer(clk)
	cs.AttachJournal(fabric.Events())
	zk, err := fabric.NewEndpoint(coordName, simnet.USEast)
	if err != nil {
		return nil, err
	}
	zk.Serve(cs.Handler())
	s.Server, err = wiera.NewServer(wiera.ServerConfig{Fabric: fabric, CoordDst: coordName})
	if err != nil {
		fabric.Close()
		return nil, err
	}
	for _, r := range Regions {
		ts, err := wiera.NewTieraServer(fabric, r, s.Server, coordName)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.tss = append(s.tss, ts)
	}
	s.Server.Start()

	src, err := spec.PolicySource()
	if err != nil {
		s.Close()
		return nil, err
	}
	if _, err := s.Server.StartInstances(wiera.StartInstancesRequest{
		InstanceID: s.Instance, PolicySrc: src, Params: spec.Params,
	}); err != nil {
		s.Close()
		return nil, err
	}
	for i, r := range Regions {
		n, ok := s.tss[i].Node(s.Instance + "/" + string(r))
		if !ok {
			s.Close()
			return nil, fmt.Errorf("bench: policy %q started no node in %s", spec.Policy, r)
		}
		s.Nodes = append(s.Nodes, n)
	}
	return s, nil
}

// Client registers a wiera.Client in Regions[i].
func (s *Stack) Client(i int) (*wiera.Client, error) {
	name := fmt.Sprintf("%s-cli%d", s.Instance, i)
	return wiera.NewClient(s.Fabric, name, Regions[i%len(Regions)], s.Server.Name(), s.Instance)
}

// Close tears the deployment down.
func (s *Stack) Close() {
	s.Sampler(false)
	for _, ts := range s.tss {
		ts.Close()
	}
	s.Server.Close()
	s.Fabric.Close()
}

// Settle pushes every queued update out and waits until all regions agree
// on the newest version of every key (asynchronous fragment pushes have no
// flush handle, so agreement is polled).
func (s *Stack) Settle(kt KeyTable) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		for _, n := range s.Nodes {
			n.FlushQueue()
		}
		if s.converged(kt) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s: replicas did not converge within 20s", s.Spec.Name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *Stack) converged(kt KeyTable) bool {
	for _, key := range kt.Name {
		first, err := s.Nodes[0].Local().Objects().Latest(key)
		if err != nil {
			return false
		}
		for _, n := range s.Nodes[1:] {
			m, err := n.Local().Objects().Latest(key)
			if err != nil || m.Version != first.Version ||
				!m.ModifiedAt.Equal(first.ModifiedAt) || m.Origin != first.Origin {
				return false
			}
		}
	}
	return true
}

// KeyState is the audit's view of one key after the run: what every
// region's Node.Get returns for it.
type KeyState struct {
	Found     bool   // every region returned the key
	Identical bool   // every region returned the same bytes
	Intact    bool   // the value passes CheckValue for this key
	Writer    Writer // the write every region converged on
}

// Audit reads every key through every region's Node.Get (for an
// erasure-coded key that reconstructs it from fragments).
func (s *Stack) Audit(kt KeyTable) []KeyState {
	ctx := context.Background()
	out := make([]KeyState, len(kt.Name))
	for i, key := range kt.Name {
		st := KeyState{Found: true, Identical: true}
		var first []byte
		for r, n := range s.Nodes {
			data, _, err := n.Get(ctx, key)
			if err != nil {
				st.Found, st.Identical = false, false
				break
			}
			if r == 0 {
				first = data
			} else if !bytes.Equal(first, data) {
				st.Identical = false
			}
		}
		if st.Found {
			st.Writer, st.Intact = CheckValue(first, kt.Hash[i])
		}
		out[i] = st
	}
	return out
}

// Sampler starts (on) or stops the poller of the nodes' replication queue
// depth. It runs in traced runs only: end-to-end numbers are taken with
// nothing else running in the process. Stopping waits for the poller.
func (s *Stack) Sampler(on bool) {
	if !on {
		if s.samplerStop != nil {
			close(s.samplerStop)
			s.samplerDone.Wait()
			s.samplerStop = nil
		}
		return
	}
	if s.samplerStop != nil {
		return
	}
	s.samplerStop = make(chan struct{})
	stop := s.samplerStop
	s.samplerDone.Add(1)
	go func() {
		defer s.samplerDone.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				for _, n := range s.Nodes {
					if d := int64(n.QueueDepth()); d > s.queueMax.Load() {
						s.queueMax.Store(d)
					}
				}
			}
		}
	}()
}

// Counters are cumulative read-outs of the public counters of every layer
// plus the owning process's resource use. Two snapshots bracket a phase;
// Sub gives the phase's own counts.
type Counters struct {
	Proc ProcStats

	Transfers int64 // simnet
	NetBytes  int64
	SimWaitNs int64 // the bench clock's sleep counter

	TierPuts  int64
	TierGets  int64
	TierBytes int64 // bytes used over all tiers of all regions (a level, not a count)

	RPCCalls int64 // fabric registry: rpc_calls_total
	RPCBytes int64 // rpc_bytes_in_total + rpc_bytes_out_total

	NodePuts, NodeGets     int64
	StaleReads, FreshReads int64
	ReadRepairs            int64
	HintsPending           int64 // level
	BatchFlushes           int64
	BatchUpdates           int64
	BatchBytes             int64
	ECPuts, ECReplPuts     int64
	ECReconstructs         int64
	ECGatherCancels        int64
	QueueDepthMax          int64 // level, from the sampler
	VersionsMax            int64 // level: deepest version chain of any key
}

// Counters takes a snapshot at the start or the end of a phase. The
// snapshot's own work (stats RPCs, the per-key version walk) is ordered to
// fall outside the bracket: a start snapshot reads the cheap cumulative
// counters last, an end snapshot reads them first.
func (s *Stack) Counters(start bool) (Counters, error) {
	var c Counters
	if start {
		if err := s.nodeStats(&c); err != nil {
			return c, err
		}
		// Every measured phase starts from a collected heap, so where the
		// collector's cycles fall does not depend on what set-up left behind.
		runtime.GC()
		s.cheapCounters(&c)
		c.Proc = ReadProcStats()
		return c, nil
	}
	c.Proc = ReadProcStats()
	s.cheapCounters(&c)
	if err := s.nodeStats(&c); err != nil {
		return c, err
	}
	for _, n := range s.Nodes {
		objs := n.Local().Objects()
		for _, key := range objs.Keys() {
			if vs, err := objs.VersionList(key); err == nil && int64(len(vs)) > c.VersionsMax {
				c.VersionsMax = int64(len(vs))
			}
		}
	}
	return c, nil
}

func (s *Stack) cheapCounters(c *Counters) {
	c.Transfers, c.NetBytes = s.Fabric.Network().Stats()
	c.SimWaitNs = int64(s.Clock.Slept())
	for _, n := range s.Nodes {
		for _, label := range n.Local().TierOrder() {
			if t, ok := n.Local().Tier(label); ok {
				st := t.Stats()
				c.TierPuts += st.Puts
				c.TierGets += st.Gets
				c.TierBytes += t.Used()
			}
		}
	}
	if reg := s.Fabric.Metrics(); reg != nil {
		fams := reg.Snapshot()
		c.RPCCalls = sumFamily(fams, "rpc_calls_total")
		c.RPCBytes = sumFamily(fams, "rpc_bytes_in_total") + sumFamily(fams, "rpc_bytes_out_total")
	}
	c.QueueDepthMax = s.queueMax.Load()
}

func (s *Stack) nodeStats(c *Counters) error {
	is, err := s.Server.CollectStats(s.Instance)
	if err != nil {
		return err
	}
	for _, ns := range is.Nodes {
		c.NodePuts += ns.Puts
		c.NodeGets += ns.Gets
		c.StaleReads += ns.StaleReads
		c.FreshReads += ns.FreshReads
		c.ReadRepairs += ns.ReadRepairs
		c.HintsPending += int64(ns.HintsPending)
		c.BatchFlushes += ns.BatchFlushes
		c.BatchUpdates += ns.BatchUpdates
		c.BatchBytes += ns.BatchBytes
		c.ECPuts += ns.ECPuts
		c.ECReplPuts += ns.ECReplPuts
		c.ECReconstructs += ns.ECReconstructs
		c.ECGatherCancels += ns.ECGatherCancels
	}
	return nil
}

func sumFamily(fams []telemetry.FamilySnapshot, name string) int64 {
	fam, ok := telemetry.FindFamily(fams, name)
	if !ok {
		return 0
	}
	var sum float64
	for _, m := range fam.Metrics {
		sum += m.Value
	}
	return int64(sum)
}

// Sub returns the counts accumulated between before and c. Levels
// (TierBytes, HintsPending, QueueDepthMax, VersionsMax, peak RSS) keep
// their later value.
func (c Counters) Sub(before Counters) Counters {
	d := c
	d.Proc = c.Proc.Sub(before.Proc)
	d.Transfers -= before.Transfers
	d.NetBytes -= before.NetBytes
	d.SimWaitNs -= before.SimWaitNs
	d.TierPuts -= before.TierPuts
	d.TierGets -= before.TierGets
	d.RPCCalls -= before.RPCCalls
	d.RPCBytes -= before.RPCBytes
	d.NodePuts -= before.NodePuts
	d.NodeGets -= before.NodeGets
	d.StaleReads -= before.StaleReads
	d.FreshReads -= before.FreshReads
	d.ReadRepairs -= before.ReadRepairs
	if before.HintsPending > d.HintsPending {
		d.HintsPending = before.HintsPending
	}
	d.BatchFlushes -= before.BatchFlushes
	d.BatchUpdates -= before.BatchUpdates
	d.BatchBytes -= before.BatchBytes
	d.ECPuts -= before.ECPuts
	d.ECReplPuts -= before.ECReplPuts
	d.ECReconstructs -= before.ECReconstructs
	d.ECGatherCancels -= before.ECGatherCancels
	return d
}
