package wiera

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/coord"
	"repro/internal/cost"
	"repro/internal/flight"
	"repro/internal/object"
	"repro/internal/policy"
	"repro/internal/repair"
	"repro/internal/simnet"
	"repro/internal/spawn"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/tier"
	"repro/internal/tiera"
	"repro/internal/transport"
)

// lockWait bounds how long a node waits for the global per-key lock.
const lockWait = time.Minute

// NodeConfig assembles a data-plane node: one Tiera instance plus the
// global-policy machinery around it.
type NodeConfig struct {
	// Name is the node's fabric endpoint name (unique).
	Name string
	// InstanceID is the Wiera instance this node belongs to.
	InstanceID string
	// Region places the node.
	Region simnet.Region
	// Fabric connects the node to peers, the coordination service, and the
	// Wiera server.
	Fabric *transport.Fabric
	// LocalSpec is the node's local Tiera policy.
	LocalSpec *policy.Spec
	// GlobalSpec is the Wiera policy every node of the instance shares.
	GlobalSpec *policy.Spec
	// Params is the instance's options (ParseParams): policy parameter
	// bindings, the dynamic control spec, and every tuning value with its
	// default applied. The zero Params is not usable; parse an empty map.
	Params Params
	// CoordDst names the coordination (lock) service endpoint ("" = no
	// locking available; lock actions will fail).
	CoordDst string
	// ServerDst names the Wiera server endpoint for change_policy requests
	// ("" = changes applied locally only — useful in tests).
	ServerDst string
	// Primary marks this node's view of the current primary node name.
	Primary string
	// Accountant receives tier request charges.
	Accountant *cost.Accountant
	// ExtraTiers installs pre-built tiers into the local instance, keyed by
	// tier label — the paper's modular instances (Sec 3.2.2): another
	// instance adapted as a storage tier.
	ExtraTiers map[string]tier.Tier
}

// Node is one Wiera data-plane member: a Tiera instance executing a global
// policy.
type Node struct {
	name       string
	instanceID string
	region     simnet.Region
	clk        clock.Clock
	local      *tiera.Instance
	ep         *transport.Endpoint
	fabric     *transport.Fabric
	locks      *coord.Client
	serverDst  string

	mu         sync.Mutex
	prog       *policy.Program
	policyName string
	peers      []PeerInfo // all members including self
	primary    string
	epoch      int64

	// controlEvents are the threshold (monitoring) events, fixed at node
	// creation; consistency changes do not replace them.
	controlEvents []*policy.CompiledEvent

	gate    *opGate
	queue   *updateQueue
	batch   *batcher       // chunked group-commit replication fan-out
	ecm     *ecManager     // erasure-coded distribution (stripe action)
	repair  *repairManager // nil when antiEntropy=false
	shards  *shardManager  // inert (accepts every key) until a RingMsg arrives
	heat    *heatTracker   // nil unless heatTrack (hot-key selective replication)
	tenants *tenantManager // nil unless the instance declares tenants

	latMon *thresholdMonitor // LatencyMonitoring (put)
	reqMon *requestsMonitor  // RequestsMonitoring (primary)
	sloMon *sloMonitor       // SLOViolation (slo); nil without objectives

	// flightRec is the fabric's shared per-request flight recorder (nil
	// when telemetry is disabled); sloEngine evaluates the node's declared
	// objectives (nil without objectives).
	flightRec *flight.Recorder
	sloEngine *flight.Engine

	// PutLatency records application-perceived put latency (lock + fan-out
	// included); GetLatency likewise for gets. Both are children of the
	// fabric's telemetry registry ("wiera_op_seconds"), so the values here,
	// NodeStats, and the /metrics endpoint can never disagree. Nil (no-op)
	// when the fabric runs without telemetry.
	PutLatency *telemetry.Histogram
	GetLatency *telemetry.Histogram

	// ReplLatency records background replication fan-out latency (op
	// "replicate" of wiera_op_seconds). The SLO engine's put objective
	// draws from it alongside PutLatency for the same reason the latency
	// monitor observes fan-outs: under eventual consistency application
	// puts are fast by construction, and only the fan-outs still show the
	// degraded network.
	ReplLatency *telemetry.Histogram

	staleReads *telemetry.Counter
	freshReads *telemetry.Counter
	putErrors  *telemetry.Counter
	getErrors  *telemetry.Counter
	// releaseFailures counts global-lock releases the coordination service
	// refused or never received (releaseLock).
	releaseFailures *telemetry.Counter
	queueDepth      *telemetry.Gauge
	closed          bool
}

// NewNode builds and registers a node on the fabric.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Fabric == nil {
		return nil, errors.New("wiera: fabric required")
	}
	if cfg.GlobalSpec == nil || !cfg.GlobalSpec.IsGlobal {
		return nil, errors.New("wiera: global (Wiera) spec required")
	}
	if cfg.Params.Queue.Flush <= 0 {
		return nil, errors.New("wiera: NodeConfig.Params must come from ParseParams")
	}
	clk := cfg.Fabric.Network().Clock()
	local, err := tiera.New(tiera.Config{
		Name: cfg.Name + "/local", Region: cfg.Region, Spec: cfg.LocalSpec,
		Params: cfg.Params.Policy, Clock: clk, Accountant: cfg.Accountant,
		ExtraTiers: cfg.ExtraTiers, Metrics: cfg.Fabric.Metrics(),
	})
	if err != nil {
		return nil, err
	}
	prog, err := policy.Compile(cfg.GlobalSpec, cfg.Params.Policy)
	if err != nil {
		local.Close()
		return nil, err
	}
	ep, err := cfg.Fabric.NewEndpoint(cfg.Name, cfg.Region)
	if err != nil {
		local.Close()
		return nil, err
	}
	n := &Node{
		name:       cfg.Name,
		instanceID: cfg.InstanceID,
		region:     cfg.Region,
		clk:        clk,
		local:      local,
		ep:         ep,
		fabric:     cfg.Fabric,
		serverDst:  cfg.ServerDst,
		prog:       prog,
		policyName: cfg.GlobalSpec.Name,
		primary:    cfg.Primary,
		gate:       newOpGate(),
	}
	// All node-level counters live on the fabric's registry: the same
	// children back NodeStats (collectStats) and the /metrics endpoint.
	reg := cfg.Fabric.Metrics()
	region := string(cfg.Region)
	opHist := reg.Histogram("wiera_op_seconds",
		"Application-perceived Wiera operation latency.", "op", "node", "region")
	n.PutLatency = opHist.With("put", cfg.Name, region)
	n.GetLatency = opHist.With("get", cfg.Name, region)
	n.ReplLatency = opHist.With("replicate", cfg.Name, region)
	reads := reg.Counter("wiera_reads_total",
		"Gets by freshness against the global newest version.", "node", "region", "freshness")
	n.staleReads = reads.With(cfg.Name, region, "stale")
	n.freshReads = reads.With(cfg.Name, region, "fresh")
	opErrs := reg.Counter("wiera_op_errors_total",
		"Wiera operations that returned an error to the application.", "op", "node", "region")
	n.putErrors = opErrs.With("put", cfg.Name, region)
	n.getErrors = opErrs.With("get", cfg.Name, region)
	n.releaseFailures = reg.Counter("wiera_lock_release_failures_total",
		"Global-lock releases that failed, leaving the key locked.", "node", "region").
		With(cfg.Name, region)
	n.flightRec = cfg.Fabric.Flight()
	n.queueDepth = reg.Gauge("wiera_queue_depth",
		"Keys with updates queued for lazy propagation.", "node", "region").
		With(cfg.Name, region)
	n.shards = newShardManager(n)
	n.batch = newBatcher(n, cfg.Params.Queue.MaxBatchBytes)
	n.ecm = newECManager(n, cfg)
	n.heat = newHeatTracker(n, cfg)
	n.tenants = newTenantManager(n, cfg)
	n.controlEvents = append(n.controlEvents, prog.ByKind(policy.KindThreshold)...)
	if cfg.Params.Dynamic != nil {
		dynProg, err := policy.Compile(cfg.Params.Dynamic, cfg.Params.Policy)
		if err != nil {
			local.Close()
			cfg.Fabric.Remove(cfg.Name)
			return nil, err
		}
		n.controlEvents = append(n.controlEvents, dynProg.ByKind(policy.KindThreshold)...)
	}
	if cfg.CoordDst != "" {
		cli, err := coord.NewClient(ep, cfg.CoordDst, 24*365*time.Hour)
		if err != nil {
			local.Close()
			cfg.Fabric.Remove(cfg.Name)
			return nil, fmt.Errorf("wiera: coord session: %w", err)
		}
		n.locks = cli
	}
	n.queue = newUpdateQueue(n, cfg.Params.Queue.Flush, cfg.Params.Queue.Supersede)
	if cfg.Params.Repair.AntiEntropy >= 0 {
		n.repair = newRepairManager(n, cfg)
	}
	n.latMon = newThresholdMonitor(n, "put", cfg.Params.MonitorWindow)
	n.reqMon = newRequestsMonitor(n)
	if slos := declaredSLOs(cfg.Params); len(slos) > 0 {
		n.sloMon = newSLOMonitor(n)
		n.sloEngine = flight.NewEngine(flight.EngineConfig{
			Clock:    clk,
			Interval: cfg.Params.SLO.Interval,
			Registry: reg,
			Node:     cfg.Name,
			Region:   region,
			OnStatus: n.sloMon.observe,
			Journal:  cfg.Fabric.Events(),
		}, append(n.sloObjectives(slos), n.tenants.objectives(slos)...)...)
	}
	ep.Serve(n.handle)
	n.queue.start()
	if n.repair != nil {
		n.repair.start()
	}
	n.sloEngine.Start()
	n.heat.start()
	local.Start()
	registerNode(n)
	return n, nil
}

// sloObjectives binds declared objectives to the node's own histograms and
// error counters. Latency thresholds are aligned up to a histogram bucket
// bound so good-event counts are exact rather than conservatively low.
func (n *Node) sloObjectives(objs []flight.Objective) []flight.Objective {
	out := make([]flight.Objective, 0, len(objs))
	for _, o := range objs {
		switch {
		case o.Threshold > 0 && o.Op == "put":
			// Puts plus background replication fan-outs (see ReplLatency).
			th := telemetry.AlignedBound(o.Threshold)
			o.Threshold = th
			o.Source = func() (int64, int64) {
				good := n.PutLatency.CountLE(th) + n.ReplLatency.CountLE(th)
				return good, n.PutLatency.Count() + n.ReplLatency.Count()
			}
		case o.Threshold > 0 && o.Op == "get":
			th := telemetry.AlignedBound(o.Threshold)
			o.Threshold = th
			o.Source = func() (int64, int64) {
				return n.GetLatency.CountLE(th), n.GetLatency.Count()
			}
		case o.Threshold == 0:
			// Availability: every completed op is good, every errored op bad.
			o.Op = "availability"
			o.Source = func() (int64, int64) {
				good := n.PutLatency.Count() + n.GetLatency.Count()
				return good, good + n.putErrors.Value() + n.getErrors.Value()
			}
		default:
			continue
		}
		out = append(out, o)
	}
	return out
}

// Name returns the node's endpoint name.
func (n *Node) Name() string { return n.name }

// Region returns the node's region.
func (n *Node) Region() simnet.Region { return n.region }

// Local returns the node's Tiera instance.
func (n *Node) Local() *tiera.Instance { return n.local }

// PolicyName returns the current global policy name.
func (n *Node) PolicyName() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.policyName
}

// Primary returns the node's current view of the primary instance.
func (n *Node) Primary() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primary
}

// IsPrimary reports whether this node is the primary.
func (n *Node) IsPrimary() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primary == n.name
}

// execState reads, under one lock acquisition, what an operation executes
// against: the compiled policy program and whether this node is the
// primary. Operations call it once, after the gate admits them — an
// operation parked behind a policy change must run the program the change
// installed — and pass the values down.
func (n *Node) execState() (prog *policy.Program, isPrimary bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.prog, n.primary == n.name
}

// SetPeers installs the membership list (control plane).
func (n *Node) SetPeers(peers []PeerInfo, primary string) {
	n.mu.Lock()
	n.peers = append([]PeerInfo(nil), peers...)
	if primary != "" {
		n.primary = primary
	}
	n.mu.Unlock()
}

// Peers returns the other members (excluding self).
func (n *Node) Peers() []PeerInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]PeerInfo, 0, len(n.peers))
	for _, p := range n.peers {
		if p.Name != n.name {
			out = append(out, p)
		}
	}
	return out
}

// StaleReads and FreshReads report how many gets returned data that was
// outdated (resp. current) with respect to the globally newest version at
// read time — the Fig 8 metric. Tracking happens in Get.
func (n *Node) StaleReads() int64 { return n.staleReads.Value() }

// FreshReads reports gets that returned the globally latest version.
func (n *Node) FreshReads() int64 { return n.freshReads.Value() }

// opScope is everything that surrounds a put's or a get's body, from
// admission to accounting, written once: the trace span, the flight record,
// tenant quota admission, the op gate, the weighted-fair scheduler slot, and
// on the way out the error budget and the latency observations. It lives on
// the operation's stack; begin fills it and end, deferred right after,
// releases whatever begin got as far as taking.
//
// The order is load-bearing. Admission runs before the gate so a throttled
// tenant is NACKed without consuming a slot, a lock or tier capacity. The
// gate comes before everything the body reads: an operation parked behind a
// policy change or a shard drain must see the program and the shard map
// installed meanwhile, which is why ownership and execState() belong to the
// bodies and not to the scope.
type opScope struct {
	n  *Node
	op string // "put" or "get"
	// fromApp is false for a forwarded put: it appears as an rpc hop in its
	// originator's flight record, already passed admission there, and already
	// holds its originator's scheduler slot — queueing it here could deadlock
	// two saturated nodes against each other. Only the span and the gate apply.
	fromApp bool
	span    *telemetry.Span
	fa      *flight.Active
	tid     string
	// begun is the application-perceived start. admitted excludes the time
	// blocked at the gate during a policy change: the latency monitor watches
	// the operation path, and feeding it the transition pause would read as a
	// spurious network delay.
	begun, admitted time.Time
	inGate, inWFQ   bool
}

// begin opens the scope for one operation on key carrying size bytes of
// ingress payload (0 for a get: gets spend an IOPS token only, the byte
// quota meters writes). A non-nil error is the operation's result; end must
// run either way.
func (s *opScope) begin(ctx context.Context, n *Node, op, key string, size int, fromApp bool) (context.Context, error) {
	policyName := n.PolicyName()
	*s = opScope{n: n, op: op, fromApp: fromApp, tid: n.tenants.tenantOf(key)}
	spanName := "wiera.put"
	if op == "get" {
		spanName = "wiera.get"
	}
	ctx, s.span = telemetry.StartSpan(ctx, spanName)
	s.span.SetAttr("node", n.name)
	s.span.SetAttr("region", string(n.region))
	s.span.SetAttr("policy", policyName)
	if fromApp {
		s.fa = n.flightRec.Begin(op, key, n.name, string(n.region), policyName)
		if sc := s.span.Context(); sc.Valid() {
			s.fa.SetTraceID(sc.Trace.String())
		}
		if n.tenants != nil {
			s.fa.SetTenant(s.tid)
		}
		ctx = flight.NewContext(ctx, s.fa)
		if err := n.tenants.admit(s.tid, size); err != nil {
			return ctx, err
		}
	}
	s.begun = n.clk.Now()
	parked, err := n.gate.enter()
	if err != nil {
		return ctx, err
	}
	s.inGate = true
	s.admitted = n.clk.Now()
	// Only an operation the gate actually held files a queue hop: between two
	// readings of a real clock some nanoseconds always pass.
	if parked {
		wait := s.admitted.Sub(s.begun)
		s.fa.AddHop(flight.Hop{Kind: flight.HopQueue, Name: "gate", Wait: wait, Duration: wait})
	}
	if fromApp {
		if err := n.tenants.acquire(s.tid, s.fa); err != nil {
			return ctx, err
		}
		s.inWFQ = true
	}
	return ctx, nil
}

// end closes the scope with the operation's result: *err, and *payload, the
// bytes it moved (a put's data, a get's answer).
func (s *opScope) end(err *error, payload *[]byte) {
	n := s.n
	hist, errs := n.PutLatency, n.putErrors
	if s.op == "get" {
		hist, errs = n.GetLatency, n.getErrors
	}
	// Observations happen inside the gate, so a policy change's monitor
	// reset cannot be followed by a sample taken under the old policy.
	if *err == nil && s.fromApp {
		now := n.clk.Now()
		elapsed := now.Sub(s.begun)
		hist.RecordTrace(elapsed, s.span.TraceIDString())
		if s.op == "put" {
			n.latMon.observe(now.Sub(s.admitted))
			n.reqMon.observeDirect()
		}
		n.tenants.observe(s.tid, s.op, elapsed, len(*payload))
	}
	if s.inWFQ {
		n.tenants.release()
	}
	if s.inGate {
		n.gate.exit()
	}
	// A quota NACK is admission doing its job, not an availability event: it
	// must not burn the instance's error budget.
	if *err != nil && s.fromApp && tenant.AsQuotaExceeded(*err) == nil {
		errs.Inc()
	}
	s.span.SetError(*err)
	s.fa.End(*err)
	s.span.End()
}

// Put stores data under key through the global policy.
func (n *Node) Put(ctx context.Context, key string, data []byte, tags []string) (object.Meta, error) {
	return n.put(ctx, key, data, tags, true)
}

// put is Put with fromApp distinguishing direct application puts from
// forwarded ones (see opScope).
func (n *Node) put(ctx context.Context, key string, data []byte, tags []string, fromApp bool) (_ object.Meta, retErr error) {
	var sc opScope
	ctx, retErr = sc.begin(ctx, n, "put", key, len(data), fromApp)
	defer sc.end(&retErr, &data)
	if retErr != nil {
		return object.Meta{}, retErr
	}
	// Ownership is checked inside the gate: an op parked behind a drain's
	// freeze re-evaluates against the map installed meanwhile, so no write
	// can land on a shard after its keys streamed away.
	if err := n.shards.checkKey(key); err != nil {
		return object.Meta{}, err
	}
	// First write of a not-yet-migrated key during a rebalance: continue
	// the previous owner's version history instead of restarting at v1.
	n.shards.bootstrapKey(ctx, key)
	prog, isPrimary := n.execState()

	op := &globalPutExec{ctx: ctx, n: n, key: key, data: data, tags: tags}
	op.env.BindInsert(key, int64(len(data)))
	op.env.BindPrimary(isPrimary)
	fired := false
	for _, ev := range prog.ByKind(policy.KindInsert) {
		f, err := ev.Fire(&op.env, op)
		if err != nil {
			op.releaseLockIfHeld()
			return object.Meta{}, err
		}
		fired = fired || f
	}
	if !fired || !op.hasMeta {
		// No global insert policy stored or forwarded: default local put.
		m, err := n.local.PutTagged(ctx, key, data, tags)
		if err != nil {
			return object.Meta{}, err
		}
		op.meta, op.hasMeta = m, true
	}
	n.heat.observe(key)
	n.heat.afterPut(key, op.meta, data)
	return op.meta, nil
}

// Get retrieves key's latest local version through the global policy
// (forwarding policies apply); on a local miss it falls back to the
// nearest peer holding the data. Application gets queue in the
// weighted-fair scheduler alongside puts; forwarded gets (MethodForwardGet)
// never reach Get and so bypass it on the remote side.
func (n *Node) Get(ctx context.Context, key string) (retData []byte, _ object.Meta, retErr error) {
	var sc opScope
	ctx, retErr = sc.begin(ctx, n, "get", key, 0, true)
	defer sc.end(&retErr, &retData)
	if retErr != nil {
		return nil, object.Meta{}, retErr
	}
	// A hot-key replica serves gets for keys this worker does not own: the
	// cache is consulted before the ownership NACK so clients spread across
	// owner + replicas without tripping wrong-shard redirects.
	if data, meta, ok := n.heat.serveHot(key); ok {
		n.heat.observe(key)
		sc.fa.AddHop(flight.Hop{Kind: flight.HopCache, Name: "hot-replica", Bytes: int64(len(data))})
		return data, meta, nil
	}
	if err := n.shards.checkKey(key); err != nil {
		return nil, object.Meta{}, err
	}
	n.heat.observe(key)
	prog, isPrimary := n.execState()

	// Get-forwarding policies (Sec 5.4: all gets forwarded to the AWS
	// memory instance).
	for _, ev := range prog.ByKind(policy.KindGet) {
		ge := &globalGetExec{ctx: ctx, n: n, key: key}
		ge.env.BindGet(key)
		ge.env.BindPrimary(isPrimary)
		fired, err := ev.Fire(&ge.env, ge)
		if err != nil {
			return nil, object.Meta{}, err
		}
		if fired && ge.resp != nil {
			return ge.resp.Data, ge.resp.Meta, nil
		}
	}

	data, meta, err := n.readLocal(ctx, key, nil)
	if err != nil {
		// Local miss. During an unsettled rebalance the key may still live
		// at its previous in-region owner; otherwise read from the nearest
		// group peer that has it.
		if d, m, ok := n.shards.fetchFromPrev(ctx, key); ok {
			data, meta, err = d, m, nil
		} else {
			data, meta, err = n.getFromPeers(ctx, key)
		}
		if err != nil {
			return nil, object.Meta{}, err
		}
		// Read repair: install the fetched version locally in the
		// background so the next read of key is served here. An
		// erasure-coded version must never absorb the reconstructed full
		// object (that would replace this member's fragment bundle with a
		// full copy); regenerate our own fragments from parity instead.
		if n.repair != nil {
			if meta.IsEC() {
				// A copy: capturing meta itself, which this function
				// reassigns, would move it to the heap on every get.
				u := repair.Update{Meta: meta}
				spawn.Go(func() { n.ecm.applyRepair(u) })
				sc.fa.AddHop(flight.Hop{Kind: flight.HopRepair, Name: "ec-regenerate"})
			} else {
				n.repair.absorb(meta, data)
				sc.fa.AddHop(flight.Hop{Kind: flight.HopRepair, Name: "absorb", Bytes: int64(len(data))})
			}
		}
	}
	if n.trackFreshness(meta) && n.repair != nil {
		// Read repair: a peer holds a newer version than the one just
		// returned — reconcile the key asynchronously.
		n.repair.scheduleKeyRepair(meta.Key)
		sc.fa.AddHop(flight.Hop{Kind: flight.HopRepair, Name: "key-repair"})
	}
	return data, meta, nil
}

// readLocal reads version v of key from the local instance, the latest when
// v is nil. An erasure-coded payload is a fragment bundle: any k fragments
// are gathered from the group and the object is reconstructed.
func (n *Node) readLocal(ctx context.Context, key string, v *object.Version) (data []byte, meta object.Meta, err error) {
	if v == nil {
		data, meta, err = n.local.Get(ctx, key)
	} else {
		data, meta, err = n.local.GetVersion(ctx, key, *v)
	}
	if err == nil && meta.IsEC() {
		return n.ecm.reconstruct(ctx, data, meta)
	}
	return data, meta, err
}

// trackFreshness compares the returned version against the globally
// newest version of the key across peers' indexes (oracle view for the
// Fig 8 staleness metric; no network cost is charged) and reports whether
// the read was stale — the read-repair trigger.
func (n *Node) trackFreshness(meta object.Meta) bool {
	latest := meta.Version
	// SetPeers replaces the membership slice, never edits it, so the one
	// read here is a stable snapshot.
	n.mu.Lock()
	members := n.peers
	n.mu.Unlock()
	for _, p := range members {
		if p.Name == n.name {
			continue
		}
		node := lookupNode(p.Name)
		if node == nil {
			continue
		}
		if v, ok := node.local.Objects().LatestVersion(meta.Key); ok && v > latest {
			latest = v
		}
	}
	if latest > meta.Version {
		n.staleReads.Inc()
		return true
	}
	n.freshReads.Inc()
	return false
}

// GetVersion retrieves a specific version locally.
func (n *Node) GetVersion(ctx context.Context, key string, v object.Version) ([]byte, object.Meta, error) {
	return n.local.GetVersion(ctx, key, v)
}

// VersionList lists available versions locally.
func (n *Node) VersionList(key string) ([]object.Version, error) {
	return n.local.VersionList(key)
}

// Remove deletes all versions locally and on all peers, fanning the peer
// removes out in parallel and surfacing the first failure — a remove the
// application saw succeed must not silently leave live copies behind.
// Receivers treat a missing key as already removed, so peers that never
// held the key do not turn the fan-out into an error.
func (n *Node) Remove(ctx context.Context, key string) error {
	if err := n.local.Remove(ctx, key); err != nil {
		return err
	}
	peers := n.Peers()
	if len(peers) == 0 {
		return nil
	}
	payload, err := transport.Encode(RemoveRequest{Key: key})
	if err != nil {
		return err
	}
	errs := make([]error, len(peers))
	eachPeer(peers, func(i int, p PeerInfo) {
		errs[i] = n.callPeerRaw(ctx, p.Name, MethodRemove, payload, nil)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RemoveVersion deletes one version locally.
func (n *Node) RemoveVersion(ctx context.Context, key string, v object.Version) error {
	return n.local.RemoveVersion(ctx, key, v)
}

// getFromPeers reads key from peers in ascending RTT order.
func (n *Node) getFromPeers(ctx context.Context, key string) ([]byte, object.Meta, error) {
	peers := n.Peers()
	net := n.fabric.Network()
	sort.Slice(peers, func(i, j int) bool {
		return net.RTT(n.region, peers[i].Region) < net.RTT(n.region, peers[j].Region)
	})
	payload, err := transport.Encode(GetRequest{Key: key})
	if err != nil {
		return nil, object.Meta{}, err
	}
	var lastErr error = object.ErrNotFound{Key: key}
	for _, p := range peers {
		var resp GetResponse
		if err := n.callPeerRaw(ctx, p.Name, MethodForwardGet, payload, &resp); err != nil {
			lastErr = err
			continue
		}
		return resp.Data, resp.Meta, nil
	}
	return nil, object.Meta{}, lastErr
}

// callPeer is the node's one outbound RPC: it encodes req, calls method on
// target, decodes the reply into resp (nil ignores the reply) and files the
// call as an rpc hop on ctx's flight record, if it carries one.
func (n *Node) callPeer(ctx context.Context, target, method string, req, resp any) error {
	payload, err := transport.Encode(req)
	if err != nil {
		return err
	}
	return n.callPeerRaw(ctx, target, method, payload, resp)
}

// callPeerRaw is callPeer for a request already encoded — fan-outs encode
// once and send the same payload to every peer. The hop counts the bytes
// sent and received, is priced by the target's region (free inside one
// region, inter-AWS rate otherwise; Table 4 network rates are
// class-independent, so Memory stands in for all), and carries the error
// text of a failed call: a request's slowest hop is often the one that
// failed.
func (n *Node) callPeerRaw(ctx context.Context, target, method string, payload []byte, resp any) error {
	start := n.clk.Now()
	raw, err := n.ep.Call(ctx, target, method, payload)
	if err == nil && resp != nil {
		err = transport.Decode(raw, resp)
	}
	fa := flight.FromContext(ctx)
	if fa == nil {
		return err
	}
	scope := cost.NetIntraDC
	n.mu.Lock()
	for _, p := range n.peers {
		if p.Name == target && p.Region != n.region {
			scope = cost.NetInterAWS
			break
		}
	}
	n.mu.Unlock()
	bytes := int64(len(payload) + len(raw))
	hop := flight.Hop{
		Kind: flight.HopRPC, Name: target,
		Duration: n.clk.Since(start), Bytes: bytes,
		CostUSD: cost.TransferCost(cost.ClassMemory, scope, bytes),
	}
	if method == MethodApplyUpdateBatch {
		hop.Name = "batch:" + target // one hop stands for a whole chunk of updates
	}
	if err != nil {
		hop.Err = err.Error()
	}
	fa.AddHop(hop)
	return err
}

// fanOutSync pushes an update to every peer synchronously, in parallel,
// returning when all have acknowledged (or any fails). A peer that cannot
// be reached gets the update queued as a hint, so an acknowledged write is
// never lost to a partition or crash: the repair daemon replays it when the
// peer answers pings again.
func (n *Node) fanOutSync(ctx context.Context, msg UpdateMsg) error {
	peers := n.Peers()
	if len(peers) == 0 {
		return nil
	}
	payload, err := transport.Encode(msg)
	if err != nil {
		return err
	}
	errs := make([]error, len(peers))
	eachPeer(peers, func(i int, p PeerInfo) {
		errs[i] = n.callPeerRaw(ctx, p.Name, MethodApplyUpdate, payload, nil)
	})
	var firstErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if n.repair != nil {
			n.repair.addHint(peers[i].Name, msg)
		}
	}
	return firstErr
}

// eachPeer runs f(i, peers[i]) for every peer at once and returns when all
// have returned: peers[1:] on pool goroutines (internal/spawn), peers[0] on
// the caller, which would otherwise sit idle waiting. f files its result at
// index i of a slice the caller owns.
func eachPeer(peers []PeerInfo, f func(i int, p PeerInfo)) {
	if len(peers) == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(peers) - 1)
	for i := 1; i < len(peers); i++ {
		p := peers[i]
		spawn.Go(func() {
			defer wg.Done()
			f(i, p)
		})
	}
	f(0, peers[0])
	wg.Wait()
}

// handle is the node's RPC dispatcher. ctx carries the caller's trace
// span (extracted from the wire envelope by the transport layer).
func (n *Node) handle(ctx context.Context, method string, payload []byte) ([]byte, error) {
	switch method {
	case MethodPut:
		var req PutRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		meta, err := n.Put(ctx, req.Key, req.Data, req.Tags)
		if err != nil {
			return nil, err
		}
		return transport.Encode(PutResponse{Meta: meta})
	case MethodForwardPut:
		var req PutRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		n.reqMon.observeForwarded(req.From)
		meta, err := n.put(ctx, req.Key, req.Data, req.Tags, false)
		if err != nil {
			return nil, err
		}
		return transport.Encode(PutResponse{Meta: meta})
	case MethodGet:
		var req GetRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		data, meta, err := n.Get(ctx, req.Key)
		if err != nil {
			return nil, err
		}
		// A hot key's owner advertises its replica set so the client can
		// spread subsequent gets; empty clears any hint the client holds.
		return transport.Encode(GetResponse{
			Data: data, Meta: meta, HotReplicas: n.heat.replicasFor(req.Key),
		})
	case MethodForwardGet:
		var req GetRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		data, meta, err := n.readLocal(ctx, req.Key, nil)
		if err != nil {
			return nil, err
		}
		return transport.Encode(GetResponse{Data: data, Meta: meta})
	case MethodGetVersion:
		var req GetVersionRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		if err := n.shards.checkKey(req.Key); err != nil {
			return nil, err
		}
		data, meta, err := n.readLocal(ctx, req.Key, &req.Version)
		if err != nil {
			return nil, err
		}
		return transport.Encode(GetResponse{Data: data, Meta: meta})
	case MethodVersionList:
		var req VersionListRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		if err := n.shards.checkKey(req.Key); err != nil {
			return nil, err
		}
		vs, err := n.VersionList(req.Key)
		if err != nil {
			return nil, err
		}
		return transport.Encode(VersionListResponse{Versions: vs})
	case MethodRemove:
		var req RemoveRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		// Group peers hold the same shard, so the ownership check holds for
		// both application removes and the owner's fan-out.
		if err := n.shards.checkKey(req.Key); err != nil {
			return nil, err
		}
		// Remote-initiated removes are local-only (no re-broadcast) and
		// idempotent: a key this replica never stored is already removed,
		// not an error the originator's fan-out should surface.
		if err := n.local.Remove(ctx, req.Key); err != nil {
			var nf object.ErrNotFound
			if !errors.As(err, &nf) {
				return nil, err
			}
		}
		return transport.Encode(Empty{})
	case MethodRemoveVer:
		var req RemoveVersionRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		if err := n.shards.checkKey(req.Key); err != nil {
			return nil, err
		}
		if err := n.RemoveVersion(ctx, req.Key, req.Version); err != nil {
			return nil, err
		}
		return transport.Encode(Empty{})
	case MethodApplyUpdate:
		var msg UpdateMsg
		if err := transport.Decode(payload, &msg); err != nil {
			return nil, err
		}
		// Replica updates for keys this shard no longer owns (hint replays,
		// queued fan-outs from before a rebalance) redirect to the owner.
		accepted, err := n.shards.applyOrForward(ctx, msg)
		if err != nil {
			return nil, err
		}
		return transport.Encode(UpdateAck{Accepted: accepted})
	case MethodApplyUpdateBatch:
		var req UpdateBatchRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		// Entries are independent: each applies (or forwards) under LWW and
		// acks individually, so one bad entry fails only itself and the
		// sender retries/hints just that entry.
		resp := UpdateBatchResponse{Acks: make([]BatchAck, len(req.Updates))}
		for i, msg := range req.Updates {
			accepted, err := n.shards.applyOrForward(ctx, msg)
			if err != nil {
				resp.Acks[i].Err = err.Error()
				continue
			}
			resp.Acks[i].Accepted = accepted
		}
		return transport.Encode(resp)
	case MethodECFrag:
		return n.ecm.handleECFrag(ctx, payload)
	case MethodPlacement:
		var req PlacementRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		if err := n.shards.checkKey(req.Key); err != nil {
			return nil, err
		}
		return n.ecm.handlePlacement(ctx, req.Key)
	case MethodPlacementLocal:
		var req PlacementRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		return transport.Encode(n.ecm.placementLocal(req.Key))
	case MethodHotInstall:
		var msg HotInstallMsg
		if err := transport.Decode(payload, &msg); err != nil {
			return nil, err
		}
		if n.heat == nil {
			return nil, fmt.Errorf("wiera: node %s: heat tracking disabled", n.name)
		}
		n.heat.handleInstall(msg)
		return transport.Encode(Empty{})
	case MethodHotDrop:
		var msg HotDropMsg
		if err := transport.Decode(payload, &msg); err != nil {
			return nil, err
		}
		n.heat.handleDrop(msg.Key)
		return transport.Encode(Empty{})
	case MethodSnapshot:
		return n.snapshot(ctx)
	case MethodRepairDigest, MethodRepairEntries, MethodRepairPull, MethodRepairPush:
		if n.repair == nil {
			return nil, fmt.Errorf("wiera: node %s: repair subsystem disabled", n.name)
		}
		return n.repair.handle(ctx, method, payload)
	case MethodSetPeers:
		var msg PeersMsg
		if err := transport.Decode(payload, &msg); err != nil {
			return nil, err
		}
		n.SetPeers(msg.Peers, msg.Primary)
		return transport.Encode(Empty{})
	case MethodSetRing:
		var msg RingMsg
		if err := transport.Decode(payload, &msg); err != nil {
			return nil, err
		}
		n.shards.install(msg)
		return transport.Encode(Empty{})
	case MethodRingDrain:
		moved, err := n.shards.drain(ctx)
		if err != nil {
			return nil, err
		}
		return transport.Encode(RingDrainResponse{Moved: moved})
	case MethodSetPrimary:
		var msg SetPrimaryMsg
		if err := transport.Decode(payload, &msg); err != nil {
			return nil, err
		}
		n.mu.Lock()
		n.primary = msg.Primary
		n.mu.Unlock()
		n.reqMon.reset()
		n.sloMon.reset()
		return transport.Encode(Empty{})
	case MethodPrepareChange:
		var msg PrepareChangeMsg
		if err := transport.Decode(payload, &msg); err != nil {
			return nil, err
		}
		if err := n.prepareChange(msg.Epoch); err != nil {
			return nil, err
		}
		return transport.Encode(Empty{})
	case MethodCommitChange:
		var msg CommitChangeMsg
		if err := transport.Decode(payload, &msg); err != nil {
			return nil, err
		}
		if err := n.commitChange(msg); err != nil {
			return nil, err
		}
		return transport.Encode(Empty{})
	case MethodStats:
		return transport.Encode(n.statsLocal())
	case MethodPing:
		return transport.Encode(PongMsg{Name: n.name})
	case MethodShutdown:
		go n.Close()
		return transport.Encode(Empty{})
	default:
		return nil, fmt.Errorf("wiera: node %s: unknown method %q", n.name, method)
	}
}

// snapshot serializes every key's latest version for new-replica sync.
func (n *Node) snapshot(ctx context.Context) ([]byte, error) {
	var resp SnapshotResponse
	for _, key := range n.local.Objects().Keys() {
		meta, err := n.local.Objects().Latest(key)
		if err != nil {
			continue
		}
		data, _, err := n.local.GetVersion(ctx, key, meta.Version)
		if err != nil {
			continue
		}
		resp.Updates = append(resp.Updates, UpdateMsg{Meta: meta, Data: data})
	}
	return transport.Encode(resp)
}

// SyncFrom pulls a full snapshot from peer and applies it (new replica
// bootstrap, Sec 4.4).
func (n *Node) SyncFrom(peer string) error {
	ctx := context.Background()
	var resp SnapshotResponse
	if err := n.callPeer(ctx, peer, MethodSnapshot, SnapshotRequest{}, &resp); err != nil {
		return err
	}
	for _, u := range resp.Updates {
		if _, err := n.local.ApplyRemote(ctx, u.Meta, u.Data); err != nil {
			return err
		}
	}
	return nil
}

// FlushQueue synchronously distributes every queued update (the queue
// response's lazy propagation, forced now). Experiments use it to measure
// one flush's wall clock instead of waiting out the background period.
func (n *Node) FlushQueue() { n.queue.flushNow() }

// QueueDepth reports how many keys currently have queued updates.
func (n *Node) QueueDepth() int { return n.queue.Len() }

// prepareChange drains in-flight operations and the update queue, then
// blocks new operations until commitChange.
func (n *Node) prepareChange(epoch int64) error {
	n.mu.Lock()
	if epoch <= n.epoch {
		n.mu.Unlock()
		return fmt.Errorf("wiera: stale change epoch %d (at %d)", epoch, n.epoch)
	}
	n.mu.Unlock()
	n.gate.freeze()
	n.queue.flushNow()
	return nil
}

// commitChange installs the new policy and unblocks operations.
func (n *Node) commitChange(msg CommitChangeMsg) error {
	var spec *policy.Spec
	var err error
	if msg.PolicyName != "" {
		spec, err = policy.Builtin(msg.PolicyName)
	} else {
		spec, err = policy.Parse(msg.PolicySrc)
	}
	if err != nil {
		n.gate.thaw()
		return err
	}
	prog, err := policy.Compile(spec, nil)
	if err != nil {
		n.gate.thaw()
		return err
	}
	n.mu.Lock()
	n.prog = prog
	n.policyName = spec.Name
	n.epoch = msg.Epoch
	if msg.Primary != "" {
		n.primary = msg.Primary
	}
	n.mu.Unlock()
	n.latMon.reset()
	n.sloMon.reset()
	if msg.Primary != "" {
		n.reqMon.reset()
	}
	n.gate.thaw()
	return nil
}

// requestPolicyChange asks the Wiera server to change the policy (the
// change_policy response, Sec 4.3). Without a server the change applies
// locally (single-node tests).
func (n *Node) requestPolicyChange(what, to string) error {
	return n.requestPolicyChangeVia(what, to, "")
}

// requestPolicyChangeVia additionally records which monitor triggered the
// change ("latency", "primary", "slo", ...) so the server's change log can
// attribute every switch to its cause.
func (n *Node) requestPolicyChangeVia(what, to, via string) error {
	if n.serverDst == "" {
		switch what {
		case "consistency":
			return n.commitChange(CommitChangeMsg{Epoch: n.epoch + 1, PolicyName: to})
		case "primary_instance":
			n.mu.Lock()
			n.primary = to
			n.mu.Unlock()
			return nil
		default:
			return fmt.Errorf("wiera: unknown change_policy target %q", what)
		}
	}
	return n.callPeer(context.Background(), n.serverDst, MethodRequestChange, ChangeRequestMsg{
		InstanceID: n.instanceID, What: what, To: to, From: n.name, Via: via,
	}, nil)
}

// Close stops the node and removes it from the fabric.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.gate.kill() // unblock any operation parked behind a policy change
	n.tenants.close()
	n.queue.stop()
	n.sloEngine.Stop()
	n.heat.stopLoop()
	if n.repair != nil {
		n.repair.stop()
	}
	if n.locks != nil {
		_ = n.locks.Close()
	}
	n.fabric.Remove(n.name)
	unregisterNode(n.name)
	return n.local.Close()
}

// Crash simulates an abrupt node failure: the endpoint vanishes and
// volatile tiers lose data, but no clean shutdown runs.
func (n *Node) Crash() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.gate.kill()
	n.tenants.close()
	n.queue.stop()
	n.sloEngine.Stop()
	n.heat.stopLoop()
	if n.repair != nil {
		// Hints are in memory and die with the node; the respawned node
		// bootstraps from its peers and the Merkle sync covers the rest.
		n.repair.stop()
	}
	n.fabric.Remove(n.name)
	unregisterNode(n.name)
	n.local.CrashVolatile()
	n.local.Stop()
}

// resolveTarget maps policy target names to node names: primary_instance,
// an explicit node name, or a region name (the node in that region).
func (n *Node) resolveTarget(target string) (string, error) {
	switch target {
	case "primary_instance":
		p := n.Primary()
		if p == "" {
			return "", errors.New("wiera: no primary configured")
		}
		return p, nil
	case "local_instance":
		return n.name, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.peers {
		if p.Name == target || string(p.Region) == target {
			return p.Name, nil
		}
	}
	// Fall back to treating the target as a raw endpoint name.
	if strings.TrimSpace(target) != "" {
		return target, nil
	}
	return "", fmt.Errorf("wiera: cannot resolve target %q", target)
}

// nodeRegistry maps node names to live Nodes in this process, giving the
// staleness oracle (Fig 8) a zero-cost global view. It is test/experiment
// instrumentation, not part of the data path.
var (
	nodeRegMu sync.Mutex
	nodeReg   = map[string]*Node{}
)

// LookupNode returns the live in-process node with the given name, or nil.
// Experiments and examples use it to reach node internals (metrics, local
// instance) without adding introspection RPCs to the protocol.
func LookupNode(name string) *Node { return lookupNode(name) }

func registerNode(n *Node)       { nodeRegMu.Lock(); nodeReg[n.name] = n; nodeRegMu.Unlock() }
func unregisterNode(name string) { nodeRegMu.Lock(); delete(nodeReg, name); nodeRegMu.Unlock() }
func lookupNode(name string) *Node {
	nodeRegMu.Lock()
	defer nodeRegMu.Unlock()
	return nodeReg[name]
}
