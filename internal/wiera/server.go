package wiera

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/coord"
	"repro/internal/policy"
	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/tier"
	"repro/internal/tiera"
	"repro/internal/transport"
)

// ServerConfig assembles the Wiera control plane.
type ServerConfig struct {
	// Fabric connects the server to Tiera servers and nodes.
	Fabric *transport.Fabric
	// Name is the server's endpoint name (default "wiera").
	Name string
	// Region places the server (the paper runs it in US-East).
	Region simnet.Region
	// CoordDst names the coordination service endpoint nodes should use
	// for global locks ("" disables locking).
	CoordDst string
	// HeartbeatEvery is the TSM ping period (default 5s clock time).
	HeartbeatEvery time.Duration
	// DefaultWorkers is the per-region worker pool size of an instance
	// started without the workers option (default 1).
	DefaultWorkers int
}

// Server is the Wiera control plane: the WUI application API (Table 1),
// the Global Policy Manager holding policy metadata, the Tiera Server
// Manager tracking per-region Tiera servers, and one Tiera Instance
// Manager per running Wiera instance. The server never carries object
// data.
type Server struct {
	name     string
	region   simnet.Region
	fabric   *transport.Fabric
	ep       *transport.Endpoint
	coordDst string
	hbEvery  time.Duration
	// defaultWorkers is ServerConfig.DefaultWorkers, at least 1.
	defaultWorkers int

	mu           sync.Mutex
	tieraServers map[simnet.Region]string // TSM registry: region -> endpoint
	instances    map[string]*instanceState
	changeLog    []ChangeEvent
	stopCh       chan struct{}
	started      bool
}

// ChangeEvent records one applied run-time policy change (consistency swap
// or primary move) — the timeline data behind the paper's Fig 7.
type ChangeEvent struct {
	At         time.Time
	InstanceID string
	What       string
	To         string
	From       string // requesting node
	Via        string // triggering monitor ("latency", "primary", "slo", ...)
}

// instanceState is one TIM: the metadata of a running Wiera instance.
type instanceState struct {
	id          string
	globalSrc   string
	params      Params
	policyName  string // current data-plane policy
	primary     string
	epoch       int64
	minReplicas int
	nodes       []PeerInfo
	plans       []regionPlan // for respawning failed replicas
	changing    bool

	// Every instance runs on a shard map; one worker per region is its
	// one-shard case. Worker i across all regions forms shard group i: it
	// receives its own membership list and primary, and the per-key policy
	// machinery runs inside the group.
	ringMap       *ring.Map
	primaryRegion simnet.Region // region whose workers lead their groups
	rebalancing   bool

	// autoctl is the instance's elastic autoscaler (nil unless the
	// autoscale param asked for one). It consumes the aggregated stats
	// signals and actuates AddWorker/RemoveWorker itself.
	autoctl *autoscale.Controller
}

// regionPlan records how to (re)spawn one member.
type regionPlan struct {
	Region  simnet.Region
	Local   *policy.Spec      // the local policy with the region's tier overrides applied
	Params  map[string]string // the instance's options as this region's nodes are sent them
	Primary bool
}

// NewServer builds and registers the control plane endpoint.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Fabric == nil {
		return nil, errors.New("wiera: fabric required")
	}
	name := cfg.Name
	if name == "" {
		name = "wiera"
	}
	region := cfg.Region
	if region == "" {
		region = simnet.USEast
	}
	ep, err := cfg.Fabric.NewEndpoint(name, region)
	if err != nil {
		return nil, err
	}
	s := &Server{
		name:           name,
		region:         region,
		fabric:         cfg.Fabric,
		ep:             ep,
		coordDst:       cfg.CoordDst,
		hbEvery:        cfg.HeartbeatEvery,
		defaultWorkers: cfg.DefaultWorkers,
		tieraServers:   make(map[simnet.Region]string),
		instances:      make(map[string]*instanceState),
	}
	if s.hbEvery <= 0 {
		s.hbEvery = 5 * time.Second
	}
	if s.defaultWorkers < 1 {
		s.defaultWorkers = 1
	}
	ep.Serve(s.handle)
	return s, nil
}

// Name returns the server endpoint name.
func (s *Server) Name() string { return s.name }

// RegisterTieraServer records a Tiera server for a region (Sec 4.1:
// "whenever a Tiera server launches, it connects to the TSM first").
func (s *Server) RegisterTieraServer(region simnet.Region, endpoint string) {
	s.mu.Lock()
	s.tieraServers[region] = endpoint
	s.mu.Unlock()
}

// handle dispatches control-plane RPCs. Control-plane operations fan out
// their own RPCs under fresh contexts (they are not part of any data-path
// trace), so the incoming ctx is not propagated further.
func (s *Server) handle(_ context.Context, method string, payload []byte) ([]byte, error) {
	switch method {
	case MethodStartInstances:
		var req StartInstancesRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		nodes, err := s.StartInstances(req)
		if err != nil {
			return nil, err
		}
		return transport.Encode(StartInstancesResponse{Nodes: nodes})
	case MethodStopInstances:
		var req StopInstancesRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		if err := s.StopInstances(req.InstanceID); err != nil {
			return nil, err
		}
		return transport.Encode(Empty{})
	case MethodGetInstances:
		var req GetInstancesRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		nodes, rm, err := s.InstanceView(req.InstanceID)
		if err != nil {
			return nil, err
		}
		return transport.Encode(StartInstancesResponse{Nodes: nodes, Ring: rm})
	case MethodCollectStats:
		var req GetInstancesRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		stats, err := s.CollectStats(req.InstanceID)
		if err != nil {
			return nil, err
		}
		return transport.Encode(stats)
	case MethodRequestChange:
		var req ChangeRequestMsg
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		if err := s.ApplyChange(req); err != nil {
			return nil, err
		}
		return transport.Encode(Empty{})
	case MethodAddWorker:
		var req GetInstancesRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		moved, err := s.AddWorker(req.InstanceID)
		if err != nil {
			return nil, err
		}
		return transport.Encode(RingDrainResponse{Moved: moved})
	case MethodRemoveWorker:
		var req GetInstancesRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		moved, err := s.RemoveWorker(req.InstanceID)
		if err != nil {
			return nil, err
		}
		return transport.Encode(RingDrainResponse{Moved: moved})
	case MethodHeatTop:
		var req HeatTopRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		entries, err := s.HeatTop(req.InstanceID, req.K)
		if err != nil {
			return nil, err
		}
		return transport.Encode(HeatTopResponse{Entries: entries})
	default:
		return nil, fmt.Errorf("wiera: server: unknown method %q", method)
	}
}

// StartInstances implements Table 1 startInstances: parse the global
// policy, spawn a Tiera instance in every declared region through that
// region's Tiera server, distribute membership, and return the node list.
func (s *Server) StartInstances(req StartInstancesRequest) ([]PeerInfo, error) {
	if req.InstanceID == "" {
		return nil, errors.New("wiera: instance id required")
	}
	globalSpec, err := policy.Parse(req.PolicySrc)
	if err != nil {
		return nil, err
	}
	if !globalSpec.IsGlobal {
		return nil, fmt.Errorf("wiera: policy %q is not a Wiera policy", globalSpec.Name)
	}
	if len(globalSpec.Regions) == 0 {
		return nil, fmt.Errorf("wiera: policy %q declares no regions", globalSpec.Name)
	}
	s.mu.Lock()
	if _, exists := s.instances[req.InstanceID]; exists {
		s.mu.Unlock()
		return nil, fmt.Errorf("wiera: instance %q already running", req.InstanceID)
	}
	s.mu.Unlock()

	plans := make([]regionPlan, 0, len(globalSpec.Regions))
	specs := []*policy.Spec{globalSpec}
	for _, decl := range globalSpec.Regions {
		plan, err := planFor(decl, req.LocalSpecs)
		if err != nil {
			return nil, err
		}
		plans = append(plans, plan)
		specs = append(specs, plan.Local)
	}
	// Everything a caller can get wrong about the options is an error here,
	// before the first node exists.
	params, err := ParseParams(req.Params, specs...)
	if err != nil {
		return nil, err
	}

	st := &instanceState{
		id:         req.InstanceID,
		globalSrc:  req.PolicySrc,
		params:     params,
		policyName: globalSpec.Name,
		// Sec 4.4: "an application can specify the required number of
		// replicas to be available at all times".
		minReplicas: params.Ring.MinReplicas,
	}
	for i := range plans {
		plans[i].Params = nodeParams(req.Params, params, globalSpec, plans[i].Local)
		if plans[i].Primary {
			st.primaryRegion = plans[i].Region
		}
	}
	st.plans = plans
	// Worker pools (sharding): N Tiera-backed workers per region on a
	// consistent-hash ring. Worker k of every region forms shard group k,
	// led by the primary region's worker k.
	workers := params.Ring.Workers
	if workers == 0 {
		workers = s.defaultWorkers
	}
	rm := &ring.Map{Vnodes: params.Ring.Vnodes, Workers: make(map[string][]string)}
	for _, plan := range plans {
		for k := 0; k < workers; k++ {
			rm.Workers[string(plan.Region)] = append(rm.Workers[string(plan.Region)], workerName(req.InstanceID, plan.Region, k))
		}
	}
	s.nextRingEpoch(st.id, rm)
	st.ringMap = rm
	st.primary = groupPrimary(rm, st.primaryRegion, 0)

	var nodes []PeerInfo
	for _, plan := range plans {
		for k, name := range rm.Workers[string(plan.Region)] {
			node, err := s.spawn(name, plan, st, groupPrimary(rm, st.primaryRegion, k), RingMsg{Map: rm, Settled: true})
			if err != nil {
				s.teardown(nodes)
				return nil, err
			}
			nodes = append(nodes, node)
		}
	}
	if st.minReplicas == 0 {
		st.minReplicas = len(nodes)
	}
	st.nodes = nodes
	s.mu.Lock()
	s.instances[req.InstanceID] = st
	s.mu.Unlock()
	if err := s.broadcastPeers(st); err != nil {
		return nil, err
	}
	s.startAutoscaler(st)
	return nodes, nil
}

// startAutoscaler launches the instance's elastic controller when the
// autoscale option asks for one.
func (s *Server) startAutoscaler(st *instanceState) {
	as := st.params.Autoscale
	if !as.On {
		return
	}
	id := st.id
	src := &instanceSignals{s: s, id: id}
	ctl := autoscale.New(autoscale.Config{
		Clock:              s.fabric.Network().Clock(),
		Interval:           as.Interval,
		MinWorkers:         as.Min,
		MaxWorkers:         as.Max,
		CoolDown:           as.Cooldown,
		GrowOpsPerWorker:   as.HighOps,
		ShrinkOpsPerWorker: as.LowOps,
		GrowStreak:         as.GrowStreak,
		ShrinkStreak:       as.ShrinkStreak,
		Registry:           s.fabric.Metrics(),
		Instance:           id,
		Journal:            s.fabric.Events(),
		Source:             src,
		Actuator:           &instanceActuator{s: s, id: id},
		Blocked: func(err error) bool {
			return AsRebalanceInProgress(err) != nil
		},
	})
	s.mu.Lock()
	if _, ok := s.instances[id]; !ok {
		s.mu.Unlock()
		return // instance stopped while the controller was being built
	}
	st.autoctl = ctl
	s.mu.Unlock()
	ctl.Start()
}

// Autoscaler returns the instance's controller (nil when autoscaling is
// off) so experiments can drive ticks deterministically and read the
// decision log.
func (s *Server) Autoscaler(instanceID string) *autoscale.Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.instances[instanceID]; ok {
		return st.autoctl
	}
	return nil
}

// instanceSignals aggregates one instance's stats into the autoscaler's
// Signals view: worker count from the ring, throughput from op-counter
// deltas between ticks, SLO burn/firing from the nodes' engines, queue
// depth, and per-worker key imbalance.
type instanceSignals struct {
	s  *Server
	id string

	mu      sync.Mutex
	lastOps int64
	lastAt  time.Time
}

func (g *instanceSignals) Signals() (autoscale.Signals, error) {
	stats, err := g.s.CollectStats(g.id)
	if err != nil {
		return autoscale.Signals{}, err
	}
	rm, err := g.s.Ring(g.id)
	if err != nil {
		return autoscale.Signals{}, err
	}
	sig := autoscale.Signals{Workers: rm.Shards()}
	var ops int64
	var maxKeys, totalKeys int
	for _, ns := range stats.Nodes {
		ops += ns.Puts + ns.Gets
		sig.QueueDepth += ns.QueueDepth
		if ns.SLOBurn > sig.Burn {
			sig.Burn = ns.SLOBurn
		}
		sig.Firing = sig.Firing || ns.SLOFiring
		totalKeys += ns.Keys
		if ns.Keys > maxKeys {
			maxKeys = ns.Keys
		}
	}
	if len(stats.Nodes) > 0 && totalKeys > 0 {
		mean := float64(totalKeys) / float64(len(stats.Nodes))
		if mean > 0 {
			sig.Imbalance = (float64(maxKeys) - mean) / mean
		}
	}
	now := g.s.fabric.Network().Clock().Now()
	g.mu.Lock()
	if !g.lastAt.IsZero() {
		if dt := now.Sub(g.lastAt).Seconds(); dt > 0 {
			sig.OpsPerSec = float64(ops-g.lastOps) / dt
		}
	}
	g.lastOps, g.lastAt = ops, now
	g.mu.Unlock()
	return sig, nil
}

// instanceActuator maps the controller's grow/shrink onto the server's
// online rebalance operations.
type instanceActuator struct {
	s  *Server
	id string
}

func (a *instanceActuator) Grow() error   { _, err := a.s.AddWorker(a.id); return err }
func (a *instanceActuator) Shrink() error { _, err := a.s.RemoveWorker(a.id); return err }

// planFor derives a region plan from one region declaration: resolve the
// local policy (a supplied source or a builtin name) and apply the tier
// overrides.
func planFor(decl policy.RegionDecl, localSpecs map[string]string) (regionPlan, error) {
	regionVal, ok := policy.FindAttr(decl.Attrs, "region")
	if !ok {
		return regionPlan{}, fmt.Errorf("wiera: region decl %q missing region attribute", decl.Label)
	}
	localName, ok := policy.FindAttr(decl.Attrs, "name")
	if !ok {
		return regionPlan{}, fmt.Errorf("wiera: region decl %q missing instance name", decl.Label)
	}
	var localSpec *policy.Spec
	var err error
	if src, ok := localSpecs[localName.Str]; ok {
		localSpec, err = policy.Parse(src)
	} else {
		localSpec, err = policy.Builtin(localName.Str)
	}
	if err != nil {
		return regionPlan{}, err
	}
	if localSpec.IsGlobal {
		return regionPlan{}, fmt.Errorf("wiera: %q is a global policy, not a local instance", localName.Str)
	}
	merged := mergeTierOverrides(localSpec, decl.Tiers)
	primary := false
	if p, ok := policy.FindAttr(decl.Attrs, "primary"); ok && p.Kind == policy.ValBool {
		primary = p.Bool
	}
	return regionPlan{Region: simnet.Region(regionVal.Str), Local: merged, Primary: primary}, nil
}

// nodeParams is raw without the policy-parameter bindings that neither the
// global, the dynamic nor this region's local spec declares. A Tiera server
// validates what it is sent against the specs of the node it builds, and
// the regions of one instance may run local policies that declare
// different parameters.
func nodeParams(raw map[string]string, p Params, global, local *policy.Spec) map[string]string {
	declared := declaredParams([]*policy.Spec{global, local, p.Dynamic})
	out := make(map[string]string, len(raw))
	for k, v := range raw {
		if _, binding := p.Policy[k]; !binding || slices.Contains(declared, k) {
			out[k] = v
		}
	}
	return out
}

// mergeTierOverrides replaces or appends tier declarations from a region
// decl into a copy of the local spec.
func mergeTierOverrides(spec *policy.Spec, overrides []policy.TierDecl) *policy.Spec {
	if len(overrides) == 0 {
		return spec
	}
	merged := *spec
	merged.Tiers = append([]policy.TierDecl(nil), spec.Tiers...)
	for _, ov := range overrides {
		replaced := false
		for i := range merged.Tiers {
			if merged.Tiers[i].Label == ov.Label {
				merged.Tiers[i] = ov
				replaced = true
				break
			}
		}
		if !replaced {
			merged.Tiers = append(merged.Tiers, ov)
		}
	}
	return &merged
}

// workerName names shard k's worker in region: shard 0 keeps the paper's
// one-node-per-region name <id>/<region>, shard k > 0 is <id>/<region>/w<k>.
func workerName(instanceID string, region simnet.Region, k int) string {
	name := fmt.Sprintf("%s/%s", instanceID, region)
	if k > 0 {
		name += fmt.Sprintf("/w%d", k)
	}
	return name
}

// groupPrimary names the leader of shard group k: the primary region's
// worker k ("" when the instance has no primary).
func groupPrimary(rm *ring.Map, primaryRegion simnet.Region, k int) string {
	if ws := rm.Workers[string(primaryRegion)]; k >= 0 && k < len(ws) {
		return ws[k]
	}
	return ""
}

// spawn asks the region's Tiera server to create the node. primaryName is
// the primary of the node's shard group (its own name when it leads); rm is
// the shard map the node starts on.
func (s *Server) spawn(nodeName string, plan regionPlan, st *instanceState, primaryName string, rm RingMsg) (PeerInfo, error) {
	s.mu.Lock()
	tsEndpoint, ok := s.tieraServers[plan.Region]
	s.mu.Unlock()
	if !ok {
		return PeerInfo{}, fmt.Errorf("wiera: no Tiera server registered for region %s", plan.Region)
	}
	payload, err := transport.Encode(SpawnRequest{
		InstanceID: st.id,
		NodeName:   nodeName,
		LocalSrc:   policy.Print(plan.Local),
		GlobalSrc:  st.globalSrc,
		Params:     plan.Params,
		Primary:    primaryName,
		Ring:       rm,
	})
	if err != nil {
		return PeerInfo{}, err
	}
	raw, err := s.ep.Call(context.Background(), tsEndpoint, MethodSpawn, payload)
	if err != nil {
		return PeerInfo{}, err
	}
	var resp SpawnResponse
	if err := transport.Decode(raw, &resp); err != nil {
		return PeerInfo{}, err
	}
	return resp.Node, nil
}

// teardown stops nodes through their regions' Tiera servers. Each despawn
// returns once its node is closed and the name is free again: AddWorker
// reuses worker names, and the autoscaler's shrink-then-grow cycles do so
// back to back.
func (s *Server) teardown(nodes []PeerInfo) {
	for _, n := range nodes {
		s.mu.Lock()
		tsEndpoint := s.tieraServers[n.Region]
		s.mu.Unlock()
		payload, _ := transport.Encode(DespawnRequest{NodeName: n.Name})
		_, _ = s.ep.Call(context.Background(), tsEndpoint, MethodDespawn, payload)
	}
}

// broadcastPeers distributes the membership list and primary to all nodes
// (Sec 4.1 step 6). Shard group k is the live members serving shard k, led
// by the primary region's worker k.
func (s *Server) broadcastPeers(st *instanceState) error {
	s.mu.Lock()
	rm := st.ringMap
	nodes := append([]PeerInfo(nil), st.nodes...)
	primaryRegion := st.primaryRegion
	s.mu.Unlock()
	for shard := 0; shard < rm.Shards(); shard++ {
		var group []PeerInfo
		for _, n := range nodes {
			if rm.ShardOf(string(n.Region), n.Name) == shard {
				group = append(group, n)
			}
		}
		if err := s.sendPeers(group, groupPrimary(rm, primaryRegion, shard)); err != nil {
			return err
		}
	}
	return nil
}

// sendPeers pushes one membership list to its members.
func (s *Server) sendPeers(group []PeerInfo, primary string) error {
	payload, err := transport.Encode(PeersMsg{Peers: group, Primary: primary})
	if err != nil {
		return err
	}
	for _, n := range group {
		if _, err := s.ep.Call(context.Background(), n.Name, MethodSetPeers, payload); err != nil {
			return err
		}
	}
	return nil
}

// broadcastRing installs a shard map on the given workers.
func (s *Server) broadcastRing(workers []PeerInfo, msg RingMsg) error {
	payload, err := transport.Encode(msg)
	if err != nil {
		return err
	}
	for _, w := range workers {
		if _, err := s.ep.Call(context.Background(), w.Name, MethodSetRing, payload); err != nil {
			return err
		}
	}
	return nil
}

// nextRingEpoch stamps m, a copy of instance id's current map or a new one,
// with its next epoch: through the coordination service when one is
// configured (the authoritative path), locally one past m's epoch
// otherwise.
func (s *Server) nextRingEpoch(id string, m *ring.Map) {
	m.Epoch++
	if s.coordDst == "" {
		// No coordinator: this control plane is the only epoch authority,
		// so its journal carries the ring-change record instead.
		s.fabric.Events().Record("ring.epoch", id, m.Summary(), map[string]string{
			"epoch":  fmt.Sprintf("%d", m.Epoch),
			"shards": fmt.Sprintf("%d", m.Shards()),
		})
		return
	}
	if epoch, err := coord.PublishRing(s.ep, s.coordDst, id, m); err == nil {
		m.Epoch = epoch
	}
}

// StopInstances implements Table 1 stopInstances.
func (s *Server) StopInstances(instanceID string) error {
	s.mu.Lock()
	st, ok := s.instances[instanceID]
	if ok {
		delete(s.instances, instanceID)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("wiera: no instance %q", instanceID)
	}
	st.autoctl.Stop() // nil-safe; before teardown so no action races the shutdown
	s.teardown(st.nodes)
	return nil
}

// GetInstances implements Table 1 getInstances.
func (s *Server) GetInstances(instanceID string) ([]PeerInfo, error) {
	nodes, _, err := s.InstanceView(instanceID)
	return nodes, err
}

// InstanceView returns the membership and the current shard map — what
// clients cache for routing.
func (s *Server) InstanceView(instanceID string) ([]PeerInfo, *ring.Map, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.instances[instanceID]
	if !ok {
		return nil, nil, fmt.Errorf("wiera: no instance %q", instanceID)
	}
	return append([]PeerInfo(nil), st.nodes...), st.ringMap.Clone(), nil
}

// Ring returns the instance's current shard map.
func (s *Server) Ring(instanceID string) (*ring.Map, error) {
	_, rm, err := s.InstanceView(instanceID)
	return rm, err
}

// InstanceHealth is one instance's row of a Health report (the /healthz
// endpoint's payload): enough to see at a glance that the control plane
// is serving and what shape each instance currently has.
type InstanceHealth struct {
	ID          string `json:"id"`
	Policy      string `json:"policy"`
	Nodes       int    `json:"nodes"`
	Workers     int    `json:"workersPerRegion"` // shards per region
	RingEpoch   int64  `json:"ringEpoch"`
	Rebalancing bool   `json:"rebalancing"`
	Autoscaled  bool   `json:"autoscaled"`
	Tenants     int    `json:"tenants"` // configured tenants incl. default (0 = tenancy off)
}

// Health snapshots every live instance, sorted by id.
func (s *Server) Health() []InstanceHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]InstanceHealth, 0, len(s.instances))
	for id, st := range s.instances {
		out = append(out, InstanceHealth{
			ID: id, Policy: st.policyName, Nodes: len(st.nodes),
			Workers: st.ringMap.Shards(), RingEpoch: st.ringMap.Epoch,
			Rebalancing: st.rebalancing, Autoscaled: st.autoctl != nil,
			Tenants: len(st.params.Tenancy.Tenants),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// HeatTop merges every worker's heat sketch into the instance's hottest
// keys: per-key rates are summed across workers (a hot key read through
// hot replicas accrues heat on several nodes) and the merged list is
// sorted hottest first, truncated to k (<= 0 uses 20).
func (s *Server) HeatTop(instanceID string, k int) ([]HeatKey, error) {
	if k <= 0 {
		k = 20
	}
	stats, err := s.CollectStats(instanceID)
	if err != nil {
		return nil, err
	}
	merged := make(map[string]float64)
	for _, ns := range stats.Nodes {
		for _, e := range ns.HeatTop {
			merged[e.Key] += e.Rate
		}
	}
	out := make([]HeatKey, 0, len(merged))
	for key, rate := range merged {
		out = append(out, HeatKey{Key: key, Rate: rate})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rate != out[j].Rate {
			return out[i].Rate > out[j].Rate
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// beginRebalance checks out the instance for an exclusive membership change
// and snapshots its map and live members.
func (s *Server) beginRebalance(instanceID string) (*instanceState, *ring.Map, []PeerInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.instances[instanceID]
	if !ok {
		return nil, nil, nil, fmt.Errorf("wiera: no instance %q", instanceID)
	}
	if st.rebalancing {
		// Typed NACK: membership changes are strictly serialized, so a
		// caller (the autoscaler, or a second wieractl grow/shrink) can
		// recognize the collision and retry after the settle.
		return nil, nil, nil, &ErrRebalanceInProgress{InstanceID: instanceID}
	}
	st.rebalancing = true
	return st, st.ringMap.Clone(), append([]PeerInfo(nil), st.nodes...), nil
}

func (s *Server) endRebalance(st *instanceState) {
	s.mu.Lock()
	st.rebalancing = false
	s.mu.Unlock()
}

// AddWorker grows the instance's per-region worker pools by one shard and
// rebalances online: stamp a new epoch, spawn the new workers on the new
// map first (unsettled, so they pull not-yet-moved keys from the previous
// owners), then let the old owners NACK and drain only the moved keys.
// Returns how many keys moved.
func (s *Server) AddWorker(instanceID string) (int, error) {
	st, cur, old, err := s.beginRebalance(instanceID)
	if err != nil {
		return 0, err
	}
	defer s.endRebalance(st)

	s.mu.Lock()
	primaryRegion := st.primaryRegion
	s.mu.Unlock()

	// One new worker per region; worker k of every region is shard group k.
	newShard := cur.Shards()
	next := cur.Clone()
	for _, region := range cur.Regions() {
		next.Workers[region] = append(next.Workers[region], workerName(instanceID, simnet.Region(region), newShard))
	}
	s.nextRingEpoch(instanceID, next)

	// 1) The new workers start on the new map, with the old map as fallback:
	//    a client routed by the new map is never refused — the new owner
	//    pulls the key from its previous owner on demand.
	unsettled := RingMsg{Map: next, Prev: cur}
	lead := groupPrimary(next, primaryRegion, newShard)
	var added []PeerInfo
	for _, region := range cur.Regions() {
		plan, ok := planForRegion(st.plans, simnet.Region(region))
		if !ok {
			s.teardown(added)
			return 0, fmt.Errorf("wiera: no region plan for %s", region)
		}
		node, err := s.spawn(next.Workers[region][newShard], plan, st, lead, unsettled)
		if err != nil {
			s.teardown(added)
			return 0, err
		}
		added = append(added, node)
	}
	if err := s.sendPeers(added, lead); err != nil {
		return 0, err
	}

	// 2) Publish to clients: GetInstances now hands out the new map.
	all := append(old, added...)
	s.mu.Lock()
	st.ringMap = next
	st.nodes = all
	st.minReplicas = len(all)
	s.mu.Unlock()

	// 3) The previous owners install the map and start NACKing moved keys.
	if err := s.broadcastRing(old, unsettled); err != nil {
		return 0, err
	}

	// 4) Drain one worker at a time: each freezes its op gate, flushes its
	//    queue, streams the moved keys to their new owners, and resumes.
	moved, err := s.drain(old)
	if err != nil {
		return moved, err
	}

	// 5) Settle: drop the previous-owner fallback everywhere.
	if err := s.broadcastRing(all, RingMsg{Map: next, Settled: true}); err != nil {
		return moved, err
	}
	return moved, nil
}

// RemoveWorker shrinks the pools by one shard (the highest index): the
// remaining workers take over its key ranges, the leaving workers drain
// everything they hold to the new owners, then shut down.
func (s *Server) RemoveWorker(instanceID string) (int, error) {
	st, cur, nodes, err := s.beginRebalance(instanceID)
	if err != nil {
		return 0, err
	}
	defer s.endRebalance(st)

	if cur.Shards() < 2 {
		return 0, fmt.Errorf("wiera: instance %q has no worker to remove", instanceID)
	}
	leavingShard := cur.Shards() - 1
	next := cur.Clone()
	for _, region := range next.Regions() {
		next.Workers[region] = next.Workers[region][:leavingShard]
	}
	s.nextRingEpoch(instanceID, next)
	var leaving, remaining []PeerInfo
	for _, n := range nodes {
		if cur.ShardOf(string(n.Region), n.Name) == leavingShard {
			leaving = append(leaving, n)
		} else {
			remaining = append(remaining, n)
		}
	}

	// Remaining workers first (unsettled: misses fall back to the leaving
	// owners), then clients, then the leaving workers — whose shard index
	// under the new map is -1, so they NACK every op and drain everything.
	unsettled := RingMsg{Map: next, Prev: cur}
	if err := s.broadcastRing(remaining, unsettled); err != nil {
		return 0, err
	}
	s.mu.Lock()
	st.ringMap = next
	st.nodes = remaining
	st.minReplicas = len(remaining)
	st.promote()
	s.mu.Unlock()
	if err := s.broadcastRing(leaving, unsettled); err != nil {
		return 0, err
	}
	moved, err := s.drain(leaving)
	if err != nil {
		return moved, err
	}
	if err := s.broadcastRing(remaining, RingMsg{Map: next, Settled: true}); err != nil {
		return moved, err
	}
	s.teardown(leaving)
	return moved, nil
}

// drain has each worker, one at a time, stream the keys it no longer owns
// to their new owners, and returns how many keys moved.
func (s *Server) drain(workers []PeerInfo) (int, error) {
	moved := 0
	req, err := transport.Encode(RingDrainRequest{})
	if err != nil {
		return 0, err
	}
	for _, w := range workers {
		raw, err := s.ep.Call(context.Background(), w.Name, MethodRingDrain, req)
		if err != nil {
			return moved, err
		}
		var resp RingDrainResponse
		if err := transport.Decode(raw, &resp); err != nil {
			return moved, err
		}
		moved += resp.Moved
	}
	return moved, nil
}

// promote replaces a primary that left the membership: the primary region's
// live shard-0 worker, else the first live member in declaration order,
// whose region then leads every shard group. The caller holds Server.mu.
func (st *instanceState) promote() {
	if st.primary == "" || len(st.nodes) == 0 || sliceHas(st.nodes, st.primary) {
		return
	}
	if w := groupPrimary(st.ringMap, st.primaryRegion, 0); sliceHas(st.nodes, w) {
		st.primary = w
		return
	}
	st.primary, st.primaryRegion = st.nodes[0].Name, st.nodes[0].Region
}

func sliceHas(nodes []PeerInfo, name string) bool {
	for _, n := range nodes {
		if n.Name == name {
			return true
		}
	}
	return false
}

// ApplyChange executes a change_policy request from a node: a consistency
// swap (prepare on all nodes, then commit) or a primary move.
func (s *Server) ApplyChange(req ChangeRequestMsg) error {
	s.mu.Lock()
	st, ok := s.instances[req.InstanceID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("wiera: no instance %q", req.InstanceID)
	}
	if st.changing {
		s.mu.Unlock()
		return nil // a change is already in flight; drop duplicates
	}
	switch req.What {
	case "consistency":
		if st.policyName == req.To {
			s.mu.Unlock()
			return nil
		}
	case "primary_instance":
		if st.primary == req.To {
			s.mu.Unlock()
			return nil
		}
	default:
		s.mu.Unlock()
		return fmt.Errorf("wiera: unknown change target %q", req.What)
	}
	st.changing = true
	nodes := append([]PeerInfo(nil), st.nodes...)
	rm := st.ringMap
	epoch := st.epoch + 1
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		st.changing = false
		s.mu.Unlock()
	}()

	switch req.What {
	case "consistency":
		// Validate the target policy before disturbing the fleet.
		if _, err := policy.Builtin(req.To); err != nil {
			return err
		}
		prepare, err := transport.Encode(PrepareChangeMsg{Epoch: epoch})
		if err != nil {
			return err
		}
		for _, n := range nodes {
			if _, err := s.ep.Call(context.Background(), n.Name, MethodPrepareChange, prepare); err != nil {
				return err
			}
		}
		commit, err := transport.Encode(CommitChangeMsg{Epoch: epoch, PolicyName: req.To})
		if err != nil {
			return err
		}
		for _, n := range nodes {
			if _, err := s.ep.Call(context.Background(), n.Name, MethodCommitChange, commit); err != nil {
				return err
			}
		}
		s.mu.Lock()
		st.policyName = req.To
		st.epoch = epoch
		s.logChangeLocked(req)
		s.mu.Unlock()
		return nil
	default: // primary_instance: the target's region leads every shard group
		i := slices.IndexFunc(nodes, func(n PeerInfo) bool { return n.Name == req.To })
		if i < 0 {
			return fmt.Errorf("wiera: %q is not a member of instance %q", req.To, req.InstanceID)
		}
		region := nodes[i].Region
		for _, n := range nodes {
			msg, err := transport.Encode(SetPrimaryMsg{Primary: groupPrimary(rm, region, rm.ShardOf(string(n.Region), n.Name))})
			if err != nil {
				return err
			}
			if _, err := s.ep.Call(context.Background(), n.Name, MethodSetPrimary, msg); err != nil {
				return err
			}
		}
		s.mu.Lock()
		st.primary, st.primaryRegion = req.To, region
		st.epoch = epoch
		s.logChangeLocked(req)
		s.mu.Unlock()
		return nil
	}
}

func (s *Server) logChangeLocked(req ChangeRequestMsg) {
	s.changeLog = append(s.changeLog, ChangeEvent{
		At: s.fabric.Network().Clock().Now(), InstanceID: req.InstanceID,
		What: req.What, To: req.To, From: req.From, Via: req.Via,
	})
}

// ChangeLog returns the applied policy changes in order.
func (s *Server) ChangeLog() []ChangeEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ChangeEvent(nil), s.changeLog...)
}

// CurrentPolicy returns the instance's active data-plane policy name.
func (s *Server) CurrentPolicy(instanceID string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.instances[instanceID]
	if !ok {
		return "", fmt.Errorf("wiera: no instance %q", instanceID)
	}
	return st.policyName, nil
}

// CurrentPrimary returns the instance's current primary node name.
func (s *Server) CurrentPrimary(instanceID string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.instances[instanceID]
	if !ok {
		return "", fmt.Errorf("wiera: no instance %q", instanceID)
	}
	return st.primary, nil
}

// Start launches the heartbeat loop (Sec 4.1: the TSM "periodically sends
// a ping message to check on their health"; Sec 4.4: failed replicas are
// recreated while the available count is below the required threshold).
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.stopCh = make(chan struct{})
	stop := s.stopCh
	s.mu.Unlock()
	go s.heartbeatLoop(stop)
}

// Stop terminates the heartbeat loop.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.started {
		close(s.stopCh)
		s.started = false
	}
	s.mu.Unlock()
}

// Close stops the server and removes its endpoint.
func (s *Server) Close() {
	s.Stop()
	s.mu.Lock()
	ctls := make([]*autoscale.Controller, 0, len(s.instances))
	for _, st := range s.instances {
		ctls = append(ctls, st.autoctl)
	}
	s.mu.Unlock()
	for _, c := range ctls {
		c.Stop() // nil-safe
	}
	s.fabric.Remove(s.name)
}

func (s *Server) heartbeatLoop(stop <-chan struct{}) {
	clk := s.fabric.Network().Clock()
	for {
		select {
		case <-stop:
			return
		case <-clk.After(s.hbEvery):
			s.HeartbeatOnce()
		}
	}
}

// HeartbeatOnce pings every node of every instance and respawns failed
// replicas below the minimum count. Exported so tests and experiments can
// drive failure recovery deterministically.
func (s *Server) HeartbeatOnce() {
	s.mu.Lock()
	ids := make([]string, 0, len(s.instances))
	for id := range s.instances {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		s.checkInstance(id)
	}
}

func (s *Server) checkInstance(id string) {
	s.mu.Lock()
	st, ok := s.instances[id]
	if !ok || st.rebalancing {
		// A rebalance in flight owns the membership; skip this round.
		s.mu.Unlock()
		return
	}
	nodes := append([]PeerInfo(nil), st.nodes...)
	minReplicas := st.minReplicas
	rm := st.ringMap.Clone()
	primaryRegion := st.primaryRegion
	s.mu.Unlock()

	ping, _ := transport.Encode(PingMsg{})
	var live, dead []PeerInfo
	for _, n := range nodes {
		if _, err := s.ep.Call(context.Background(), n.Name, MethodPing, ping); err != nil {
			dead = append(dead, n)
		} else {
			live = append(live, n)
		}
	}
	if len(dead) == 0 {
		return
	}
	// Respawn failed workers in their own regions and shards while fewer
	// than minReplicas are live; the rest leave the membership.
	for _, d := range dead {
		if len(live) >= minReplicas {
			break
		}
		region := string(d.Region)
		plan, ok := planForRegion(st.plans, d.Region)
		shard := rm.ShardOf(region, d.Name)
		if !ok || shard < 0 {
			continue
		}
		// The new name replaces the dead one in the map.
		rm.Workers[region][shard] = respawnName(d.Name)
		node, err := s.spawn(rm.Workers[region][shard], plan, st, groupPrimary(rm, primaryRegion, shard), RingMsg{Map: rm, Settled: true})
		if err != nil {
			rm.Workers[region][shard] = d.Name
			continue
		}
		// Bootstrap from a live member of the same shard group (the others
		// hold different key ranges).
		if i := slices.IndexFunc(live, func(n PeerInfo) bool { return rm.ShardOf(string(n.Region), n.Name) == shard }); i >= 0 {
			if n := lookupNode(node.Name); n != nil {
				_ = n.SyncFrom(live[i].Name)
			}
		}
		live = append(live, node)
	}
	s.teardown(dead)
	s.commitMembership(st, live, rm)
}

// commitMembership installs the live members and the patched map under a
// fresh epoch, so nodes and clients holding the old map refresh their
// routing, and promotes a new primary if the old one left.
func (s *Server) commitMembership(st *instanceState, live []PeerInfo, rm *ring.Map) {
	s.nextRingEpoch(st.id, rm)
	s.mu.Lock()
	st.nodes = live
	st.ringMap = rm
	st.promote()
	s.mu.Unlock()
	_ = s.broadcastPeers(st)
	_ = s.broadcastRing(live, RingMsg{Map: rm, Settled: true})
}

func planForRegion(plans []regionPlan, region simnet.Region) (regionPlan, bool) {
	for _, p := range plans {
		if p.Region == region {
			return p, true
		}
	}
	return regionPlan{}, false
}

// respawnName derives a fresh node name from a dead one (name, name#2,
// name#3, ...).
func respawnName(old string) string {
	base := old
	gen := 1
	if i := strings.LastIndex(old, "#"); i >= 0 {
		if g, err := strconv.Atoi(old[i+1:]); err == nil {
			base, gen = old[:i], g
		}
	}
	return fmt.Sprintf("%s#%d", base, gen+1)
}

// TieraServer runs in each region and spawns instance nodes on request
// (paper Sec 3.1/4.1). Nodes run in-process ("instances run within the
// Tiera server process for simplicity", Sec 4.1).
type TieraServer struct {
	region    simnet.Region
	name      string
	fabric    *transport.Fabric
	ep        *transport.Endpoint
	coordDst  string
	serverDst string

	mu    sync.Mutex
	nodes map[string]*Node
}

// NewTieraServer registers a Tiera server endpoint in region and announces
// it to the Wiera server's TSM.
func NewTieraServer(fabric *transport.Fabric, region simnet.Region, server *Server, coordDst string) (*TieraServer, error) {
	name := "tiera-server/" + string(region)
	ep, err := fabric.NewEndpoint(name, region)
	if err != nil {
		return nil, err
	}
	ts := &TieraServer{
		region: region, name: name, fabric: fabric, ep: ep,
		coordDst: coordDst, serverDst: server.Name(),
		nodes: make(map[string]*Node),
	}
	ep.Serve(ts.handle)
	server.RegisterTieraServer(region, name)
	return ts, nil
}

// Name returns the Tiera server's endpoint name.
func (ts *TieraServer) Name() string { return ts.name }

func (ts *TieraServer) handle(_ context.Context, method string, payload []byte) ([]byte, error) {
	switch method {
	case MethodSpawn:
		var req SpawnRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		node, err := ts.Spawn(req)
		if err != nil {
			return nil, err
		}
		return transport.Encode(SpawnResponse{Node: PeerInfo{Name: node.Name(), Region: ts.region}})
	case MethodDespawn:
		var req DespawnRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		ts.mu.Lock()
		node := ts.nodes[req.NodeName]
		delete(ts.nodes, req.NodeName)
		ts.mu.Unlock()
		if node != nil {
			_ = node.Close()
		}
		return transport.Encode(Empty{})
	case MethodPing:
		return transport.Encode(PongMsg{Name: ts.name})
	default:
		return nil, fmt.Errorf("wiera: tiera server: unknown method %q", method)
	}
}

// Spawn creates a node from a spawn request (Sec 4.1 steps 4-5).
func (ts *TieraServer) Spawn(req SpawnRequest) (*Node, error) {
	localSpec, err := policy.Parse(req.LocalSrc)
	if err != nil {
		return nil, err
	}
	globalSpec, err := policy.Parse(req.GlobalSrc)
	if err != nil {
		return nil, err
	}
	params, err := ParseParams(req.Params, localSpec, globalSpec)
	if err != nil {
		return nil, err
	}
	// Modular instances (Sec 3.2.2): a tier declared as
	// {name: instance, ref: "<node name>", readonly: true} mounts another
	// running instance as a storage tier of this one.
	extraTiers := make(map[string]tier.Tier)
	for _, td := range localSpec.Tiers {
		nameVal, ok := policy.FindAttr(td.Attrs, "name")
		if !ok || nameVal.Str != "instance" {
			continue
		}
		refVal, ok := policy.FindAttr(td.Attrs, "ref")
		if !ok {
			return nil, fmt.Errorf("wiera: tier %q: instance tier requires ref", td.Label)
		}
		backend := lookupNode(refVal.Str)
		if backend == nil {
			return nil, fmt.Errorf("wiera: tier %q: no running node %q", td.Label, refVal.Str)
		}
		readOnly := false
		if v, ok := policy.FindAttr(td.Attrs, "readonly"); ok && v.Kind == policy.ValBool {
			readOnly = v.Bool
		}
		extraTiers[td.Label] = tiera.NewInstanceTier(td.Label, backend.Local(), readOnly)
	}
	if len(extraTiers) == 0 {
		extraTiers = nil
	}

	node, err := NewNode(NodeConfig{
		Name:       req.NodeName,
		InstanceID: req.InstanceID,
		Region:     ts.region,
		Fabric:     ts.fabric,
		LocalSpec:  localSpec,
		GlobalSpec: globalSpec,
		Params:     params,
		CoordDst:   ts.coordDst,
		ServerDst:  ts.serverDst,
		Primary:    req.Primary,
		Ring:       req.Ring,
		ExtraTiers: extraTiers,
	})
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	ts.nodes[req.NodeName] = node
	ts.mu.Unlock()
	return node, nil
}

// Node returns a spawned node by name (experiments reach in for metrics).
func (ts *TieraServer) Node(name string) (*Node, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	n, ok := ts.nodes[name]
	return n, ok
}

// Close shuts down all nodes and the server endpoint.
func (ts *TieraServer) Close() {
	ts.mu.Lock()
	nodes := make([]*Node, 0, len(ts.nodes))
	for _, n := range ts.nodes {
		nodes = append(nodes, n)
	}
	ts.nodes = make(map[string]*Node)
	ts.mu.Unlock()
	for _, n := range nodes {
		_ = n.Close()
	}
	ts.fabric.Remove(ts.name)
}
