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
	minReplicas int
	plans       []regionPlan // for respawning failed replicas

	// cfg is the instance's config at its latest epoch: what GetInstances
	// hands clients and what the next change copies. Every instance runs on
	// a shard map; one worker per region is its one-shard case. Worker i
	// across all regions forms shard group i, and the per-key policy
	// machinery runs inside the group.
	cfg InstanceConfig
	// busy marks the instance checked out by a change (checkout): one
	// change at a time edits cfg.
	busy bool

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
// region's Tiera server, each on the instance's first config, and return
// the node list.
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
		id:        req.InstanceID,
		globalSrc: req.PolicySrc,
		params:    params,
		plans:     plans,
		// Sec 4.4: "an application can specify the required number of
		// replicas to be available at all times".
		minReplicas: params.Ring.MinReplicas,
	}
	// Worker pools (sharding): N Tiera-backed workers per region on a
	// consistent-hash ring. Worker k of every region forms shard group k,
	// led by the primary region's worker k. Every worker starts on the
	// final config, which already names all of them.
	workers := params.Ring.Workers
	if workers == 0 {
		workers = s.defaultWorkers
	}
	cfg := InstanceConfig{
		Map:     &ring.Map{Vnodes: params.Ring.Vnodes, Workers: make(map[string][]string)},
		Settled: true,
		Policy:  globalSpec.Name,
	}
	for i := range plans {
		plans[i].Params = nodeParams(req.Params, params, globalSpec, plans[i].Local)
		if plans[i].Primary {
			cfg.PrimaryRegion = plans[i].Region
		}
		for k := 0; k < workers; k++ {
			w := PeerInfo{Name: workerName(req.InstanceID, plans[i].Region, k), Region: plans[i].Region}
			cfg.Map.Workers[string(w.Region)] = append(cfg.Map.Workers[string(w.Region)], w.Name)
			cfg.Members = append(cfg.Members, w)
		}
	}
	s.nextRingEpoch(st.id, cfg.Map)
	for i, w := range cfg.Members {
		if err := s.spawn(st, cfg, w); err != nil {
			s.teardown(cfg.Members[:i])
			return nil, err
		}
	}
	if st.minReplicas == 0 {
		st.minReplicas = len(cfg.Members)
	}
	st.cfg = cfg
	s.mu.Lock()
	s.instances[req.InstanceID] = st
	s.mu.Unlock()
	s.startAutoscaler(st)
	return slices.Clone(cfg.Members), nil
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

// spawn asks w's regional Tiera server to create w on cfg, which names it.
func (s *Server) spawn(st *instanceState, cfg InstanceConfig, w PeerInfo) error {
	plan, ok := planForRegion(st.plans, w.Region)
	if !ok {
		return fmt.Errorf("wiera: no region plan for %s", w.Region)
	}
	s.mu.Lock()
	tsEndpoint, ok := s.tieraServers[w.Region]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("wiera: no Tiera server registered for region %s", w.Region)
	}
	payload, err := transport.Encode(SpawnRequest{
		InstanceID: st.id,
		NodeName:   w.Name,
		LocalSrc:   policy.Print(plan.Local),
		GlobalSrc:  st.globalSrc,
		Params:     plan.Params,
		Config:     cfg,
	})
	if err != nil {
		return err
	}
	_, err = s.ep.Call(context.Background(), tsEndpoint, MethodSpawn, payload)
	return err
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

// push installs cfg on workers.
func (s *Server) push(cfg InstanceConfig, workers []PeerInfo) error {
	return s.callAll(workers, MethodSetConfig, cfg)
}

// callAll sends msg to every worker, also past a failure, and returns the
// first failure.
func (s *Server) callAll(workers []PeerInfo, method string, msg any) error {
	payload, err := transport.Encode(msg)
	if err != nil {
		return err
	}
	var first error
	for _, w := range workers {
		if _, err := s.ep.Call(context.Background(), w.Name, method, payload); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// checkout hands one change at a time a copy of the instance's config to
// edit: start-up aside, every change — respawn, drop, grow, shrink, settle,
// primary move, policy commit — copies, edits, stamps, stores and pushes
// the config between checkout and release. A second checkout in between
// NACKs with ErrRebalanceInProgress, which the autoscaler and the change
// monitors retry.
func (s *Server) checkout(id string) (*instanceState, InstanceConfig, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.instances[id]
	if !ok {
		return nil, InstanceConfig{}, fmt.Errorf("wiera: no instance %q", id)
	}
	if st.busy {
		return nil, InstanceConfig{}, &ErrRebalanceInProgress{InstanceID: id}
	}
	st.busy = true
	return st, st.cfg.clone(), nil
}

func (s *Server) release(st *instanceState) {
	s.mu.Lock()
	st.busy = false
	s.mu.Unlock()
}

// store makes cfg the instance's config.
func (s *Server) store(st *instanceState, cfg InstanceConfig) {
	s.mu.Lock()
	st.cfg = cfg
	s.mu.Unlock()
}

// nextRingEpoch stamps m, the map of a copy of instance id's current config
// or of a new one, with the config's next epoch: through the coordination
// service when one is configured (the authoritative path), locally one past
// m's epoch otherwise.
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
	s.teardown(st.cfg.Members)
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
	return slices.Clone(st.cfg.Members), st.cfg.Map.Clone(), nil
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
	Rebalancing bool   `json:"rebalancing"` // a change holds the instance's checkout
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
			ID: id, Policy: st.cfg.Policy, Nodes: len(st.cfg.Members),
			Workers: st.cfg.Map.Shards(), RingEpoch: st.cfg.Epoch(),
			Rebalancing: st.busy, Autoscaled: st.autoctl != nil,
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

// AddWorker grows the instance's per-region worker pools by one shard and
// rebalances online: stamp a new epoch, spawn the new workers on the new
// map first (unsettled, so they pull not-yet-moved keys from the previous
// owners), then let the old owners NACK and drain only the moved keys.
// Returns how many keys moved.
func (s *Server) AddWorker(instanceID string) (int, error) {
	st, cfg, err := s.checkout(instanceID)
	if err != nil {
		return 0, err
	}
	defer s.release(st)

	// One new worker per region; worker k of every region is shard group k.
	cur, old := cfg.Map, cfg.Members
	newShard := cur.Shards()
	next := cur.Clone()
	var added []PeerInfo
	for _, region := range cur.Regions() {
		w := PeerInfo{Name: workerName(instanceID, simnet.Region(region), newShard), Region: simnet.Region(region)}
		next.Workers[region] = append(next.Workers[region], w.Name)
		added = append(added, w)
	}
	cfg.Map, cfg.Prev, cfg.Settled = next, cur, false
	cfg.Members = slices.Concat(old, added)
	s.nextRingEpoch(instanceID, next)

	// 1) The new workers start on the new map, with the old map as fallback:
	//    a client routed by the new map is never refused — the new owner
	//    pulls the key from its previous owner on demand.
	for i, w := range added {
		if err := s.spawn(st, cfg, w); err != nil {
			s.teardown(added[:i])
			return 0, err
		}
	}

	// 2) Publish to clients: GetInstances now hands out the new map.
	s.store(st, cfg)
	s.mu.Lock()
	st.minReplicas = len(cfg.Members)
	s.mu.Unlock()

	// 3) The previous owners install the map and start NACKing moved keys.
	if err := s.push(cfg, old); err != nil {
		return 0, err
	}

	// 4) Drain one worker at a time: each freezes its op gate, flushes its
	//    queue, streams the moved keys to their new owners, and resumes.
	moved, err := s.drain(old)
	if err != nil {
		return moved, err
	}

	// 5) Settle: drop the previous-owner fallback everywhere.
	return moved, s.settle(st, cfg)
}

// RemoveWorker shrinks the pools by one shard (the highest index): the
// remaining workers take over its key ranges, the leaving workers drain
// everything they hold to the new owners, then shut down.
func (s *Server) RemoveWorker(instanceID string) (int, error) {
	st, cfg, err := s.checkout(instanceID)
	if err != nil {
		return 0, err
	}
	defer s.release(st)

	cur := cfg.Map
	if cur.Shards() < 2 {
		return 0, fmt.Errorf("wiera: instance %q has no worker to remove", instanceID)
	}
	leavingShard := cur.Shards() - 1
	next := cur.Clone()
	for _, region := range next.Regions() {
		next.Workers[region] = next.Workers[region][:leavingShard]
	}
	var leaving, remaining []PeerInfo
	for _, n := range cfg.Members {
		if cur.ShardOf(string(n.Region), n.Name) == leavingShard {
			leaving = append(leaving, n)
		} else {
			remaining = append(remaining, n)
		}
	}
	// The leaving workers stay members until they have drained: under the
	// new map their shard index is -1, so they form a group of their own
	// (their queued fan-outs still reach each other) and NACK every op.
	cfg.Map, cfg.Prev, cfg.Settled = next, cur, false
	s.nextRingEpoch(instanceID, next)

	// Remaining workers first (unsettled: misses fall back to the leaving
	// owners), then clients, then the leaving workers, which drain
	// everything.
	if err := s.push(cfg, remaining); err != nil {
		return 0, err
	}
	s.store(st, cfg)
	s.mu.Lock()
	st.minReplicas = len(remaining)
	s.mu.Unlock()
	if err := s.push(cfg, leaving); err != nil {
		return 0, err
	}
	moved, err := s.drain(leaving)
	if err != nil {
		return moved, err
	}
	cfg.Members = remaining
	if err := s.settle(st, cfg); err != nil {
		return moved, err
	}
	s.teardown(leaving)
	return moved, nil
}

// settle ends a rebalance: cfg, without the previous-owner fallback, under
// a fresh epoch, on every member.
func (s *Server) settle(st *instanceState, cfg InstanceConfig) error {
	cfg.Map, cfg.Prev, cfg.Settled = cfg.Map.Clone(), nil, true
	s.nextRingEpoch(st.id, cfg.Map)
	if err := s.push(cfg, cfg.Members); err != nil {
		return err
	}
	s.store(st, cfg)
	return nil
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

// promote moves the primary to a live region when the primary region's
// shard-0 worker left the membership: the region of the first live shard-0
// worker in declaration order, else of the first live member, then leads
// every shard group.
func (c *InstanceConfig) promote() {
	if c.PrimaryRegion == "" || len(c.Members) == 0 || sliceHas(c.Members, c.primaryOf(0)) {
		return
	}
	i := max(0, slices.IndexFunc(c.Members, func(m PeerInfo) bool {
		return c.Map.ShardOf(string(m.Region), m.Name) == 0
	}))
	c.PrimaryRegion = c.Members[i].Region
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
// swap (freeze every member, then commit the config naming the new policy)
// or a primary move (commit the config naming the target's region).
func (s *Server) ApplyChange(req ChangeRequestMsg) error {
	if req.What != "consistency" && req.What != "primary_instance" {
		return fmt.Errorf("wiera: unknown change target %q", req.What)
	}
	st, cfg, err := s.checkout(req.InstanceID)
	if err != nil {
		return err
	}
	defer s.release(st)

	if req.What == "consistency" {
		if cfg.Policy == req.To {
			return nil
		}
		// Validate the target policy before disturbing the fleet.
		if _, err := policy.Builtin(req.To); err != nil {
			return err
		}
		cfg.Policy = req.To
		s.nextRingEpoch(st.id, cfg.Map)
		_ = s.callAll(cfg.Members, MethodPrepareChange, PrepareChangeMsg{Epoch: cfg.Epoch()})
	} else { // primary_instance: the target's region leads every shard group
		i := slices.IndexFunc(cfg.Members, func(n PeerInfo) bool { return n.Name == req.To })
		if i < 0 {
			return fmt.Errorf("wiera: %q is not a member of instance %q", req.To, req.InstanceID)
		}
		if cfg.PrimaryRegion == cfg.Members[i].Region {
			return nil
		}
		cfg.PrimaryRegion = cfg.Members[i].Region
		s.nextRingEpoch(st.id, cfg.Map)
	}
	// A member the prepare or the push cannot reach is down: the heartbeat
	// replaces it, on the config stored here. The push reopens every gate
	// the prepare froze.
	_ = s.push(cfg, cfg.Members)
	s.mu.Lock()
	st.cfg = cfg
	s.logChangeLocked(req)
	s.mu.Unlock()
	return nil
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
	return st.cfg.Policy, nil
}

// CurrentPrimary returns the instance's current primary node name: the
// primary region's shard-0 worker.
func (s *Server) CurrentPrimary(instanceID string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.instances[instanceID]
	if !ok {
		return "", fmt.Errorf("wiera: no instance %q", instanceID)
	}
	return st.cfg.primaryOf(0), nil
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

// checkInstance pings the instance's members and, when some are down,
// replaces them under one new config: dead workers are respawned in their
// own regions and shards while fewer than minReplicas are live, and the
// rest leave the membership. The pings run before the checkout, so a
// healthy instance never holds off a change; when a change in flight owns
// the config, the next round retries.
func (s *Server) checkInstance(id string) {
	s.mu.Lock()
	st, ok := s.instances[id]
	var members []PeerInfo
	if ok {
		members = slices.Clone(st.cfg.Members)
	}
	s.mu.Unlock()

	ping, _ := transport.Encode(PingMsg{})
	var down []PeerInfo
	for _, n := range members {
		if _, err := s.ep.Call(context.Background(), n.Name, MethodPing, ping); err != nil {
			down = append(down, n)
		}
	}
	if len(down) == 0 {
		return
	}
	st, cfg, err := s.checkout(id)
	if err != nil {
		return
	}
	defer s.release(st)

	var live, dead []PeerInfo
	for _, n := range cfg.Members {
		if sliceHas(down, n.Name) {
			dead = append(dead, n)
		} else {
			live = append(live, n)
		}
	}
	if len(dead) == 0 {
		return // a change since the pings already replaced them
	}
	// A respawned worker takes the dead one's place in the map.
	replaced := make(map[string]PeerInfo) // respawned name -> dead worker
	var respawned []PeerInfo
	for _, d := range dead {
		shard := cfg.Map.ShardOf(string(d.Region), d.Name)
		if len(live)+len(respawned) >= st.minReplicas || shard < 0 {
			continue
		}
		w := PeerInfo{Name: respawnName(d.Name), Region: d.Region}
		cfg.Map.Workers[string(w.Region)][shard] = w.Name
		replaced[w.Name] = d
		respawned = append(respawned, w)
	}
	cfg.Members = slices.Concat(live, respawned)
	cfg.promote()
	s.nextRingEpoch(id, cfg.Map)
	failed := false
	for _, w := range respawned {
		shard := cfg.Map.ShardOf(string(w.Region), w.Name)
		if err := s.spawn(st, cfg, w); err != nil {
			// It leaves the membership, and the dead name goes back.
			cfg.Map.Workers[string(w.Region)][shard] = replaced[w.Name].Name
			cfg.Members = slices.DeleteFunc(cfg.Members, func(m PeerInfo) bool { return m.Name == w.Name })
			failed = true
			continue
		}
		// Bootstrap from a live member of the same shard group (the others
		// hold different key ranges).
		if i := slices.IndexFunc(live, func(n PeerInfo) bool { return cfg.Map.ShardOf(string(n.Region), n.Name) == shard }); i >= 0 {
			if n := lookupNode(w.Name); n != nil {
				_ = n.SyncFrom(live[i].Name)
			}
		}
	}
	if failed {
		// The spawned workers hold the config stamped above; the edited one
		// needs an epoch of its own.
		cfg.promote()
		s.nextRingEpoch(id, cfg.Map)
	}
	s.teardown(dead)
	s.store(st, cfg)
	_ = s.push(cfg, cfg.Members)
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
		Config:     req.Config,
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
