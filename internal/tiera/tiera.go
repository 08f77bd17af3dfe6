// Package tiera implements a Tiera instance (paper Sec 2): a policy-driven
// storage container spanning multiple cloud storage tiers inside one data
// center. An instance owns a set of tiers (declared in its policy
// specification), an in-memory versioned object index, and the compiled
// local policy whose insert/timer/filled/object-monitor events drive data
// placement: write-back and write-through caching, backup on fill
// thresholds, cold-data demotion, and tier growth.
//
// Wiera (internal/wiera) composes instances across regions; this package is
// purely intra-DC.
package tiera

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/cost"
	"repro/internal/object"
	"repro/internal/policy"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/tier"
)

// Tier name aliases: the paper's figures name services (Memcached, EBS,
// S3); our standard tier kinds use implementation names.
var tierKindAliases = map[string]string{
	"memcached":        "memory",
	"memory":           "memory",
	"localmemory":      "memory",
	"elasticache":      "memory",
	"ebs":              "ebs-ssd",
	"ebs-ssd":          "ebs-ssd",
	"ebs-ssd-cached":   "ebs-ssd-cached",
	"localdisk":        "ebs-ssd",
	"ebs-hdd":          "ebs-hdd",
	"s3":               "s3",
	"s3-ia":            "s3-ia",
	"cheapestarchival": "s3-ia",
	"glacier":          "glacier",
}

// KindForTierName maps a policy tier name (Memcached, EBS, S3, ...) to a
// standard tier kind.
func KindForTierName(name string) (string, error) {
	kind, ok := tierKindAliases[strings.ToLower(name)]
	if !ok {
		return "", fmt.Errorf("tiera: unknown tier service name %q", name)
	}
	return kind, nil
}

// Config assembles an Instance.
type Config struct {
	// Name uniquely identifies the instance (e.g. "us-west/LowLatency").
	Name string
	// Region locates the instance's data center.
	Region simnet.Region
	// Spec is the local Tiera policy; its tier declarations define the
	// tiers. Must not be a global (Wiera) spec.
	Spec *policy.Spec
	// Params binds spec parameters, e.g. {"t": DurationVal(10s)}.
	Params map[string]policy.Value
	// Clock drives all simulated latency. Required.
	Clock clock.Clock
	// Accountant, when set, receives request charges from all tiers.
	Accountant *cost.Accountant
	// ScanInterval is the period of the object-monitor scan loop started by
	// Start (cold-data checks). Defaults to 10s of clock time.
	ScanInterval time.Duration
	// ExtraTiers lets callers install pre-built tiers (including another
	// instance adapted as a tier — the paper's modular instances). Keyed by
	// tier label; these take precedence over spec tier declarations with
	// the same label.
	ExtraTiers map[string]tier.Tier
	// Metrics, when set, receives the instance's operation metrics and the
	// per-tier service-time metrics of every tier the instance builds.
	Metrics *telemetry.Registry
}

// Instance is one Tiera storage instance.
type Instance struct {
	name   string
	region simnet.Region
	clk    clock.Clock
	prog   *policy.Program
	// explicitStore is whether any insert event body stores the object
	// itself — a property of the policy text, decided once in New.
	explicitStore bool

	tiers     map[string]tier.Tier
	tierOrder []string // declaration order: tier1 first

	objects *object.Store

	mu           sync.Mutex
	fillLatched  map[string]bool // filled-event edge detection, by tier label
	stopCh       chan struct{}
	started      bool
	scanInterval time.Duration

	// PutLatency/GetLatency record per-operation service times: the
	// tiera_op_seconds children of Config.Metrics when there is a registry,
	// free-standing histograms otherwise.
	PutLatency *telemetry.Histogram
	GetLatency *telemetry.Histogram
}

// New builds an instance from cfg, constructing its tiers from the policy
// spec's tier declarations.
func New(cfg Config) (*Instance, error) {
	if cfg.Name == "" {
		return nil, errors.New("tiera: instance name required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("tiera: clock required")
	}
	if cfg.Spec == nil {
		return nil, errors.New("tiera: policy spec required")
	}
	if cfg.Spec.IsGlobal {
		return nil, fmt.Errorf("tiera: spec %q is a global (Wiera) policy", cfg.Spec.Name)
	}
	prog, err := policy.Compile(cfg.Spec, cfg.Params)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		name:          cfg.Name,
		region:        cfg.Region,
		clk:           cfg.Clock,
		prog:          prog,
		explicitStore: anyStoresExplicitly(prog.ByKind(policy.KindInsert)),
		tiers:         make(map[string]tier.Tier),
		objects:       object.NewStore(),
		fillLatched:   make(map[string]bool),
		PutLatency:    telemetry.NewHistogram(),
		GetLatency:    telemetry.NewHistogram(),
	}
	for _, td := range cfg.Spec.Tiers {
		if extra, ok := cfg.ExtraTiers[td.Label]; ok {
			inst.tiers[td.Label] = extra
			inst.tierOrder = append(inst.tierOrder, td.Label)
			continue
		}
		t, err := buildTier(td, cfg)
		if err != nil {
			return nil, err
		}
		inst.tiers[td.Label] = t
		inst.tierOrder = append(inst.tierOrder, td.Label)
	}
	for label, t := range cfg.ExtraTiers {
		if _, ok := inst.tiers[label]; !ok {
			inst.tiers[label] = t
			inst.tierOrder = append(inst.tierOrder, label)
		}
	}
	sortExtraStable(inst.tierOrder)
	if len(inst.tiers) == 0 {
		return nil, fmt.Errorf("tiera: spec %q declares no tiers", cfg.Spec.Name)
	}
	inst.scanInterval = cfg.ScanInterval
	if inst.scanInterval <= 0 {
		inst.scanInterval = 10 * time.Second
	}
	if cfg.Metrics != nil {
		hist := cfg.Metrics.Histogram("tiera_op_seconds",
			"Tiera instance end-to-end operation time.", "op", "instance", "region")
		inst.PutLatency = hist.With("put", cfg.Name, string(cfg.Region))
		inst.GetLatency = hist.With("get", cfg.Name, string(cfg.Region))
		for _, label := range inst.tierOrder {
			if st, ok := inst.tiers[label].(*tier.Store); ok {
				st.SetTelemetry(cfg.Metrics, string(cfg.Region))
			}
		}
	}
	return inst, nil
}

// sortExtraStable keeps tierN labels in numeric order (tier1, tier2, ...,
// tier10) rather than lexicographic.
func sortExtraStable(labels []string) {
	sort.SliceStable(labels, func(i, j int) bool {
		a, b := labels[i], labels[j]
		if strings.HasPrefix(a, "tier") && strings.HasPrefix(b, "tier") {
			var ai, bi int
			if _, err := fmt.Sscanf(a, "tier%d", &ai); err == nil {
				if _, err := fmt.Sscanf(b, "tier%d", &bi); err == nil {
					return ai < bi
				}
			}
		}
		return a < b
	})
}

func buildTier(td policy.TierDecl, cfg Config) (tier.Tier, error) {
	nameVal, ok := policy.FindAttr(td.Attrs, "name")
	if !ok {
		return nil, fmt.Errorf("tiera: tier %q missing name attribute", td.Label)
	}
	kind, err := KindForTierName(nameVal.Str)
	if err != nil {
		return nil, err
	}
	var capacity int64
	if sz, ok := policy.FindAttr(td.Attrs, "size"); ok {
		if sz.Kind != policy.ValSize {
			return nil, fmt.Errorf("tiera: tier %q size is not a size value", td.Label)
		}
		capacity = sz.Size
	}
	st, err := tier.Standard(td.Label, kind, capacity, cfg.Clock)
	if err != nil {
		return nil, err
	}
	iops := 0
	if v, ok := policy.FindAttr(td.Attrs, "iops"); ok {
		if v.Kind != policy.ValNumber || v.Num < 0 {
			return nil, fmt.Errorf("tiera: tier %q iops must be a non-negative number", td.Label)
		}
		iops = int(v.Num)
	}
	if cfg.Accountant != nil || iops > 0 {
		// Rebuild through tier.New: Standard has no hooks for the
		// accountant or an IOPS cap (how Azure throttles attached disks,
		// the Fig 11 local-disk setting).
		c := tier.Config{
			Name: td.Label, Class: st.Class(), Capacity: capacity,
			Volatile: st.Volatile(), Accountant: cfg.Accountant,
		}
		c.Profile, c.EvictLRU = standardProfile(kind)
		c.Profile.IOPSCap = iops
		return tier.New(c, cfg.Clock)
	}
	return st, nil
}

func standardProfile(kind string) (tier.LatencyProfile, bool) {
	switch kind {
	case "memory":
		return tier.MemoryProfile, true
	case "ebs-ssd":
		return tier.EBSSSDProfile, false
	case "ebs-ssd-cached":
		return tier.EBSSSDCachedProfile, false
	case "ebs-hdd":
		return tier.EBSHDDProfile, false
	case "s3":
		return tier.S3Profile, false
	case "s3-ia":
		return tier.S3IAProfile, false
	default:
		return tier.GlacierProfile, false
	}
}

// Name returns the instance name.
func (in *Instance) Name() string { return in.name }

// Region returns the instance's region.
func (in *Instance) Region() simnet.Region { return in.region }

// Clock returns the clock the instance runs on.
func (in *Instance) Clock() clock.Clock { return in.clk }

// Program returns the compiled local policy.
func (in *Instance) Program() *policy.Program { return in.prog }

// TierOrder returns tier labels in declaration order (fastest first by
// convention).
func (in *Instance) TierOrder() []string {
	out := make([]string, len(in.tierOrder))
	copy(out, in.tierOrder)
	return out
}

// Tier returns the tier with the given label.
func (in *Instance) Tier(label string) (tier.Tier, bool) {
	t, ok := in.tiers[label]
	return t, ok
}

// Objects exposes the version index (read-mostly; used by Wiera and tests).
func (in *Instance) Objects() *object.Store { return in.objects }

// Usage reports how many keys the instance holds and the total physical
// size of their latest versions — the per-worker ownership numbers the
// sharding layer exports (ring_keys / ring_bytes). Physical, not
// logical: an erasure-coded version stores only this replica's fragment
// bundle, so summing Meta.Size would over-report EC keys by the scheme's
// stripe factor and erase the storage savings the layout exists for.
func (in *Instance) Usage() (keys int, bytes int64) {
	for _, key := range in.objects.Keys() {
		m, err := in.objects.Latest(key)
		if err != nil {
			continue
		}
		keys++
		bytes += m.StoredBytes()
	}
	return keys, bytes
}

// PutCount and GetCount report operation totals.
func (in *Instance) PutCount() int64 { return in.PutLatency.Count() }

// GetCount reports the number of Get operations served.
func (in *Instance) GetCount() int64 { return in.GetLatency.Count() }

// Put stores data as a new version of key, driving the local insert policy.
// It returns the created version's metadata.
func (in *Instance) Put(ctx context.Context, key string, data []byte) (object.Meta, error) {
	return in.PutTagged(ctx, key, data, nil)
}

// PutTagged stores data with application tags attached to the new version.
func (in *Instance) PutTagged(ctx context.Context, key string, data []byte, tags []string) (object.Meta, error) {
	ctx, span := telemetry.StartSpan(ctx, "tiera.put")
	span.SetAttr("instance", in.name)
	span.SetAttr("region", string(in.region))
	defer span.End()

	start := in.clk.Now()
	meta, err := in.putInternal(ctx, key, data, tags)
	if err != nil {
		span.SetError(err)
		return object.Meta{}, err
	}
	in.PutLatency.RecordTrace(in.clk.Since(start), span.TraceIDString())
	return meta, nil
}

func (in *Instance) putInternal(ctx context.Context, key string, data []byte, tags []string) (object.Meta, error) {
	if len(in.tierOrder) == 0 {
		return object.Meta{}, errors.New("tiera: no tiers")
	}
	target := in.tierOrder[0]
	now := in.clk.Now()
	meta := in.objects.Put(key, int64(len(data)), target, in.name, tags, now)

	op := &opContext{ctx: ctx, inst: in, key: key, meta: meta, data: data, target: target}
	op.env.BindInsert(key, int64(len(data)))
	op.env.BindInto(target)

	// When no insert event body performs an explicit store, the put's
	// default store to the first tier happens first and the events react to
	// it — the paper's Fig 1(b) write-through, where event(insert.into ==
	// tier1) copies data that is already in tier1.
	if !in.explicitStore {
		if err := op.storeTo(target); err != nil {
			return object.Meta{}, err
		}
	}
	for _, ev := range in.prog.ByKind(policy.KindInsert) {
		if _, err := ev.Fire(&op.env, op); err != nil {
			return object.Meta{}, err
		}
	}
	if !op.stored {
		if err := op.storeTo(target); err != nil {
			return object.Meta{}, err
		}
	}
	if op.dirty {
		if err := in.objects.SetDirty(key, meta.Version, true); err != nil {
			return object.Meta{}, err
		}
	}
	in.checkFilled()
	final, err := in.objects.GetVersion(key, meta.Version)
	if err != nil {
		return object.Meta{}, err
	}
	return final, nil
}

// anyStoresExplicitly reports whether any insert event body contains a
// store action (in any branch).
func anyStoresExplicitly(events []*policy.CompiledEvent) bool {
	var scan func(stmts []policy.Stmt) bool
	scan = func(stmts []policy.Stmt) bool {
		for _, s := range stmts {
			switch st := s.(type) {
			case *policy.ActionStmt:
				if st.Name == "store" {
					return true
				}
			case *policy.IfStmt:
				if scan(st.Then) || scan(st.Else) {
					return true
				}
			}
		}
		return false
	}
	for _, ev := range events {
		if scan(ev.Body) {
			return true
		}
	}
	return false
}

// Get returns the latest version's payload and metadata for key.
func (in *Instance) Get(ctx context.Context, key string) ([]byte, object.Meta, error) {
	ctx, span := telemetry.StartSpan(ctx, "tiera.get")
	span.SetAttr("instance", in.name)
	span.SetAttr("region", string(in.region))
	defer span.End()

	meta, err := in.objects.Latest(key)
	if err != nil {
		// Unknown locally: fall through to mounted instance tiers, which
		// resolve raw keys against their backing instance (the paper's
		// modular instances, Sec 3.2.2 — e.g. a read-only raw-data store
		// mounted under a caching instance).
		start := in.clk.Now()
		for _, label := range in.tierOrder {
			it, ok := in.tiers[label].(*InstanceTier)
			if !ok || !it.Has(key) {
				continue
			}
			data, m, gerr := it.Backend().Get(ctx, key)
			if gerr != nil {
				continue
			}
			in.GetLatency.RecordTrace(in.clk.Since(start), span.TraceIDString())
			return data, m, nil
		}
		span.SetError(err)
		return nil, object.Meta{}, err
	}
	data, m, err := in.getVersion(ctx, meta)
	if errors.Is(err, errNoPayload) {
		// A put registers its version before the payload reaches a tier, and
		// a crash can lose a version held only in memory. Either way the
		// newest version still stored answers the get.
		vs, _ := in.objects.VersionList(key)
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i] >= meta.Version {
				continue
			}
			prev, perr := in.objects.GetVersion(key, vs[i])
			if perr != nil {
				continue
			}
			if pdata, pm, perr := in.getVersion(ctx, prev); perr == nil {
				return pdata, pm, nil
			}
		}
	}
	return data, m, err
}

// errNoPayload reports a version whose payload no tier holds.
var errNoPayload = errors.New("missing from all tiers")

// GetVersion returns a specific version's payload and metadata.
func (in *Instance) GetVersion(ctx context.Context, key string, v object.Version) ([]byte, object.Meta, error) {
	ctx, span := telemetry.StartSpan(ctx, "tiera.get")
	span.SetAttr("instance", in.name)
	span.SetAttr("region", string(in.region))
	defer span.End()

	meta, err := in.objects.GetVersion(key, v)
	if err != nil {
		span.SetError(err)
		return nil, object.Meta{}, err
	}
	return in.getVersion(ctx, meta)
}

func (in *Instance) getVersion(ctx context.Context, meta object.Meta) ([]byte, object.Meta, error) {
	start := in.clk.Now()
	vk := object.VersionKey(meta.Key, meta.Version)
	for _, label := range in.tierOrder {
		t := in.tiers[label]
		if !t.Has(vk) {
			continue
		}
		data, err := t.Get(ctx, vk)
		if err != nil {
			continue // raced with eviction; try the next tier
		}
		in.objects.Touch(meta.Key, meta.Version, in.clk.Now())
		in.GetLatency.RecordTrace(in.clk.Since(start),
			telemetry.SpanFromContext(ctx).TraceIDString())
		m, err := in.objects.GetVersion(meta.Key, meta.Version)
		if err != nil {
			m = meta
		}
		// Reverse any compress/encrypt transformations: applications always
		// see the original bytes.
		data, err = in.untransform(m, data)
		if err != nil {
			return nil, object.Meta{}, err
		}
		return data, m, nil
	}
	return nil, object.Meta{}, fmt.Errorf("tiera: payload for %s %w",
		object.VersionKey(meta.Key, meta.Version), errNoPayload)
}

// VersionList returns available versions of key (Table 2).
func (in *Instance) VersionList(key string) ([]object.Version, error) {
	return in.objects.VersionList(key)
}

// Remove deletes all versions of key from every tier and the index.
func (in *Instance) Remove(ctx context.Context, key string) error {
	versions, err := in.objects.VersionList(key)
	if err != nil {
		return err
	}
	for _, v := range versions {
		in.deletePayload(ctx, key, v)
	}
	return in.objects.Remove(key)
}

// RemoveVersion deletes one version of key.
func (in *Instance) RemoveVersion(ctx context.Context, key string, v object.Version) error {
	if _, err := in.objects.GetVersion(key, v); err != nil {
		return err
	}
	in.deletePayload(ctx, key, v)
	return in.objects.RemoveVersion(key, v)
}

func (in *Instance) deletePayload(ctx context.Context, key string, v object.Version) {
	vk := object.VersionKey(key, v)
	for _, label := range in.tierOrder {
		if in.tiers[label].Has(vk) {
			_ = in.tiers[label].Delete(ctx, vk)
		}
	}
}

// ApplyRemote installs a replica-propagated version: metadata via
// last-writer-wins and the payload into the first tier. It returns whether
// the update won. This is the replication receive path (paper Sec 4.2).
func (in *Instance) ApplyRemote(ctx context.Context, meta object.Meta, data []byte) (bool, error) {
	ctx, span := telemetry.StartSpan(ctx, "tiera.applyRemote")
	span.SetAttr("instance", in.name)
	span.SetAttr("region", string(in.region))
	defer span.End()

	if !in.objects.Apply(meta) {
		return false, nil
	}
	vk := object.VersionKey(meta.Key, meta.Version)
	if err := in.tiers[in.tierOrder[0]].Put(ctx, vk, data); err != nil {
		return false, err
	}
	if err := in.objects.SetTier(meta.Key, meta.Version, in.tierOrder[0]); err != nil {
		return false, err
	}
	in.checkFilled()
	return true, nil
}

// Locations returns which tiers currently hold the payload of (key, v).
func (in *Instance) Locations(key string, v object.Version) []string {
	vk := object.VersionKey(key, v)
	var out []string
	for _, label := range in.tierOrder {
		if in.tiers[label].Has(vk) {
			out = append(out, label)
		}
	}
	return out
}

// CrashVolatile simulates a process crash for failure-injection tests:
// volatile tiers lose their contents; durable tiers survive. The caller
// typically follows with operations that observe recovery behavior.
func (in *Instance) CrashVolatile() {
	for _, label := range in.tierOrder {
		type crasher interface{ Crash() }
		if c, ok := in.tiers[label].(crasher); ok {
			c.Crash()
		}
	}
}

// Close stops background loops.
func (in *Instance) Close() error {
	in.Stop()
	return nil
}
