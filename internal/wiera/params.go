package wiera

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/ec"
	"repro/internal/policy"
	"repro/internal/tenant"
)

// Params is an instance's options: the params argument of the paper's
// startInstances(instanceId, policy, params) (Table 1), parsed and validated
// once by ParseParams. They travel as map[string]string
// (StartInstancesRequest.Params, SpawnRequest.Params); the server parses
// them before it spawns anything and every Tiera server parses them again
// for the node it builds. Every field holds its effective value: defaults
// come from the options table below, not from the code that reads them.
type Params struct {
	// Policy binds the parameters the instance's specs declare, e.g. t for
	// LowLatencyInstance(time t).
	Policy map[string]policy.Value
	// Dynamic is the parsed dynamic option: a spec whose threshold events
	// (DynamicConsistency, ChangePrimary) persist across consistency changes.
	Dynamic *policy.Spec
	// MonitorWindow is the latency monitor's sample window; keep it well
	// under the policy's period threshold.
	MonitorWindow time.Duration

	Ring struct {
		Workers     int // 0 = the control plane's default
		Vnodes      int
		MinReplicas int // 0 = every node
	}
	Queue struct {
		Flush         time.Duration
		Supersede     bool
		MaxBatchBytes int64 // <= 0: no batching, one fan-out RPC per queued update
	}
	Repair struct {
		// AntiEntropy is the Merkle sync round period. 0 runs hinted handoff
		// and read repair only: a periodic full sync would replicate keys a
		// placement policy deliberately keeps local. Negative
		// (antiEntropy=false) switches the repair subsystem off.
		AntiEntropy time.Duration
	}
	EC struct {
		Scheme         ec.Scheme
		ThresholdBytes int64 // <= 0: erasure-code every size
		HotGets        int
	}
	Heat struct {
		Track                   bool
		PromoteRate, DemoteRate float64 // accesses per Interval half-life
		Replicas                int
		Interval                time.Duration
	}
	Autoscale struct {
		On                       bool
		Min, Max                 int
		Interval, Cooldown       time.Duration
		HighOps, LowOps          float64 // 0 = no throughput term
		GrowStreak, ShrinkStreak int
	}
	Tenancy struct {
		// Tenants is sorted by ID and includes the default tenant; empty
		// means tenancy is off: keys stay unqualified, no admission or
		// scheduling runs.
		Tenants []tenant.Config
		Slots   int
	}
	SLO struct {
		Put, Get               time.Duration // 0 = no such objective
		Availability           bool
		Target                 float64
		FastWindow, SlowWindow time.Duration
		Interval               time.Duration
	}
}

// kind is what an option's value must parse as. Values use the policy
// language's literal syntax, so "500ms", "64K" and "true" mean here what
// they mean in a policy file. Counts, numbers and durations are positive:
// leave the key out to get the default.
type kind int

const (
	kBool kind = iota
	kCount
	kNumber
	kDuration
	kDurationOrFalse
	kBytesOrFalse
	kScheme
	kPolicy
	kTenants
)

func (k kind) String() string {
	return [...]string{"true|false", "integer >= 1", "number > 0", "duration", "duration|false",
		"bytes|false", "k+m", "policy source", "id,id,..."}[k]
}

// option is one row of the options table.
type option struct {
	key  string
	kind kind
	// dst points at the Params field the value lands in; the per-tenant
	// family ("tenantWeight:<id>") has per, into one declared tenant.
	dst func(*Params) any
	per func(*tenant.Config) any
	// def is the default, written as a caller would write it ("" leaves the
	// field zero; doc then says what zero means).
	def string
	doc string
}

// options is every key an instance can be started with besides the
// parameters its specs declare. ParseParams reads nothing else, `wieractl
// start -h` and README.md print it (OptionsHelp).
var options = []option{
	{key: "workers", kind: kCount, dst: func(p *Params) any { return &p.Ring.Workers },
		doc: "Tiera workers per region, sharded by a consistent-hash ring (default 1, or the daemon's -workers)"},
	{key: "vnodes", kind: kCount, dst: func(p *Params) any { return &p.Ring.Vnodes }, def: "192",
		doc: "virtual nodes per shard on the ring"},
	{key: "minReplicas", kind: kCount, dst: func(p *Params) any { return &p.Ring.MinReplicas },
		doc: "live nodes below which the heartbeat respawns failed replicas (default: every node)"},
	{key: "dynamic", kind: kPolicy, dst: func(p *Params) any { return &p.Dynamic },
		doc: "control policy whose threshold events persist across consistency changes (wieractl: -dynamic)"},
	{key: "monitorWindow", kind: kDuration, dst: func(p *Params) any { return &p.MonitorWindow }, def: "10s",
		doc: "latency monitor sample window"},

	{key: "queueFlush", kind: kDuration, dst: func(p *Params) any { return &p.Queue.Flush }, def: "500ms",
		doc: "background propagation period for queued updates"},
	{key: "queueSupersede", kind: kBool, dst: func(p *Params) any { return &p.Queue.Supersede }, def: "true",
		doc: "a newer queued update replaces an older one of the same key (false: ablation)"},
	{key: "maxBatchBytes", kind: kBytesOrFalse, dst: func(p *Params) any { return &p.Queue.MaxBatchBytes }, def: "1M",
		doc: "payload budget of one replication batch chunk (false: one RPC per update)"},
	{key: "antiEntropy", kind: kDurationOrFalse, dst: func(p *Params) any { return &p.Repair.AntiEntropy },
		doc: "Merkle sync round period (default: hinted handoff and read repair only; false: repair off)"},

	{key: "ecScheme", kind: kScheme, dst: func(p *Params) any { return &p.EC.Scheme }, def: "4+2",
		doc: "data+parity fragments the stripe action codes with"},
	{key: "ecThresholdBytes", kind: kBytesOrFalse, dst: func(p *Params) any { return &p.EC.ThresholdBytes }, def: "64K",
		doc: "objects below this size stay fully replicated (false: code every size)"},
	{key: "ecHotGets", kind: kCount, dst: func(p *Params) any { return &p.EC.HotGets }, def: "4",
		doc: "reads of the previous version at which an object counts as hot and stays replicated"},

	{key: "heatTrack", kind: kBool, dst: func(p *Params) any { return &p.Heat.Track }, def: "false",
		doc: "track per-key heat and give hot keys extra replicas"},
	{key: "heatPromoteRate", kind: kNumber, dst: func(p *Params) any { return &p.Heat.PromoteRate }, def: "50",
		doc: "decayed accesses per heatInterval at which a key is promoted"},
	{key: "heatDemoteRate", kind: kNumber, dst: func(p *Params) any { return &p.Heat.DemoteRate },
		doc: "rate at which a promoted key is demoted (default, and when not below heatPromoteRate: a fifth of it)"},
	{key: "heatReplicas", kind: kCount, dst: func(p *Params) any { return &p.Heat.Replicas }, def: "2",
		doc: "extra replicas of a promoted key"},
	{key: "heatInterval", kind: kDuration, dst: func(p *Params) any { return &p.Heat.Interval }, def: "2s",
		doc: "heat loop period and decay half-life"},

	{key: "autoscale", kind: kBool, dst: func(p *Params) any { return &p.Autoscale.On }, def: "false",
		doc: "run the elastic controller that grows and shrinks the worker pools"},
	{key: "asMin", kind: kCount, dst: func(p *Params) any { return &p.Autoscale.Min }, def: "1",
		doc: "fewest workers per region"},
	{key: "asMax", kind: kCount, dst: func(p *Params) any { return &p.Autoscale.Max }, def: "8",
		doc: "most workers per region"},
	{key: "asInterval", kind: kDuration, dst: func(p *Params) any { return &p.Autoscale.Interval }, def: "2s",
		doc: "controller evaluation period"},
	{key: "asCooldown", kind: kDuration, dst: func(p *Params) any { return &p.Autoscale.Cooldown }, def: "10s",
		doc: "quiet period after a grow or shrink"},
	{key: "asHighOps", kind: kNumber, dst: func(p *Params) any { return &p.Autoscale.HighOps },
		doc: "ops/s per worker above which the pool grows (default: SLO burn alone grows it)"},
	{key: "asLowOps", kind: kNumber, dst: func(p *Params) any { return &p.Autoscale.LowOps },
		doc: "ops/s per worker below which the pool shrinks (default: never)"},
	{key: "asGrowStreak", kind: kCount, dst: func(p *Params) any { return &p.Autoscale.GrowStreak }, def: "2",
		doc: "consecutive ticks over the watermark before growing"},
	{key: "asShrinkStreak", kind: kCount, dst: func(p *Params) any { return &p.Autoscale.ShrinkStreak }, def: "3",
		doc: "consecutive ticks under the watermark before shrinking"},

	{key: "tenants", kind: kTenants, dst: func(p *Params) any { return &p.Tenancy.Tenants },
		doc: "tenant ids sharing the instance; the default tenant is always added (default: tenancy off)"},
	{key: "tenantSlots", kind: kCount, dst: func(p *Params) any { return &p.Tenancy.Slots }, def: "4",
		doc: "operations the weighted-fair scheduler runs at once on a node"},
	{key: "tenantWeight:<id>", kind: kCount, per: func(c *tenant.Config) any { return &c.Weight }, def: "1",
		doc: "scheduler share of a declared tenant"},
	{key: "tenantIOPS:<id>", kind: kNumber, per: func(c *tenant.Config) any { return &c.IOPS },
		doc: "ops/s admission quota of a declared tenant, per worker (default: unlimited)"},
	{key: "tenantBytes:<id>", kind: kNumber, per: func(c *tenant.Config) any { return &c.Bytes },
		doc: "bytes/s admission quota of a declared tenant, per worker (default: unlimited)"},

	{key: "sloPut", kind: kDuration, dst: func(p *Params) any { return &p.SLO.Put },
		doc: "put latency objective: sloTarget of puts and replication fan-outs finish within it"},
	{key: "sloGet", kind: kDuration, dst: func(p *Params) any { return &p.SLO.Get },
		doc: "get latency objective"},
	{key: "sloAvailability", kind: kBool, dst: func(p *Params) any { return &p.SLO.Availability }, def: "false",
		doc: "availability objective: sloTarget of operations return no error"},
	{key: "sloTarget", kind: kNumber, dst: func(p *Params) any { return &p.SLO.Target }, def: "0.999",
		doc: "good-event ratio every objective aims for"},
	{key: "sloFastWindow", kind: kDuration, dst: func(p *Params) any { return &p.SLO.FastWindow }, def: "5m",
		doc: "short burn-rate window"},
	{key: "sloSlowWindow", kind: kDuration, dst: func(p *Params) any { return &p.SLO.SlowWindow }, def: "1h",
		doc: "long burn-rate window; the alert fires when both windows burn"},
	{key: "sloInterval", kind: kDuration, dst: func(p *Params) any { return &p.SLO.Interval }, def: "1s",
		doc: "SLO engine evaluation period"},
}

// ParseParams validates raw against the options table and the parameters
// specs declare (the global spec and the regions' local specs; the dynamic
// option's spec is added here) and returns the typed options with defaults
// applied. A key that is neither, a value of the wrong kind and a
// per-tenant key for a tenant the tenants option does not list are errors
// naming the key.
func ParseParams(raw map[string]string, specs ...*policy.Spec) (Params, error) {
	var p Params
	for i := range options {
		if o := &options[i]; o.def != "" && o.dst != nil {
			if err := o.set(o.dst(&p), o.key, o.def); err != nil {
				return Params{}, err
			}
		}
	}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Plain options first: they include dynamic and tenants, which say what
	// the remaining keys may name.
	var rest []string
	for _, k := range keys {
		o, _ := lookupOption(k)
		if o == nil || o.dst == nil {
			rest = append(rest, k)
		} else if err := o.set(o.dst(&p), k, raw[k]); err != nil {
			return Params{}, err
		}
	}
	declared := declaredParams(append(specs, p.Dynamic))
	for _, k := range rest {
		o, id := lookupOption(k)
		switch {
		case o != nil:
			c := tenantConfig(p.Tenancy.Tenants, id)
			if c == nil {
				return Params{}, fmt.Errorf("wiera: option %s: tenant %q is not listed in the tenants option", k, id)
			}
			if err := o.set(o.per(c), k, raw[k]); err != nil {
				return Params{}, err
			}
		case slices.Contains(declared, k):
			v, err := literal(raw[k])
			if err != nil {
				return Params{}, fmt.Errorf("wiera: policy parameter %s: %w", k, err)
			}
			if p.Policy == nil {
				p.Policy = make(map[string]policy.Value)
			}
			p.Policy[k] = v
		default:
			return Params{}, fmt.Errorf("wiera: unknown option %q (options: %s; parameters the policy declares: %s)",
				k, strings.Join(optionKeys(), " "), strings.Join(declared, " "))
		}
	}
	if p.Heat.DemoteRate == 0 || p.Heat.DemoteRate >= p.Heat.PromoteRate {
		p.Heat.DemoteRate = p.Heat.PromoteRate / 5
	}
	return p, nil
}

// lookupOption finds key's table row; for a per-tenant key
// ("tenantWeight:gold") it also returns the tenant id.
func lookupOption(key string) (o *option, id string) {
	if family, tid, ok := strings.Cut(key, ":"); ok {
		key, id = family+":<id>", tid
	}
	for i := range options {
		if options[i].key == key {
			return &options[i], id
		}
	}
	return nil, ""
}

func optionKeys() []string {
	keys := make([]string, len(options))
	for i := range options {
		keys[i] = options[i].key
	}
	return keys
}

func tenantConfig(cfgs []tenant.Config, id string) *tenant.Config {
	for i := range cfgs {
		if cfgs[i].ID == id {
			return &cfgs[i]
		}
	}
	return nil
}

// declaredParams lists, sorted, the parameter names specs declare: "t" for
// a spec written LowLatencyInstance(time t). Nil specs are skipped.
func declaredParams(specs []*policy.Spec) []string {
	var names []string
	for _, spec := range specs {
		if spec == nil {
			continue
		}
		for _, decl := range spec.Params {
			f := strings.Fields(decl)
			if name := f[len(f)-1]; !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// literal parses s as one literal of the policy language ("10s", "5G",
// "true", "42").
func literal(s string) (policy.Value, error) {
	toks, err := policy.Lex(s)
	if err != nil {
		return policy.Value{}, err
	}
	if len(toks) != 2 { // value + EOF
		return policy.Value{}, fmt.Errorf("not a single literal: %q", s)
	}
	return policy.TokenValue(toks[0])
}

// set parses s as o's kind and stores it through dst. key is what the
// caller wrote (it differs from o.key for a per-tenant option).
func (o *option) set(dst any, key, s string) error {
	var err error
	switch o.kind {
	case kScheme:
		*dst.(*ec.Scheme), err = ec.ParseScheme(s)
	case kPolicy:
		*dst.(**policy.Spec), err = policy.Parse(s)
	case kTenants:
		*dst.(*[]tenant.Config), err = tenantList(s)
	default:
		var v policy.Value
		if v, err = literal(s); err != nil {
			break
		}
		off := v.Kind == policy.ValBool && !v.Bool
		switch {
		case o.kind == kBool && v.Kind == policy.ValBool:
			*dst.(*bool) = v.Bool
		case o.kind == kCount && v.Kind == policy.ValNumber && v.Num >= 1 && v.Num == math.Trunc(v.Num):
			*dst.(*int) = int(v.Num)
		case o.kind == kNumber && v.Kind == policy.ValNumber && v.Num > 0:
			*dst.(*float64) = v.Num
		case (o.kind == kDuration || o.kind == kDurationOrFalse) && v.Kind == policy.ValDuration && v.Dur > 0:
			*dst.(*time.Duration) = v.Dur
		case o.kind == kDurationOrFalse && off:
			*dst.(*time.Duration) = -1
		case o.kind == kBytesOrFalse && v.Kind == policy.ValSize:
			*dst.(*int64) = v.Size
		case o.kind == kBytesOrFalse && v.Kind == policy.ValNumber:
			*dst.(*int64) = int64(v.Num)
		case o.kind == kBytesOrFalse && off:
			*dst.(*int64) = -1
		default:
			err = fmt.Errorf("want %s", o.kind)
		}
	}
	if err != nil {
		return fmt.Errorf("wiera: option %s=%s: %w", key, s, err)
	}
	return nil
}

// tenantList parses the tenants option: comma-separated ids, each given
// weight 1 and no quota until a per-tenant option says otherwise, plus the
// default tenant, sorted by id. An empty list is no tenancy.
func tenantList(s string) ([]tenant.Config, error) {
	var cfgs []tenant.Config
	for _, id := range strings.Split(s, ",") {
		id = strings.TrimSpace(id)
		if id == "" || tenantConfig(cfgs, id) != nil {
			continue
		}
		if !tenant.ValidID(id) {
			return nil, fmt.Errorf("invalid tenant id %q", id)
		}
		cfgs = append(cfgs, tenant.Config{ID: id, Weight: 1})
	}
	if len(cfgs) == 0 {
		return nil, nil
	}
	if tenantConfig(cfgs, tenant.DefaultID) == nil {
		cfgs = append(cfgs, tenant.Config{ID: tenant.DefaultID, Weight: 1})
	}
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].ID < cfgs[j].ID })
	return cfgs, nil
}

// OptionsHelp renders the options table, one line per key with its kind,
// default and meaning: the text `wieractl start -h` prints and README.md
// carries.
func OptionsHelp() string {
	var b strings.Builder
	for _, o := range options {
		def := o.def
		if def == "" {
			def = "-"
		}
		fmt.Fprintf(&b, "%-18s %-15s %-6s %s\n", o.key, o.kind, def, o.doc)
	}
	return b.String()
}
