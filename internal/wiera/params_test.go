package wiera

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ec"
	"repro/internal/policy"
	"repro/internal/simnet"
	"repro/internal/tenant"
)

// lowLatencySpecs is what most instances in the tree are validated against:
// a global policy that declares nothing over LowLatencyInstance(time t).
func lowLatencySpecs(t *testing.T) []*policy.Spec {
	t.Helper()
	g, err := policy.Builtin("EventualConsistency")
	if err != nil {
		t.Fatal(err)
	}
	l, err := policy.Builtin("LowLatencyInstance")
	if err != nil {
		t.Fatal(err)
	}
	return []*policy.Spec{g, l}
}

// render writes a parsed value back the way a caller would, "" for a zero
// that means "not set": the inverse of option.set, kept here because only
// the round-trip test needs it.
func render(src any) string {
	switch v := src.(type) {
	case *bool:
		return strconv.FormatBool(*v)
	case *int:
		if *v != 0 {
			return strconv.Itoa(*v)
		}
	case *float64:
		if *v != 0 {
			return strconv.FormatFloat(*v, 'f', -1, 64)
		}
	case *time.Duration:
		if *v < 0 {
			return "false"
		} else if *v > 0 {
			return policy.DurationVal(*v).String()
		}
	case *int64:
		if *v < 0 {
			return "false"
		}
		return strconv.FormatInt(*v, 10)
	case *ec.Scheme:
		return fmt.Sprintf("%d+%d", v.K, v.M)
	case **policy.Spec:
		if *v != nil {
			return policy.Print(*v)
		}
	case *[]tenant.Config:
		ids := make([]string, len(*v))
		for i, c := range *v {
			ids[i] = c.ID
		}
		return strings.Join(ids, ",")
	default:
		panic(fmt.Sprintf("render: unhandled destination %T", src))
	}
	return ""
}

// TestEveryOptionRoundTrips sets each key alone to a value that is not its
// default, renders the parsed Params back to strings and parses those: the
// key must be accepted, must change exactly what a second parse reproduces,
// and must not land on another key's field.
func TestEveryOptionRoundTrips(t *testing.T) {
	dyn, err := policy.BuiltinSource("DynamicConsistency")
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{
		"workers": "3", "vnodes": "64", "minReplicas": "2", "dynamic": dyn, "monitorWindow": "3s",
		"queueFlush": "100ms", "queueSupersede": "false", "maxBatchBytes": "256K", "antiEntropy": "5s",
		"ecScheme": "6+3", "ecThresholdBytes": "128K", "ecHotGets": "1000000000",
		"heatTrack": "true", "heatPromoteRate": "40", "heatDemoteRate": "8", "heatReplicas": "1", "heatInterval": "120s",
		"autoscale": "true", "asMin": "2", "asMax": "5", "asInterval": "1s", "asCooldown": "3s",
		"asHighOps": "150", "asLowOps": "100", "asGrowStreak": "4", "asShrinkStreak": "5",
		"tenants": "gold,bronze", "tenantSlots": "2",
		"tenantWeight:<id>": "4", "tenantIOPS:<id>": "0.05", "tenantBytes:<id>": "1048576",
		"sloPut": "800ms", "sloGet": "50ms", "sloAvailability": "true", "sloTarget": "0.9",
		"sloFastWindow": "30s", "sloSlowWindow": "10m", "sloInterval": "250ms",
	}
	if len(options) != 38 || len(samples) != len(options) {
		t.Fatalf("%d options, %d samples; the ledger says 38 settable keys", len(options), len(samples))
	}
	specs := lowLatencySpecs(t)
	base, err := ParseParams(nil, specs...)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{} // rendered Params -> key, to catch two keys sharing a field
	for i := range options {
		o := &options[i]
		raw := map[string]string{strings.Replace(o.key, "<id>", "gold", 1): samples[o.key]}
		if o.per != nil {
			raw["tenants"] = "gold"
		}
		p1, err := ParseParams(raw, specs...)
		if err != nil {
			t.Fatalf("%s: %v", o.key, err)
		}
		if reflect.DeepEqual(p1, base) {
			t.Fatalf("%s=%s changed nothing", o.key, samples[o.key])
		}
		back := map[string]string{}
		for j := range options {
			q := &options[j]
			if q.dst != nil {
				back[q.key] = render(q.dst(&p1))
			}
			for k := range p1.Tenancy.Tenants {
				if c := &p1.Tenancy.Tenants[k]; q.per != nil {
					back[strings.Replace(q.key, "<id>", c.ID, 1)] = render(q.per(c))
				}
			}
		}
		for k, v := range back {
			if v == "" {
				delete(back, k)
			}
		}
		p2, err := ParseParams(back, specs...)
		if err != nil {
			t.Fatalf("%s: rendered params do not parse: %v\n%v", o.key, err, back)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("%s: round trip differs\nparsed   %+v\nreparsed %+v", o.key, p1, p2)
		}
		sig := fmt.Sprintf("%+v", p1)
		if other, dup := seen[sig]; dup {
			t.Fatalf("%s and %s produce the same Params", o.key, other)
		}
		seen[sig] = o.key
	}
}

// TestDefaultsMatchParent pins every default to the number the code applied
// before the table existed (ec.go, heat.go, tenancy.go, batch.go, node.go,
// monitor.go, startAutoscaler and the autoscale/flight/ring fallbacks).
func TestDefaultsMatchParent(t *testing.T) {
	p, err := ParseParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	var want Params
	want.MonitorWindow = 10 * time.Second
	want.Ring.Vnodes = 192
	want.Queue.Flush = 500 * time.Millisecond
	want.Queue.Supersede = true
	want.Queue.MaxBatchBytes = 1 << 20
	want.EC.Scheme = ec.Scheme{K: 4, M: 2}
	want.EC.ThresholdBytes = 64 << 10
	want.EC.HotGets = 4
	want.Heat.PromoteRate, want.Heat.DemoteRate = 50, 10
	want.Heat.Replicas = 2
	want.Heat.Interval = 2 * time.Second
	want.Autoscale.Min, want.Autoscale.Max = 1, 8
	want.Autoscale.Interval, want.Autoscale.Cooldown = 2*time.Second, 10*time.Second
	want.Autoscale.GrowStreak, want.Autoscale.ShrinkStreak = 2, 3
	want.Tenancy.Slots = 4
	want.SLO.Target = 0.999
	want.SLO.FastWindow, want.SLO.SlowWindow = 5*time.Minute, time.Hour
	want.SLO.Interval = time.Second
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("defaults\n got %+v\nwant %+v", p, want)
	}
	// What stays zero means what it meant: workers 1 (or the daemon's
	// -workers), every node a required replica, hinted handoff and read
	// repair without periodic sync, no throughput watermarks, no objectives,
	// no tenants.
	one, err := ParseParams(map[string]string{"tenants": "a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := one.Tenancy.Tenants; len(got) != 2 || got[0] != (tenant.Config{ID: "a", Weight: 1}) ||
		got[1] != (tenant.Config{ID: tenant.DefaultID, Weight: 1}) {
		t.Fatalf("tenant defaults = %+v", got)
	}
	// A demote rate at or above the promote rate is clamped as before.
	clamped, err := ParseParams(map[string]string{"heatPromoteRate": "20", "heatDemoteRate": "30"})
	if err != nil || clamped.Heat.DemoteRate != 4 {
		t.Fatalf("demote = %v, %v; want 4", clamped.Heat.DemoteRate, err)
	}
}

// TestFalseStillDisables: the three options that take false keep its meaning.
func TestFalseStillDisables(t *testing.T) {
	p, err := ParseParams(map[string]string{"antiEntropy": "false", "maxBatchBytes": "false", "ecThresholdBytes": "false"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Repair.AntiEntropy >= 0 || p.Queue.MaxBatchBytes > 0 || p.EC.ThresholdBytes > 0 {
		t.Fatalf("false did not disable: %+v %+v %+v", p.Repair, p.Queue, p.EC)
	}
	if p, err = ParseParams(map[string]string{"maxBatchBytes": "65536"}); err != nil || p.Queue.MaxBatchBytes != 65536 {
		t.Fatalf("bare byte count: %v, %v", p.Queue.MaxBatchBytes, err)
	}
}

// TestTreeParamMapsParse: the four frozen benchmark maps (bench/workload.go)
// and every Params map in internal/experiments and examples/, copied as
// literals, are valid. bench/ is a module of its own, so `make bench-smoke`
// stays the gate that it builds and runs against this package.
func TestTreeParamMapsParse(t *testing.T) {
	dyn, _ := policy.BuiltinSource("DynamicConsistency")
	maps := []map[string]string{
		// bench: fabric_small_rw and tcp_read_heavy, fabric_large_ec, fabric_sync_put
		{"t": "1h", "queueFlush": "100ms"},
		{"t": "1h", "ecHotGets": "1000000000", "antiEntropy": "false"},
		{"t": "1h"},
		// experiments
		{"t": "2s", "dynamic": dyn, "sloPut": "800ms", "sloTarget": "0.9",
			"sloFastWindow": "1500ms", "sloSlowWindow": "3000ms", "sloInterval": "300ms"}, // sloswitch
		{},                             // fig10, fig11, fig12, ablation
		{"workers": "4", "t": "500ms"}, // scaleout
		{"t": "2s", "queueFlush": "60s", "antiEntropy": "false", "dynamic": dyn}, // fig8
		{"t": "500ms", "queueFlush": "50ms", "antiEntropy": "1s"},                // eccost
		{"t": "500ms", "queueFlush": "10m", "antiEntropy": "1s"},                 // batchflush
		{"t": "500ms", "queueFlush": "10m", "antiEntropy": "1s", "maxBatchBytes": "false"},
		{"t": "5s"}, // ablation
		{"t": "5s", "queueFlush": "10s", "queueSupersede": "false"},
		{"t": "500ms", "queueFlush": "250ms", "antiEntropy": "1s"}, // convergence
		{"workers": "2", "t": "500ms", "tenants": "noisy,victim", "tenantWeight:victim": "4",
			"tenantWeight:noisy": "1", "tenantIOPS:noisy": "40", "tenantSlots": "2"}, // tenancy
		{"t": "2s", "dynamic": dyn, "monitorWindow": "400ms"}, // fig7
		{"workers": "2", "t": "500ms", "autoscale": "true", "asMin": "2", "asMax": "5",
			"asInterval": "1s", "asCooldown": "3s", "asHighOps": "150", "asLowOps": "100",
			"asGrowStreak": "2", "asShrinkStreak": "3", "heatTrack": "true", "heatInterval": "1s",
			"heatPromoteRate": "40", "heatDemoteRate": "8", "heatReplicas": "1"}, // elastic
		// examples
		{"t": "1s", "dynamic": dyn, "monitorWindow": "1s"}, // dynamicconsistency
		{"t": "1s", "queueFlush": "200ms"},                 // quickstart
	}
	specs := lowLatencySpecs(t)
	for _, m := range maps {
		if _, err := ParseParams(m, specs...); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
	// fig10-12 and examples/remotetier run ForwardingInstance, which
	// declares nothing: their empty maps are all it accepts.
	fwd, _ := policy.Builtin("ForwardingInstance")
	if _, err := ParseParams(map[string]string{}, fwd); err != nil {
		t.Error(err)
	}
	if _, err := ParseParams(map[string]string{"t": "1s"}, fwd); err == nil {
		t.Error("t bound for specs that declare no parameter")
	}
}

// TestParseParamsErrorsNameTheKey covers each way a map can be wrong.
func TestParseParamsErrorsNameTheKey(t *testing.T) {
	specs := lowLatencySpecs(t)
	for _, tc := range []struct {
		raw  map[string]string
		want []string // substrings of the error
	}{
		{map[string]string{"queueFlsh": "1s"}, []string{`"queueFlsh"`, "queueFlush", "declares: t"}},
		{map[string]string{"heatTopK": "8"}, []string{`"heatTopK"`}},
		{map[string]string{"sloBurn": "3"}, []string{`"sloBurn"`}},
		{map[string]string{"queueFlush": "100"}, []string{"queueFlush=100", "duration"}},
		{map[string]string{"queueFlush": "0s"}, []string{"queueFlush=0s", "duration"}},
		{map[string]string{"asMax": "ten"}, []string{"asMax=ten", "integer"}},
		{map[string]string{"asMax": "2.5"}, []string{"asMax=2.5", "integer"}},
		{map[string]string{"workers": "0"}, []string{"workers=0", "integer"}},
		{map[string]string{"heatTrack": "yes"}, []string{"heatTrack=yes", "true|false"}},
		{map[string]string{"sloTarget": "high"}, []string{"sloTarget=high", "number"}},
		{map[string]string{"queueSupersede": "5s"}, []string{"queueSupersede=5s"}},
		{map[string]string{"maxBatchBytes": "true"}, []string{"maxBatchBytes=true", "bytes|false"}},
		{map[string]string{"ecScheme": "4"}, []string{"ecScheme=4", "k+m"}},
		{map[string]string{"dynamic": "Wiera {"}, []string{"dynamic="}},
		{map[string]string{"tenants": "bad:id"}, []string{"tenants=bad:id", "invalid tenant id"}},
		{map[string]string{"tenants": "a", "tenantWeight:a": "heavy"}, []string{"tenantWeight:a=heavy", "integer"}},
		{map[string]string{"tenants": "a", "tenantWeight:ghost": "4"}, []string{"tenantWeight:ghost", `"ghost"`}},
		{map[string]string{"tenantIOPS:a": "4"}, []string{"tenantIOPS:a", `"a"`}},
		{map[string]string{"t": "4+2"}, []string{"parameter t"}},
	} {
		_, err := ParseParams(tc.raw, specs...)
		if err == nil {
			t.Errorf("%v: accepted", tc.raw)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%v: error %q does not mention %q", tc.raw, err, w)
			}
		}
	}
}

// TestParseParamsTenants carries what tenant.ParseConfigs' test checked.
func TestParseParamsTenants(t *testing.T) {
	p, err := ParseParams(map[string]string{
		"tenants":           "gold, bronze,gold,",
		"tenantWeight:gold": "8",
		"tenantIOPS:bronze": "250",
		"tenantBytes:gold":  "1048576",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []tenant.Config{
		{ID: "bronze", Weight: 1, IOPS: 250},
		{ID: tenant.DefaultID, Weight: 1},
		{ID: "gold", Weight: 8, Bytes: 1048576},
	}
	if !reflect.DeepEqual(p.Tenancy.Tenants, want) {
		t.Fatalf("tenants = %+v, want %+v", p.Tenancy.Tenants, want)
	}
	if p, err := ParseParams(map[string]string{"workers": "4"}); err != nil || p.Tenancy.Tenants != nil {
		t.Fatalf("no tenants option must leave tenancy off, got %v, %v", p.Tenancy.Tenants, err)
	}
}

// TestMisconfigurationRejectedBeforeSpawn: each of these started an
// instance on the parent commit, with the bad value ignored or replaced by
// a default. Now StartInstances fails naming the key and leaves nothing
// behind: no instance, node, endpoint or autoscaler.
func TestMisconfigurationRejectedBeforeSpawn(t *testing.T) {
	c := newCluster(t, simnet.USWest, simnet.USEast)
	src, err := policy.BuiltinSource("EventualConsistency")
	if err != nil {
		t.Fatal(err)
	}
	before := len(c.fabric.Names())
	for _, tc := range []struct{ key, value string }{
		{"queueFlsh", "1s"}, // typo: ran with the 500 ms default
		{"queueFlush", "100"},
		{"asMax", "ten"},
		{"asInterval", "2"},
		{"minReplicas", "x"},
		{"vnodes", "x"},
		{"heatTrack", "yes"},
		{"tenantWeight:ghost", "4"},
	} {
		params := map[string]string{"t": "1s", "autoscale": "true", "tenants": "gold", tc.key: tc.value}
		_, err := c.server.StartInstances(StartInstancesRequest{InstanceID: "bad", PolicySrc: src, Params: params})
		if err == nil || !strings.Contains(err.Error(), tc.key) {
			t.Fatalf("%s=%s: err = %v, want one naming the key", tc.key, tc.value, err)
		}
		if _, err := c.server.GetInstances("bad"); err == nil {
			t.Fatalf("%s=%s: a half-started instance is listed", tc.key, tc.value)
		}
		if c.server.Autoscaler("bad") != nil || lookupNode("bad/us-west") != nil || len(c.fabric.Names()) != before {
			t.Fatalf("%s=%s: left a node, endpoint or autoscaler behind: %v", tc.key, tc.value, c.fabric.Names())
		}
	}
	// The Tiera server validates what it is sent the same way.
	l, _ := policy.BuiltinSource("LowLatencyInstance")
	_, err = c.tss[simnet.USWest].Spawn(SpawnRequest{InstanceID: "bad", NodeName: "bad/us-west",
		LocalSrc: l, GlobalSrc: src, Params: map[string]string{"t": "1s", "queueFlsh": "1s"}})
	if err == nil || !strings.Contains(err.Error(), "queueFlsh") || lookupNode("bad/us-west") != nil {
		t.Fatalf("Spawn err = %v", err)
	}
}

// TestDefaultWorkers: ServerConfig.DefaultWorkers is the pool size of an
// instance started without the workers option, and the option wins.
func TestDefaultWorkers(t *testing.T) {
	c := newCluster(t, simnet.USWest)
	c.server.defaultWorkers = 2
	if nodes := c.start(t, "dflt", "EventualConsistency", nil); len(nodes) != 2 {
		t.Fatalf("nodes = %v, want the 2 default workers", nodes)
	}
	if nodes := c.start(t, "own", "EventualConsistency", map[string]string{"workers": "3"}); len(nodes) != 3 {
		t.Fatalf("nodes = %v, want 3", nodes)
	}
	if nodes := c.start(t, "one", "EventualConsistency", map[string]string{"workers": "1"}); len(nodes) != 1 {
		t.Fatalf("nodes = %v, want 1", nodes)
	}
}

// TestReadmeOptionsTable keeps README.md's options table the text
// `wieractl start -h` prints.
func TestReadmeOptionsTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- options:begin -->\n```\n", "```\n<!-- options:end -->"
	_, rest, ok := strings.Cut(string(readme), begin)
	block, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatal("README.md has no options block")
	}
	if block != OptionsHelp() {
		t.Fatalf("README.md options block is stale; replace it with:\n%s", OptionsHelp())
	}
}
