package tiera

import (
	"bytes"
	"context"

	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cost"
	"repro/internal/object"
	"repro/internal/policy"
	"repro/internal/simnet"
	"repro/internal/tier"
)

func fastClock() clock.Clock { return clock.NewScaled(10000) }

func newLowLatency(t *testing.T) *Instance {
	t.Helper()
	spec, err := policy.Builtin("LowLatencyInstance")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(Config{
		Name: "test/low-latency", Region: simnet.USEast, Spec: spec,
		Params: map[string]policy.Value{"t": policy.DurationVal(10 * time.Second)},
		Clock:  fastClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	return inst
}

func newPersistent(t *testing.T) *Instance {
	t.Helper()
	spec, err := policy.Builtin("PersistentInstance")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(Config{
		Name: "test/persistent", Region: simnet.USEast, Spec: spec,
		Clock: fastClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	return inst
}

func TestPutGetRoundTrip(t *testing.T) {
	inst := newLowLatency(t)
	meta, err := inst.Put(context.Background(), "k", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 1 {
		t.Fatalf("version = %d", meta.Version)
	}
	data, m, err := inst.Get(context.Background(), "k")
	if err != nil || string(data) != "hello" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if m.AccessCnt != 1 {
		t.Fatalf("AccessCnt = %d", m.AccessCnt)
	}
}

func TestGetMissing(t *testing.T) {
	inst := newLowLatency(t)
	if _, _, err := inst.Get(context.Background(), "absent"); err == nil {
		t.Fatal("missing key should error")
	}
}

func TestWriteBackPolicy(t *testing.T) {
	inst := newLowLatency(t)
	meta, err := inst.Put(context.Background(), "k", []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	// LowLatencyInstance stores to tier1 (memory) and marks dirty.
	if !meta.Dirty {
		t.Fatal("insert should set dirty")
	}
	locs := inst.Locations("k", meta.Version)
	if len(locs) != 1 || locs[0] != "tier1" {
		t.Fatalf("locations after put = %v", locs)
	}
	// Timer event copies dirty objects to tier2 and clears dirty.
	if err := inst.RunTimerEventsOnce(); err != nil {
		t.Fatal(err)
	}
	locs = inst.Locations("k", meta.Version)
	if len(locs) != 2 {
		t.Fatalf("locations after write-back = %v", locs)
	}
	m, _ := inst.Objects().GetVersion("k", meta.Version)
	if m.Dirty {
		t.Fatal("write-back should clear dirty")
	}
	// A second timer run must not copy again (no dirty objects).
	t2, _ := inst.Tier("tier2")
	puts := t2.Stats().Puts
	if err := inst.RunTimerEventsOnce(); err != nil {
		t.Fatal(err)
	}
	if t2.Stats().Puts != puts {
		t.Fatal("clean objects were copied again")
	}
}

func TestWriteThroughPolicy(t *testing.T) {
	inst := newPersistent(t)
	meta, err := inst.Put(context.Background(), "k", []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	// PersistentInstance: implicit store to tier1 plus synchronous copy to
	// tier2 (write-through), no timer needed.
	locs := inst.Locations("k", meta.Version)
	if len(locs) != 2 || locs[0] != "tier1" || locs[1] != "tier2" {
		t.Fatalf("locations = %v", locs)
	}
}

func TestBackupOnFillThreshold(t *testing.T) {
	// Shrink tiers so the 50% threshold trips quickly.
	src := `
Tiera SmallPersistent {
	tier1: {name: memory, size: 1M};
	tier2: {name: ebs-ssd, size: 10KB};
	tier3: {name: s3, size: 1M};
	event(insert.into == tier1) : response {
		copy(what: insert.object, to: tier2);
	}
	event(tier2.filled == 50%) : response {
		copy(what: object.location == tier2, to: tier3);
	}
}`
	spec, err := policy.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(Config{Name: "t", Region: simnet.USEast, Spec: spec, Clock: fastClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	// ~3KB of 10KB: below threshold.
	if _, err := inst.Put(context.Background(), "a", make([]byte, 3<<10)); err != nil {
		t.Fatal(err)
	}
	t3, _ := inst.Tier("tier3")
	if len(t3.Keys()) != 0 {
		t.Fatal("backup ran below threshold")
	}
	// +3KB crosses 50%: backup copies tier2 contents to tier3.
	if _, err := inst.Put(context.Background(), "b", make([]byte, 3<<10)); err != nil {
		t.Fatal(err)
	}
	if got := len(t3.Keys()); got != 2 {
		t.Fatalf("tier3 keys = %d, want 2", got)
	}
}

func TestColdDataMonitor(t *testing.T) {
	src := `
Tiera ColdDemo {
	tier1: {name: ebs-ssd, size: 1G};
	tier2: {name: s3-ia, size: 1G};
	event(object.lastAccessedTime > 120h) : response {
		move(what: object.location == tier1, to: tier2);
	}
}`
	spec, err := policy.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewSim(time.Time{})
	inst, err := New(Config{Name: "cold", Region: simnet.USEast, Spec: spec, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	// Puts would block on the sim clock for service latency; run them in a
	// goroutine while advancing.
	done := make(chan error, 1)
	go func() {
		_, err := inst.Put(context.Background(), "hot", []byte("h"))
		if err == nil {
			_, err = inst.Put(context.Background(), "cold", []byte("c"))
		}
		done <- err
	}()
	advanceUntil(t, clk, done)

	// Age both, then touch "hot" to keep it warm.
	clk.Advance(121 * time.Hour)
	go func() {
		_, _, err := inst.Get(context.Background(), "hot")
		done <- err
	}()
	advanceUntil(t, clk, done)

	go func() { done <- inst.RunObjectMonitorsOnce() }()
	advanceUntil(t, clk, done)
	coldMeta, _ := inst.Objects().Latest("cold")
	locs := inst.Locations("cold", coldMeta.Version)
	if len(locs) != 1 || locs[0] != "tier2" {
		t.Fatalf("cold object locations = %v, want [tier2]", locs)
	}
	hotMeta, _ := inst.Objects().Latest("hot")
	locs = inst.Locations("hot", hotMeta.Version)
	if len(locs) != 1 || locs[0] != "tier1" {
		t.Fatalf("hot object locations = %v, want [tier1]", locs)
	}
}

// advanceUntil advances the sim clock until the operation completes.
func advanceUntil(t *testing.T, clk *clock.Sim, done <-chan error) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
			clk.Advance(10 * time.Millisecond)
			if time.Now().After(deadline) {
				t.Fatal("operation never completed")
			}
		}
	}
}

func TestVersioning(t *testing.T) {
	inst := newLowLatency(t)
	inst.Put(context.Background(), "k", []byte("v1"))
	inst.Put(context.Background(), "k", []byte("v2"))
	inst.Put(context.Background(), "k", []byte("v3"))
	vs, err := inst.VersionList("k")
	if err != nil || len(vs) != 3 {
		t.Fatalf("VersionList = %v, %v", vs, err)
	}
	data, _, err := inst.GetVersion(context.Background(), "k", 1)
	if err != nil || string(data) != "v1" {
		t.Fatalf("GetVersion(1) = %q, %v", data, err)
	}
	data, _, _ = inst.Get(context.Background(), "k")
	if string(data) != "v3" {
		t.Fatalf("latest = %q", data)
	}
	if err := inst.RemoveVersion(context.Background(), "k", 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := inst.GetVersion(context.Background(), "k", 2); err == nil {
		t.Fatal("removed version still readable")
	}
	if err := inst.Remove(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := inst.Get(context.Background(), "k"); err == nil {
		t.Fatal("removed key still readable")
	}
	if err := inst.Remove(context.Background(), "k"); err == nil {
		t.Fatal("double remove should error")
	}
	if err := inst.RemoveVersion(context.Background(), "k", 1); err == nil {
		t.Fatal("remove version of missing key should error")
	}
}

// TestGetDuringOverwrite reads a key while it is being overwritten on a
// disk tier. A put registers its version before the payload reaches the
// tier, so a get in that window must serve the previous version instead
// of failing.
func TestGetDuringOverwrite(t *testing.T) {
	spec, err := policy.Parse(`Tiera Disk { tier1: {name: ebs-ssd, size: 4G, iops: 500}; }`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(Config{Name: "test/disk", Region: simnet.USEast, Spec: spec, Clock: clock.NewScaled(100)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	ctx := context.Background()
	if _, err := inst.Put(ctx, "k", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	const puts = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= puts; i++ {
			if _, err := inst.Put(ctx, "k", []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	gets := 0
	for {
		select {
		case <-done:
			if gets == 0 {
				t.Fatal("no get overlapped the puts")
			}
			return
		default:
		}
		data, _, err := inst.Get(ctx, "k")
		if err != nil {
			t.Fatalf("get %d during overwrite: %v", gets, err)
		}
		if !bytes.HasPrefix(data, []byte("v")) {
			t.Fatalf("get %d during overwrite = %q", gets, data)
		}
		gets++
	}
}

func TestTags(t *testing.T) {
	inst := newLowLatency(t)
	meta, err := inst.PutTagged(context.Background(), "tmp-file", []byte("x"), []string{"tmp"})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.HasTag("tmp") {
		t.Fatal("tag lost")
	}
}

func TestApplyRemoteLWW(t *testing.T) {
	inst := newLowLatency(t)
	base := inst.clk.Now()
	won, err := inst.ApplyRemote(context.Background(), object.Meta{
		Key: "k", Version: 1, Size: 2, Origin: "remote-1", ModifiedAt: base,
	}, []byte("r1"))
	if err != nil || !won {
		t.Fatalf("ApplyRemote = %v, %v", won, err)
	}
	data, _, err := inst.Get(context.Background(), "k")
	if err != nil || string(data) != "r1" {
		t.Fatalf("Get after apply = %q, %v", data, err)
	}
	// An older remote update loses.
	won, err = inst.ApplyRemote(context.Background(), object.Meta{
		Key: "k", Version: 1, Size: 2, Origin: "remote-0", ModifiedAt: base.Add(-time.Hour),
	}, []byte("old"))
	if err != nil || won {
		t.Fatalf("old update won = %v, %v", won, err)
	}
	data, _, _ = inst.Get(context.Background(), "k")
	if string(data) != "r1" {
		t.Fatalf("payload overwritten by losing update: %q", data)
	}
}

func TestCrashVolatileLosesMemoryKeepsDisk(t *testing.T) {
	inst := newLowLatency(t)
	meta, _ := inst.Put(context.Background(), "k", []byte("v"))
	inst.RunTimerEventsOnce() // write back to tier2
	inst.CrashVolatile()
	locs := inst.Locations("k", meta.Version)
	if len(locs) != 1 || locs[0] != "tier2" {
		t.Fatalf("locations after crash = %v", locs)
	}
	// Data still readable from the durable tier.
	data, _, err := inst.Get(context.Background(), "k")
	if err != nil || string(data) != "v" {
		t.Fatalf("Get after crash = %q, %v", data, err)
	}
}

func TestCrashBeforeWriteBackLosesData(t *testing.T) {
	inst := newLowLatency(t)
	meta, _ := inst.Put(context.Background(), "k", []byte("v"))
	inst.CrashVolatile() // dirty data only in memory: gone
	if locs := inst.Locations("k", meta.Version); len(locs) != 0 {
		t.Fatalf("locations = %v", locs)
	}
	if _, _, err := inst.Get(context.Background(), "k"); err == nil {
		t.Fatal("lost data still readable")
	}
}

func TestModularInstanceTier(t *testing.T) {
	// A backing instance holding raw data, wrapped read-only as tier2 of a
	// front instance (the paper's RAW-BIG-DATA / INTERMEDIATE-DATA case).
	backing := newPersistent(t)
	if _, err := backing.Put(context.Background(), "raw-1", []byte("raw data")); err != nil {
		t.Fatal(err)
	}
	adapter := NewInstanceTier("tier2", backing, true)

	src := `
Tiera Intermediate {
	tier1: {name: memory, size: 1G};
	tier2: {name: s3, size: 1G};
}`
	spec, _ := policy.Parse(src)
	front, err := New(Config{
		Name: "front", Region: simnet.USEast, Spec: spec, Clock: fastClock(),
		ExtraTiers: map[string]tier.Tier{"tier2": adapter},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	t2, _ := front.Tier("tier2")
	if t2 != tier.Tier(adapter) {
		t.Fatal("extra tier not installed")
	}
	// Reads of raw data flow through the adapter to the backing instance.
	data, err := t2.Get(context.Background(), "raw-1")
	if err != nil || string(data) != "raw data" {
		t.Fatalf("adapter Get = %q, %v", data, err)
	}
	// Read-only: writes rejected.
	if err := t2.Put(context.Background(), "x", []byte("y")); err == nil {
		t.Fatal("read-only adapter accepted a write")
	}
	if err := t2.Delete(context.Background(), "raw-1"); err == nil {
		t.Fatal("read-only adapter accepted a delete")
	}
	// Front instance puts go to its own tier1.
	if _, err := front.Put(context.Background(), "intermediate", []byte("mid")); err != nil {
		t.Fatal(err)
	}
	if !adapter.Volatile() {
		// PersistentInstance has durable tiers, so the adapter is durable.
	} else {
		t.Fatal("adapter over durable instance should not be volatile")
	}
	if adapter.Used() == 0 {
		t.Fatal("adapter should report backend usage")
	}
	if adapter.Backend() != backing {
		t.Fatal("Backend accessor broken")
	}
	if len(adapter.Keys()) == 0 {
		t.Fatal("adapter should list backend keys")
	}
	if !adapter.Has("raw-1") {
		t.Fatal("adapter should report backend keys")
	}
}

func TestWritableInstanceTier(t *testing.T) {
	backing := newPersistent(t)
	adapter := NewInstanceTier("t", backing, false)
	if err := adapter.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	data, err := adapter.Get(context.Background(), "k")
	if err != nil || !bytes.Equal(data, []byte("v")) {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if err := adapter.Delete(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	adapter.Grow(100)
	_ = adapter.Stats()
	_ = adapter.Capacity()
	_ = adapter.Class()
}

func TestConfigValidation(t *testing.T) {
	spec, _ := policy.Builtin("LowLatencyInstance")
	wspec, _ := policy.Builtin("EventualConsistency")
	params := map[string]policy.Value{"t": policy.DurationVal(time.Second)}
	cases := []Config{
		{Region: simnet.USEast, Spec: spec, Params: params, Clock: fastClock()}, // no name
		{Name: "x", Spec: spec, Params: params},                                 // no clock
		{Name: "x", Clock: fastClock()},                                         // no spec
		{Name: "x", Spec: wspec, Clock: fastClock()},                            // global spec
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Spec with no tiers fails.
	empty, _ := policy.Parse("Tiera E { }")
	if _, err := New(Config{Name: "x", Spec: empty, Clock: fastClock()}); err == nil {
		t.Error("no-tier spec should fail")
	}
	// Unknown tier service name fails.
	badTier, _ := policy.Parse("Tiera B { tier1: {name: floppy, size: 1G}; }")
	if _, err := New(Config{Name: "x", Spec: badTier, Clock: fastClock()}); err == nil {
		t.Error("unknown tier kind should fail")
	}
}

func TestKindForTierNameAliases(t *testing.T) {
	cases := map[string]string{
		"Memcached": "memory", "LocalMemory": "memory", "EBS": "ebs-ssd",
		"LocalDisk": "ebs-ssd", "S3": "s3", "CheapestArchival": "s3-ia",
		"Glacier": "glacier",
	}
	for name, want := range cases {
		got, err := KindForTierName(name)
		if err != nil || got != want {
			t.Errorf("KindForTierName(%s) = %q, %v", name, got, err)
		}
	}
	if _, err := KindForTierName("punchcards"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestAccountantWiring(t *testing.T) {
	acct := cost.NewAccountant()
	spec, _ := policy.Builtin("PersistentInstance")
	inst, err := New(Config{
		Name: "a", Region: simnet.USEast, Spec: spec, Clock: fastClock(),
		Accountant: acct,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	inst.Put(context.Background(), "k", []byte("v"))
	rows := acct.ByClass()
	if len(rows) == 0 {
		t.Fatal("no charges recorded")
	}
}

func TestTimerLoopViaStart(t *testing.T) {
	spec, _ := policy.Builtin("LowLatencyInstance")
	inst, err := New(Config{
		Name: "bg", Region: simnet.USEast, Spec: spec,
		Params: map[string]policy.Value{"t": policy.DurationVal(50 * time.Millisecond)},
		Clock:  clock.NewScaled(100), // 50ms clock -> 0.5ms real
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	meta, _ := inst.Put(context.Background(), "k", []byte("v"))
	inst.Start()
	inst.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for {
		if locs := inst.Locations("k", meta.Version); len(locs) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background timer never wrote back")
		}
		time.Sleep(time.Millisecond)
	}
	inst.Stop()
	inst.Stop() // idempotent
}

func TestPutGetLatencyRecorded(t *testing.T) {
	inst := newLowLatency(t)
	inst.Put(context.Background(), "k", []byte("v"))
	inst.Get(context.Background(), "k")
	if inst.PutLatency.Count() != 1 || inst.GetLatency.Count() != 1 {
		t.Fatalf("latency counts = %d/%d", inst.PutLatency.Count(), inst.GetLatency.Count())
	}
	if inst.PutCount() != 1 || inst.GetCount() != 1 {
		t.Fatalf("op counts = %d/%d", inst.PutCount(), inst.GetCount())
	}
}

func TestTierOrderNumeric(t *testing.T) {
	src := `
Tiera Many {
	tier1: {name: memory, size: 1G};
	tier2: {name: ebs-ssd, size: 1G};
	tier10: {name: s3, size: 1G};
}`
	spec, _ := policy.Parse(src)
	inst, err := New(Config{Name: "m", Region: simnet.USEast, Spec: spec, Clock: fastClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	order := inst.TierOrder()
	if fmt.Sprint(order) != "[tier1 tier2 tier10]" {
		t.Fatalf("order = %v", order)
	}
}

func TestGetFromSecondTierAfterEviction(t *testing.T) {
	// Tiny memory tier: the first object is evicted by the second; reads
	// fall through to tier2 after write-back.
	src := `
Tiera Tiny(time t) {
	tier1: {name: memory, size: 8B};
	tier2: {name: ebs-ssd, size: 1G};
	event(insert.into) : response {
		insert.object.dirty = true;
		store(what: insert.object, to: tier1);
	}
	event(time = t) : response {
		copy(what: object.location == tier1 && object.dirty == true, to: tier2);
	}
}`
	spec, _ := policy.Parse(src)
	inst, err := New(Config{
		Name: "tiny", Region: simnet.USEast, Spec: spec,
		Params: map[string]policy.Value{"t": policy.DurationVal(time.Second)},
		Clock:  fastClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	inst.Put(context.Background(), "a", []byte("11111111")) // fills the 8B memory tier
	inst.RunTimerEventsOnce()                               // a -> tier2
	inst.Put(context.Background(), "b", []byte("22222222")) // evicts a from memory
	data, _, err := inst.Get(context.Background(), "a")
	if err != nil || string(data) != "11111111" {
		t.Fatalf("Get(a) = %q, %v", data, err)
	}
}
