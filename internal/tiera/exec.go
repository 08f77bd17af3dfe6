package tiera

import (
	"context"
	"fmt"
	"time"

	"repro/internal/object"
	"repro/internal/policy"
)

// opContext carries the state of one in-flight put while its insert events
// execute, and is their policy.Executor: it handles the local
// (intra-instance) actions; global actions (forward, queue, lock, release,
// change_policy) are rejected here and belong to the Wiera layer, which
// drives this one. ctx carries the operation's trace span into tier
// accesses; env is what the insert events read.
type opContext struct {
	ctx    context.Context
	inst   *Instance
	key    string
	meta   object.Meta
	data   []byte
	target string
	stored bool
	dirty  bool
	env    policy.OpEnv
}

// storeTo writes the current object's payload into the labeled tier and
// records its location.
func (op *opContext) storeTo(label string) error {
	t, ok := op.inst.tiers[label]
	if !ok {
		return fmt.Errorf("tiera: no tier %q in instance %s", label, op.inst.name)
	}
	vk := object.VersionKey(op.key, op.meta.Version)
	if err := t.Put(op.ctx, vk, op.data); err != nil {
		return err
	}
	if err := op.inst.objects.SetTier(op.key, op.meta.Version, label); err != nil {
		return err
	}
	op.stored = true
	return nil
}

// Do implements policy.Executor.
func (op *opContext) Do(call *policy.ActionCall) error {
	switch call.Name {
	case "store":
		to, err := call.StringArg("to")
		if err != nil {
			return err
		}
		if to == "local_instance" {
			to = op.target
		}
		return op.storeTo(to)
	case "copy", "move":
		return op.copyOrMove(call, call.Name == "move")
	case "delete":
		pred, _ := call.Pred("what")
		return op.inst.deleteMatching(pred)
	case "compress", "encrypt":
		encrypt := call.Name == "encrypt"
		if pred, ok := call.Pred("what"); ok {
			return op.inst.transformMatching(pred, encrypt)
		}
		// Insert-time transform of the current object.
		meta, err := op.inst.objects.GetVersion(op.key, op.meta.Version)
		if err != nil {
			return err
		}
		return op.inst.transformOne(meta, encrypt)
	case "grow":
		to, err := call.StringArg("what")
		if err != nil {
			return err
		}
		by, ok := call.Arg("by")
		if !ok || by.Kind != policy.ValSize {
			return fmt.Errorf("tiera: grow requires by: <size>")
		}
		t, exists := op.inst.tiers[to]
		if !exists {
			return fmt.Errorf("tiera: no tier %q to grow", to)
		}
		t.Grow(by.Size)
		return nil
	default:
		return fmt.Errorf("tiera: unsupported local action %q", call.Name)
	}
}

func (op *opContext) copyOrMove(call *policy.ActionCall, move bool) error {
	to, err := call.StringArg("to")
	if err != nil {
		return err
	}
	// Predicate selector at insert time: scan (rare but legal).
	if pred, ok := call.Pred("what"); ok {
		return op.inst.transferMatching(op.ctx, pred, to, move, bandwidthOf(call))
	}
	// For insert-time copy/move the selector is the current object.
	what, err := call.StringArg("what")
	if err != nil {
		return err
	}
	if what != "insert.object" && what != op.key {
		return fmt.Errorf("tiera: copy of %q outside the current operation", what)
	}
	return op.inst.transferVersion(op.ctx, op.key, op.meta.Version, op.target, to, move, bandwidthOf(call))
}

// Assign implements policy.Executor: insert.object.<attr> = value.
func (op *opContext) Assign(path string, v policy.Value) error {
	switch path {
	case "insert.object.dirty":
		if v.Kind != policy.ValBool {
			return fmt.Errorf("tiera: dirty must be boolean")
		}
		op.dirty = v.Bool
		return nil
	default:
		return fmt.Errorf("tiera: cannot assign %q", path)
	}
}

// bandwidthOf extracts an optional bandwidth argument (bytes/sec, 0 = none).
func bandwidthOf(call *policy.ActionCall) float64 {
	if v, ok := call.Arg("bandwidth"); ok && v.Kind == policy.ValRate {
		return v.Num
	}
	return 0
}

// transferVersion copies (or moves) one version's payload from the first
// tier currently holding it to the destination tier. A bandwidth cap adds
// size/bw of transfer delay. Copy to a durable tier clears the dirty bit
// (write-back completion).
func (in *Instance) transferVersion(ctx context.Context, key string, v object.Version, preferredFrom, to string, move bool, bw float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	dst, ok := in.tiers[to]
	if !ok {
		return fmt.Errorf("tiera: no destination tier %q", to)
	}
	vk := object.VersionKey(key, v)
	from := ""
	if preferredFrom != "" && in.tiers[preferredFrom] != nil && in.tiers[preferredFrom].Has(vk) {
		from = preferredFrom
	} else {
		for _, label := range in.tierOrder {
			if in.tiers[label].Has(vk) {
				from = label
				break
			}
		}
	}
	if from == "" {
		return fmt.Errorf("tiera: no tier holds %s", vk)
	}
	if from == to {
		return nil
	}
	data, err := in.tiers[from].Get(ctx, vk)
	if err != nil {
		return err
	}
	if bw > 0 {
		in.clk.Sleep(time.Duration(float64(len(data)) / bw * float64(time.Second)))
	}
	if err := dst.Put(ctx, vk, data); err != nil {
		return err
	}
	if move {
		_ = in.tiers[from].Delete(ctx, vk)
		if err := in.objects.SetTier(key, v, to); err != nil {
			return err
		}
	}
	if !dst.Volatile() {
		_ = in.objects.SetDirty(key, v, false)
	}
	return nil
}

// transferMatching applies transferVersion to every (object, tier) pair the
// predicate matches. The predicate sees object.location bound to each tier
// currently holding the payload, so "object.location == tier2" selects the
// copy living in tier2.
func (in *Instance) transferMatching(ctx context.Context, pred policy.Predicate, to string, move bool, bw float64) error {
	matches, err := in.matchObjects(pred)
	if err != nil {
		return err
	}
	for _, m := range matches {
		if m.location == to {
			continue
		}
		if err := in.transferVersion(ctx, m.meta.Key, m.meta.Version, m.location, to, move, bw); err != nil {
			return err
		}
	}
	return nil
}

// deleteMatching removes the payload copies pred selects (and, when the
// object ends up nowhere, its metadata). A delete names its victims by
// predicate only, so a nil pred is an error.
func (in *Instance) deleteMatching(pred policy.Predicate) error {
	if pred == nil {
		return fmt.Errorf("tiera: delete requires a what: predicate")
	}
	matches, err := in.matchObjects(pred)
	if err != nil {
		return err
	}
	for _, m := range matches {
		vk := object.VersionKey(m.meta.Key, m.meta.Version)
		_ = in.tiers[m.location].Delete(context.Background(), vk)
		if len(in.Locations(m.meta.Key, m.meta.Version)) == 0 {
			_ = in.objects.RemoveVersion(m.meta.Key, m.meta.Version)
		}
	}
	return nil
}

// match is one (object version, holding tier) pair selected by a predicate.
type match struct {
	meta     object.Meta
	location string
}

// matchObjects evaluates pred once per (version, holding-tier) pair. The
// environment binds the object attributes of Sec 2.2: size, dirty,
// location, access counters, age values for cold-data policies, and
// isLatest for version garbage collection (Sec 3.2.1).
func (in *Instance) matchObjects(pred policy.Predicate) ([]match, error) {
	now := in.clk.Now()
	var out []match
	var firstErr error
	in.objects.Scan(func(m object.Meta) bool {
		vk := object.VersionKey(m.Key, m.Version)
		latest, lerr := in.objects.Latest(m.Key)
		isLatest := lerr == nil && latest.Version == m.Version
		for _, label := range in.tierOrder {
			if !in.tiers[label].Has(vk) {
				continue
			}
			env := objectEnv(m, label, now)
			env.Set("object.isLatest", policy.BoolVal(isLatest))
			okMatch, err := pred(env)
			if err != nil {
				firstErr = err
				return false
			}
			if okMatch {
				out = append(out, match{meta: m, location: label})
				break // one source location per version
			}
		}
		return true
	})
	return out, firstErr
}

// objectEnv binds an object version's attributes for predicate evaluation.
func objectEnv(m object.Meta, location string, now time.Time) *policy.MapEnv {
	env := policy.NewMapEnv()
	env.Set("object.key", policy.StringVal(m.Key))
	env.Set("object.version", policy.NumberVal(float64(m.Version)))
	env.Set("object.size", policy.SizeVal(m.Size))
	env.Set("object.dirty", policy.BoolVal(m.Dirty))
	env.Set("object.location", policy.IdentVal(location))
	env.Set("object.accessCount", policy.NumberVal(float64(m.AccessCnt)))
	env.Set("object.compressed", policy.BoolVal(m.Compressed))
	env.Set("object.encrypted", policy.BoolVal(m.Encrypted))
	// Age attributes evaluate as elapsed durations, so the paper's
	// "object.lastAccessedTime > 120 hours" reads naturally.
	env.Set("object.lastAccessedTime", policy.DurationVal(now.Sub(m.AccessedAt)))
	env.Set("object.lastModifiedTime", policy.DurationVal(now.Sub(m.ModifiedAt)))
	env.Set("object.age", policy.DurationVal(now.Sub(m.CreatedAt)))
	for _, tag := range m.Tags {
		env.Set("object.tag."+tag, policy.BoolVal(true))
	}
	return env
}
