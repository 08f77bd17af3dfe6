package tiera

import (
	"context"

	"repro/internal/cost"
	"repro/internal/tier"
)

// InstanceTier adapts a whole Tiera instance into a storage tier of another
// instance — the paper's modular instances (Sec 3.2.2): "a Tiera instance
// can specify another Tiera instance as a storage tier", e.g. wrapping
// RAW-BIG-DATA-INSTANCES as a read-only tier under an INTERMEDIATE-DATA
// instance.
type InstanceTier struct {
	label    string
	backend  *Instance
	readOnly bool
}

// NewInstanceTier wraps backend as a tier named label. With readOnly set,
// Put and Delete are rejected (the paper's read-only raw-data tier).
func NewInstanceTier(label string, backend *Instance, readOnly bool) *InstanceTier {
	return &InstanceTier{label: label, backend: backend, readOnly: readOnly}
}

// Name implements tier.Tier.
func (a *InstanceTier) Name() string { return a.label }

// Class implements tier.Tier: the class of the backend's first tier.
func (a *InstanceTier) Class() cost.TierClass {
	if len(a.backend.tierOrder) > 0 {
		return a.backend.tiers[a.backend.tierOrder[0]].Class()
	}
	return cost.ClassS3
}

// Volatile implements tier.Tier: an instance tier is durable if any of its
// backend tiers is durable.
func (a *InstanceTier) Volatile() bool {
	for _, label := range a.backend.tierOrder {
		if !a.backend.tiers[label].Volatile() {
			return false
		}
	}
	return true
}

// errReadOnly reports writes to a read-only instance tier.
type errReadOnly struct{ label string }

func (e errReadOnly) Error() string {
	return "tiera: instance tier " + e.label + " is read-only"
}

// Put implements tier.Tier by storing through the backend instance's own
// policy. Version-composite keys pass through unchanged (the backend
// versions them independently).
func (a *InstanceTier) Put(ctx context.Context, key string, data []byte) error {
	if a.readOnly {
		return errReadOnly{a.label}
	}
	_, err := a.backend.Put(ctx, key, data)
	return err
}

// Get implements tier.Tier, reading the latest version from the backend.
func (a *InstanceTier) Get(ctx context.Context, key string) ([]byte, error) {
	data, _, err := a.backend.Get(ctx, key)
	return data, err
}

// Delete implements tier.Tier.
func (a *InstanceTier) Delete(ctx context.Context, key string) error {
	if a.readOnly {
		return errReadOnly{a.label}
	}
	return a.backend.Remove(ctx, key)
}

// Has implements tier.Tier.
func (a *InstanceTier) Has(key string) bool {
	_, err := a.backend.objects.Latest(key)
	return err == nil
}

// Keys implements tier.Tier.
func (a *InstanceTier) Keys() []string { return a.backend.objects.Keys() }

// Used implements tier.Tier: total bytes across backend tiers.
func (a *InstanceTier) Used() int64 {
	var total int64
	for _, label := range a.backend.tierOrder {
		total += a.backend.tiers[label].Used()
	}
	return total
}

// Capacity implements tier.Tier: total capacity across backend tiers (0 if
// any is unlimited).
func (a *InstanceTier) Capacity() int64 {
	var total int64
	for _, label := range a.backend.tierOrder {
		c := a.backend.tiers[label].Capacity()
		if c == 0 {
			return 0
		}
		total += c
	}
	return total
}

// Grow implements tier.Tier by growing the backend's first tier.
func (a *InstanceTier) Grow(delta int64) {
	if len(a.backend.tierOrder) > 0 {
		a.backend.tiers[a.backend.tierOrder[0]].Grow(delta)
	}
}

// Stats implements tier.Tier with the backend's aggregate counters.
func (a *InstanceTier) Stats() tier.Stats {
	var agg tier.Stats
	for _, label := range a.backend.tierOrder {
		s := a.backend.tiers[label].Stats()
		agg.Puts += s.Puts
		agg.Gets += s.Gets
		agg.Deletes += s.Deletes
		agg.BytesIn += s.BytesIn
		agg.BytesOut += s.BytesOut
		agg.Evictions += s.Evictions
	}
	return agg
}

// Backend returns the wrapped instance.
func (a *InstanceTier) Backend() *Instance { return a.backend }

// compile-time interface check
var _ tier.Tier = (*InstanceTier)(nil)
