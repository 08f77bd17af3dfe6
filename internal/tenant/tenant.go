// Package tenant implements multi-tenant namespaces for wiera: tenant-scoped
// key encoding (so tenants land on disjoint ring key families while sharing
// the worker pool), token-bucket admission control with IOPS and byte-rate
// quotas, and a stride weighted-fair scheduler that bounds how much one
// tenant's backlog can inflate another tenant's queue wait.
package tenant

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/wire"
)

// DefaultID is the implicit tenant for untenanted clients. It has unlimited
// quota and weight 1, and its keys are stored unqualified so every pre-tenancy
// deployment keeps its exact key encoding.
const DefaultID = "default"

// keyPrefix introduces a qualified tenant key: "tn:<id>:<key>". Tenant IDs
// may not contain ':' so the encoding parses unambiguously.
const keyPrefix = "tn:"

// ValidID reports whether id is usable as a tenant ID: nonempty, no ':'
// (reserved as the key separator), no ',' or whitespace (reserved by the
// spawn-param list syntax).
func ValidID(id string) bool {
	if id == "" {
		return false
	}
	return !strings.ContainsAny(id, ":, \t\n")
}

// Qualify folds a tenant ID into an object key. The default (or empty) tenant
// maps to the bare key, so untenanted traffic is byte-compatible with
// pre-tenancy deployments; named tenants get a parseable prefix that ring
// hashing, storage, Merkle sync, and repair all see as part of the key —
// disjoint key families fall out with no changes to those layers.
func Qualify(id, key string) string {
	if id == "" || id == DefaultID {
		return key
	}
	return keyPrefix + id + ":" + key
}

// Split recovers (tenant, bare key) from a possibly-qualified key. Unqualified
// keys belong to the default tenant.
func Split(qualified string) (id, key string) {
	if !strings.HasPrefix(qualified, keyPrefix) {
		return DefaultID, qualified
	}
	rest := qualified[len(keyPrefix):]
	i := strings.IndexByte(rest, ':')
	if i < 0 {
		return DefaultID, qualified
	}
	return rest[:i], rest[i+1:]
}

// Config describes one tenant: its scheduler weight and its admission quotas.
// Zero or negative quota values mean unlimited.
type Config struct {
	ID     string
	Weight int     // scheduler share; <1 treated as 1
	IOPS   float64 // ops/sec admission quota; <=0 unlimited
	Bytes  float64 // bytes/sec admission quota; <=0 unlimited
}

// ErrQuotaExceeded is the typed admission NACK. It is non-retryable from the
// client's point of view: retrying immediately would burn the backoff budget
// against a deterministic limiter.
type ErrQuotaExceeded struct {
	Tenant string
	Kind   string // "iops" or "bytes"
}

func (e *ErrQuotaExceeded) Error() string {
	return "tenant: quota exceeded: " + e.Tenant + " " + e.Kind
}

// WireStatus implements wire.Coded.
func (e *ErrQuotaExceeded) WireStatus() (wire.Code, []byte) {
	return wire.CodeQuotaExceeded, wire.AppendString(wire.AppendString(nil, e.Tenant), e.Kind)
}

// AsQuotaExceeded recovers an ErrQuotaExceeded from err's status code and
// detail, whether err was raised in this process or crossed any number of
// RPC hops. It returns nil when err is something else.
func AsQuotaExceeded(err error) *ErrQuotaExceeded {
	code, detail := wire.CodeOf(err)
	if code != wire.CodeQuotaExceeded {
		return nil
	}
	r := wire.NewReader(detail)
	e := &ErrQuotaExceeded{Tenant: r.String(), Kind: r.String()}
	if r.Close() != nil {
		return nil
	}
	return e
}

// ParseConfigs turns the spawn-param surface into tenant configs:
//
//	tenants             = "gold,bronze"      (comma-separated IDs)
//	tenantWeight:<id>   = scheduler weight   (default 1)
//	tenantIOPS:<id>     = ops/sec quota      (default unlimited)
//	tenantBytes:<id>    = bytes/sec quota    (default unlimited)
//
// The default tenant is always present (weight 1, unlimited) whether or not it
// is listed. Returns nil when no tenants are declared, which callers treat as
// "tenancy disabled".
func ParseConfigs(params map[string]string) ([]Config, error) {
	list, ok := params["tenants"]
	if !ok || strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var cfgs []Config
	seen := map[string]bool{}
	for _, raw := range strings.Split(list, ",") {
		id := strings.TrimSpace(raw)
		if id == "" {
			continue
		}
		if !ValidID(id) {
			return nil, fmt.Errorf("tenant: invalid tenant id %q", id)
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		c := Config{ID: id, Weight: 1}
		if w, ok := params["tenantWeight:"+id]; ok {
			var v int
			if _, err := fmt.Sscanf(strings.TrimSpace(w), "%d", &v); err != nil {
				return nil, fmt.Errorf("tenant: bad tenantWeight:%s=%q", id, w)
			}
			c.Weight = v
		}
		if q, ok := params["tenantIOPS:"+id]; ok {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(q), "%g", &v); err != nil {
				return nil, fmt.Errorf("tenant: bad tenantIOPS:%s=%q", id, q)
			}
			c.IOPS = v
		}
		if q, ok := params["tenantBytes:"+id]; ok {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(q), "%g", &v); err != nil {
				return nil, fmt.Errorf("tenant: bad tenantBytes:%s=%q", id, q)
			}
			c.Bytes = v
		}
		cfgs = append(cfgs, c)
	}
	if len(cfgs) == 0 {
		return nil, nil
	}
	if !seen[DefaultID] {
		cfgs = append(cfgs, Config{ID: DefaultID, Weight: 1})
	}
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].ID < cfgs[j].ID })
	return cfgs, nil
}

// IsTenantParam reports whether a spawn-param key belongs to the tenancy
// surface and must be passed through as a raw string rather than parsed as a
// policy literal.
func IsTenantParam(k string) bool {
	return k == "tenants" || k == "tenantSlots" ||
		strings.HasPrefix(k, "tenantWeight:") ||
		strings.HasPrefix(k, "tenantIOPS:") ||
		strings.HasPrefix(k, "tenantBytes:")
}
