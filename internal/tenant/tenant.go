// Package tenant implements multi-tenant namespaces for wiera: tenant-scoped
// key encoding (so tenants land on disjoint ring key families while sharing
// the worker pool), token-bucket admission control with IOPS and byte-rate
// quotas, and a stride weighted-fair scheduler that bounds how much one
// tenant's backlog can inflate another tenant's queue wait.
package tenant

import (
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
// tenants option's list syntax).
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
