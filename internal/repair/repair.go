// Package repair keeps Wiera replicas convergent under failures. The
// paper's eventual and primary-backup modes (Sec 3.2.3, Sec 4) propagate
// updates by best-effort fan-out, so a replica partitioned or crashed
// during a flush would diverge forever. Three mechanisms close the gap:
//
//   - The outbox keeps, per peer, the newest unacked update per key and
//     retries it on every flush: the paper's update queue and hinted
//     handoff in one structure (outbox.go).
//   - Merkle digest sync summarises each replica's per-key LWW tuple
//     (version, modification time, origin) in a fixed-geometry hash tree,
//     so two replicas locate divergent key ranges in O(log n) digest rounds
//     and exchange only the differing versions (merkle.go, session.go). It
//     covers what a crash took from an outbox.
//   - A daemon runs one sync session per period against the next peer
//     (daemon.go).
//
// The package is transport-agnostic: replicas appear through the Store and
// PeerClient interfaces and the outbox's Sender, which internal/wiera
// adapts over its RPC fabric.
package repair

import (
	"repro/internal/object"
	"repro/internal/telemetry"
)

// Entry is one key's latest-version summary — exactly the tuple the
// last-writer-wins rule (object.Newer) needs to decide which replica holds
// the newer version.
type Entry struct {
	Key     string
	Version int64
	// Mtime is the version's modification time in Unix nanoseconds.
	Mtime  int64
	Origin string
}

// newer reports whether a should win over b under the LWW rule, mirroring
// object.Newer on the summary tuple.
func newer(a, b Entry) bool {
	if a.Version != b.Version {
		return a.Version > b.Version
	}
	if a.Mtime != b.Mtime {
		return a.Mtime > b.Mtime
	}
	return a.Origin > b.Origin
}

// EntryOf summarises a version's metadata.
func EntryOf(m object.Meta) Entry {
	return Entry{Key: m.Key, Version: int64(m.Version), Mtime: m.ModifiedAt.UnixNano(), Origin: m.Origin}
}

// Update carries one full version (metadata plus payload) between replicas;
// it is the repair-layer twin of wiera's UpdateMsg.
type Update struct {
	Meta object.Meta
	Data []byte
}

// Entry returns the update's LWW summary.
func (u Update) Entry() Entry { return EntryOf(u.Meta) }

// WireSize estimates the update's encoded size.
func (u Update) WireSize() int { return int(updateWireSize(u)) }

// Store is the local replica as the repair subsystem sees it.
type Store interface {
	// Entries returns the latest-version summary of every key.
	Entries() []Entry
	// Load returns the full latest version of key (false if missing).
	Load(key string) (Update, bool)
	// Apply installs a remote version under LWW, reporting acceptance.
	Apply(u Update) bool
}

// PeerClient reaches one remote replica with the four repair RPCs.
type PeerClient interface {
	// Digests returns the peer's tree digests for the given node indices
	// under the given geometry, in request order.
	Digests(geo Geometry, nodes []int) ([]uint64, error)
	// LeafEntries returns the peer's key summaries for the given leaves.
	LeafEntries(geo Geometry, leaves []int) ([]Entry, error)
	// Pull fetches the peer's latest versions of keys (missing keys are
	// simply absent from the result).
	Pull(keys []string) ([]Update, error)
	// Push offers updates to the peer, returning how many won under LWW.
	Push(updates []Update) (int, error)
}

// Cluster is the membership view the daemon schedules over.
type Cluster interface {
	// Peers lists the current peer names (excluding the local replica).
	Peers() []string
	// Client returns a PeerClient for peer.
	Client(peer string) PeerClient
}

// Metrics are the repair subsystem's counters, registered on the shared
// telemetry registry so they surface on /metrics and `wieractl metrics`.
// All fields are nil-safe (a nil registry yields no-op children).
type Metrics struct {
	HintsPending  *telemetry.Gauge   // repair_hints_pending
	HintsReplayed *telemetry.Counter // repair_hints_replayed_total
	HintsDropped  *telemetry.Counter // repair_hints_dropped_total
	KeysRepaired  *telemetry.Counter // repair_keys_repaired_total
	DigestRounds  *telemetry.Counter // repair_digest_rounds_total
	ReadRepairs   *telemetry.Counter // repair_read_repairs_total
	Sessions      *telemetry.Counter // repair_sessions_total
	SyncBytes     *telemetry.Counter // repair_sync_bytes_total
	BytesReplayed *telemetry.Counter // repair_bytes_replayed_total
}

// NewMetrics registers the repair metric families for one node.
func NewMetrics(reg *telemetry.Registry, node, region string) *Metrics {
	counter := func(name, help string) *telemetry.Counter {
		return reg.Counter(name, help, "node", "region").With(node, region)
	}
	return &Metrics{
		HintsPending: reg.Gauge("repair_hints_pending",
			"Outbox entries whose last delivery attempt failed.", "node", "region").With(node, region),
		HintsReplayed: counter("repair_hints_replayed_total",
			"Outbox entries delivered after a failed attempt."),
		HintsDropped: counter("repair_hints_dropped_total",
			"Outbox entries discarded because their peer left the membership."),
		KeysRepaired: counter("repair_keys_repaired_total",
			"Key versions installed by anti-entropy sync or read repair."),
		DigestRounds: counter("repair_digest_rounds_total",
			"Merkle digest exchange rounds across all sync sessions."),
		ReadRepairs: counter("repair_read_repairs_total",
			"Async repairs scheduled because a get observed a stale version."),
		Sessions: counter("repair_sessions_total",
			"Anti-entropy sync sessions started."),
		SyncBytes: counter("repair_sync_bytes_total",
			"Estimated wire bytes moved by anti-entropy sessions."),
		BytesReplayed: counter("repair_bytes_replayed_total",
			"Estimated wire bytes of outbox entries delivered after a failed attempt. Sized from "+
				"each update's actual payload (the fragment bundle for erasure-coded versions, "+
				"not the full object)."),
	}
}
