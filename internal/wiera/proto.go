// Package wiera implements the Wiera system (paper Sec 3-4): a control
// plane (Server: WUI, Global Policy Manager, Tiera Server Manager, Tiera
// Instance Managers) that launches and manages Tiera instances across
// regions, and a data plane (Node) in which each instance executes the
// global policy — consistency fan-out, forwarding, queued propagation,
// global locking, and run-time policy changes driven by latency and
// request monitors. Wiera itself never touches data; all object bytes flow
// directly between nodes (paper Sec 4).
package wiera

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/object"
	"repro/internal/repair"
	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/watch"
	"repro/internal/wire"
)

// RPC method names. The application-facing ones implement the paper's
// Table 1 and Table 2 APIs; the node-to-node and control ones implement
// Sec 4.1's protocol.
const (
	// Application API (Table 2) served by every node.
	MethodPut         = "wiera.put"
	MethodGet         = "wiera.get"
	MethodGetVersion  = "wiera.getVersion"
	MethodVersionList = "wiera.getVersionList"
	MethodRemove      = "wiera.remove"
	MethodRemoveVer   = "wiera.removeVersion"

	// Node-to-node data plane.
	MethodApplyUpdate      = "wiera.applyUpdate"
	MethodApplyUpdateBatch = "wiera.applyUpdateBatch"
	MethodForwardPut       = "wiera.forwardPut"
	MethodForwardGet       = "wiera.forwardGet"
	MethodSnapshot         = "wiera.snapshot"

	// Erasure-coding data plane: raw fragment-bundle fetch (the gather
	// half of an EC read or fragment repair) and object-layout queries.
	// MethodPlacement is application-facing (wieractl placement); a node
	// answers it by combining its own layout row with every peer's
	// MethodPlacementLocal answer.
	MethodECFrag         = "wiera.ecFragment"
	MethodPlacement      = "wiera.placement"
	MethodPlacementLocal = "wiera.placementLocal"

	// Node-to-node anti-entropy (internal/repair): Merkle digest exchange,
	// divergent-leaf summaries, and targeted version transfer.
	MethodRepairDigest  = "wiera.repairDigest"
	MethodRepairEntries = "wiera.repairEntries"
	MethodRepairPull    = "wiera.repairPull"
	MethodRepairPush    = "wiera.repairPush"

	// Control plane: server -> node.
	MethodSetPeers      = "wiera.setPeers"
	MethodSetPrimary    = "wiera.setPrimary"
	MethodSetRing       = "wiera.setRing"
	MethodRingDrain     = "wiera.ringDrain"
	MethodPrepareChange = "wiera.prepareChange"
	MethodCommitChange  = "wiera.commitChange"
	MethodPing          = "wiera.ping"
	MethodShutdown      = "wiera.shutdown"

	// Control plane: node -> server.
	MethodRequestChange = "wiera.requestPolicyChange"

	// Control plane: server -> tiera server.
	MethodSpawn   = "wiera.spawnInstance"
	MethodDespawn = "wiera.despawnInstance"

	// Application API (Table 1) served by the Wiera server.
	MethodStartInstances = "wiera.startInstances"
	MethodStopInstances  = "wiera.stopInstances"
	MethodGetInstances   = "wiera.getInstances"

	// Elasticity API: grow/shrink an instance's per-region worker pools by
	// one shard, rebalancing the keyspace online.
	MethodAddWorker    = "wiera.addWorker"
	MethodRemoveWorker = "wiera.removeWorker"

	// Hot-key selective replication: a key's owner pushes extra replicas of
	// a hot key to chosen peers (install) and retires them when the key
	// cools (drop). MethodHeatTop is the management query aggregating the
	// per-worker heat sketches into an instance-wide hottest-keys list.
	MethodHotInstall = "wiera.hotInstall"
	MethodHotDrop    = "wiera.hotDrop"
	MethodHeatTop    = "wiera.heatTop"

	// Telemetry API served by the cmd/wiera TCP front. Handled in the
	// daemon process directly: the metrics registry and tracer live on the
	// fabric, not on any single node.
	MethodMetricsDump = "wiera.metricsDump"
	MethodTraceDump   = "wiera.traceDump"
	MethodFlightDump  = "wiera.flightDump"

	// Observability plane, also served by the daemon front directly.
	// MethodMetricsSnapshot returns one daemon's registry in structured
	// (mergeable) form; MethodClusterMetrics has the daemon scrape itself
	// plus its -peers and answer with the merged fleet view;
	// MethodEventsDump returns the structured event journal.
	MethodMetricsSnapshot = "wiera.metricsSnapshot"
	MethodClusterMetrics  = "wiera.clusterMetrics"
	MethodEventsDump      = "wiera.eventsDump"
)

// PutRequest stores an object (Table 2 put / update). From names the
// forwarding instance on forwarded puts ("" for direct application puts);
// the requests monitor uses it for per-source attribution.
type PutRequest struct {
	Key  string
	Data []byte
	Tags []string
	From string
}

// PutResponse returns the created version's metadata.
type PutResponse struct {
	Meta object.Meta
}

// GetRequest retrieves an object's latest version (Table 2 get).
type GetRequest struct {
	Key string
}

// GetVersionRequest retrieves a specific version (Table 2 getVersion).
type GetVersionRequest struct {
	Key     string
	Version object.Version
}

// GetResponse carries payload and metadata. HotReplicas, set only by a
// key's owner when the key is promoted as hot, lists the extra replica
// nodes currently holding it; clients may spread subsequent GETs across
// owner + replicas. Empty means the key is not (or no longer) hot.
type GetResponse struct {
	Data        []byte
	Meta        object.Meta
	HotReplicas []string
}

// VersionListRequest lists versions (Table 2 getVersionList).
type VersionListRequest struct {
	Key string
}

// VersionListResponse carries the version numbers.
type VersionListResponse struct {
	Versions []object.Version
}

// RemoveRequest removes all versions (Table 2 remove).
type RemoveRequest struct {
	Key string
}

// RemoveVersionRequest removes one version (Table 2 removeVersion).
type RemoveVersionRequest struct {
	Key     string
	Version object.Version
}

// UpdateMsg propagates one version between replicas, with the metadata
// (version number, last modified time) the receiver needs for last-writer-
// wins conflict resolution (paper Sec 4.2). Forwarded marks an update a
// non-owning worker redirected to the key's owner during a rebalance; the
// receiver applies it locally even if its own map disagrees, so two
// workers with momentarily different epochs cannot bounce it forever.
type UpdateMsg struct {
	Meta      object.Meta
	Data      []byte
	Forwarded bool
}

// UpdateAck reports whether the update won at the receiver.
type UpdateAck struct {
	Accepted bool
}

// UpdateBatchRequest carries many queued updates in one frame — the
// group-commit unit of the replication fan-out. Entries preserve the
// sender's FIFO order; the receiver applies each under LWW exactly as it
// would a lone MethodApplyUpdate.
type UpdateBatchRequest struct {
	Updates []UpdateMsg
}

// BatchAck is the per-entry outcome of a batched update. Err carries an
// apply failure (the entry must be retried or hinted); Accepted false with
// an empty Err means the entry simply lost LWW at the receiver, which is a
// success for replication purposes.
type BatchAck struct {
	Accepted bool
	Err      string
}

// UpdateBatchResponse acks a batch entry-by-entry, in request order, so a
// partial failure costs the sender only the failed entries.
type UpdateBatchResponse struct {
	Acks []BatchAck
}

// ECFragRequest asks a peer for its stored fragment bundle of a key's
// latest version. Version > 0 restricts the answer to that version (a
// gatherer never mixes fragments across versions).
type ECFragRequest struct {
	Key     string
	Version object.Version // 0 = latest
}

// ECFragResponse carries the peer's raw bundle bytes verbatim (no
// reconstruction): Meta.ECFrags says which fragment indexes Data
// concatenates. For a replicated version the peer answers with the full
// payload and ECK == 0.
type ECFragResponse struct {
	Meta object.Meta
	Data []byte
}

// PlacementRequest asks where a key's latest version physically lives.
type PlacementRequest struct {
	Key string
}

// PlacementLocalResponse is one node's own layout row: the latest local
// meta for the key (Has false when the node holds nothing). The querying
// node derives the rendered PlacementEntry from it.
type PlacementLocalResponse struct {
	Has  bool
	Meta object.Meta
}

// PlacementEntry is one replica's row of a placement answer.
type PlacementEntry struct {
	Node    string
	Region  simnet.Region
	Has     bool
	Version object.Version
	Frags   []int // fragment indexes held (empty for a full replica)
	Bytes   int64 // physical payload bytes stored on this node
}

// PlacementResponse describes an object's layout: the scheme it was
// written under and every member's share of it.
type PlacementResponse struct {
	Key     string
	Version object.Version
	Size    int64
	ECK     int // 0 = fully replicated
	ECM     int
	Entries []PlacementEntry
}

// SnapshotRequest asks a peer for its full live state (new-replica sync).
type SnapshotRequest struct{}

// SnapshotResponse carries every key's latest version.
type SnapshotResponse struct {
	Updates []UpdateMsg
}

// RepairDigestRequest asks a replica for its Merkle tree digests at the
// given heap-indexed nodes. Fanout and Depth pin the tree geometry so both
// sides bucket keys identically.
type RepairDigestRequest struct {
	Fanout int
	Depth  int
	Nodes  []int
}

// RepairDigestResponse carries the digests in request order.
type RepairDigestResponse struct {
	Digests []uint64
}

// RepairEntriesRequest asks for the key summaries of divergent leaf
// buckets.
type RepairEntriesRequest struct {
	Fanout int
	Depth  int
	Leaves []int
}

// RepairEntriesResponse carries the concatenated leaf summaries.
type RepairEntriesResponse struct {
	Entries []repair.Entry
}

// RepairPullRequest fetches the latest versions of specific keys.
type RepairPullRequest struct {
	Keys []string
}

// RepairPullResponse carries the requested versions (missing keys are
// absent).
type RepairPullResponse struct {
	Updates []UpdateMsg
}

// RepairPushRequest offers versions to a replica under LWW.
type RepairPushRequest struct {
	Updates []UpdateMsg
}

// RepairPushResponse reports how many pushed versions won locally.
type RepairPushResponse struct {
	Accepted int
}

// PeersMsg distributes the instance membership list (Sec 4.1 step 6).
type PeersMsg struct {
	Peers   []PeerInfo
	Primary string
}

// PeerInfo names one member instance and its region.
type PeerInfo struct {
	Name   string
	Region simnet.Region
}

// SetPrimaryMsg changes the primary instance.
type SetPrimaryMsg struct {
	Primary string
}

// RingMsg installs a shard map on a worker. During a rebalance the control
// plane first installs the new map unsettled (Settled false) with Prev
// carrying the outgoing map, so workers can pull not-yet-migrated keys from
// their previous owners; once every moved key has been streamed, a second
// settled RingMsg drops the fallback path.
type RingMsg struct {
	Map     *ring.Map
	Prev    *ring.Map // previous map during an unsettled rebalance (nil once settled)
	Settled bool
}

// RingDrainRequest asks a worker to stream every key it no longer owns
// under its current map to the new in-region owners, deleting local copies
// as they are acknowledged. Idempotent; returns when the drain completes.
type RingDrainRequest struct{}

// RingDrainResponse reports how many keys the drain moved.
type RingDrainResponse struct {
	Moved int
}

// HotInstallMsg pushes an extra replica of a hot key onto a peer that does
// not own it. Owner names the pushing worker so the receiver can advertise
// where authoritative writes go. The receiver keeps the copy in a bounded
// side cache (never its authoritative store), so hot replicas can never be
// confused with owned keys during a rebalance drain.
type HotInstallMsg struct {
	Meta  object.Meta
	Data  []byte
	Owner string
}

// HotDropMsg retires a hot replica when the key cools (or ownership moves).
// The receiver tombstones the key briefly so an install that raced the drop
// cannot resurrect a stale copy.
type HotDropMsg struct {
	Key string
}

// HeatTopRequest asks the server for an instance's hottest keys, merged
// across every worker's sketch. K caps the answer (<= 0 uses a default).
type HeatTopRequest struct {
	InstanceID string
	K          int
}

// HeatKey is one entry of a heat report: a key and its decayed access-rate
// estimate (accesses per sketch half-life, summed across workers).
type HeatKey struct {
	Key  string
	Rate float64
}

// HeatTopResponse carries the merged hottest keys, hottest first.
type HeatTopResponse struct {
	Entries []HeatKey
}

// ErrRebalanceInProgress is the NACK for AddWorker/RemoveWorker when the
// instance already has an unsettled ring change in flight: membership
// changes are strictly serialized, so the autoscaler and a manual wieractl
// grow/shrink can never interleave two rebalances. Callers should retry
// after the current rebalance settles.
type ErrRebalanceInProgress struct {
	InstanceID string
}

func (e *ErrRebalanceInProgress) Error() string {
	return "wiera: rebalance in progress: " + e.InstanceID
}

// WireStatus implements wire.Coded.
func (e *ErrRebalanceInProgress) WireStatus() (wire.Code, []byte) {
	return wire.CodeRebalanceInProgress, wire.AppendString(nil, e.InstanceID)
}

// AsRebalanceInProgress recovers an ErrRebalanceInProgress from err's
// status code and detail (raised locally or carried by a reply). It returns
// nil when err is something else.
func AsRebalanceInProgress(err error) *ErrRebalanceInProgress {
	code, detail := wire.CodeOf(err)
	if code != wire.CodeRebalanceInProgress {
		return nil
	}
	r := wire.NewReader(detail)
	e := &ErrRebalanceInProgress{InstanceID: r.String()}
	if r.Close() != nil {
		return nil
	}
	return e
}

// WrongShardError is a worker's NACK for an operation on a key it does not
// own: the client's shard map is stale (or the op raced a rebalance). It
// names the epoch the worker holds and the in-region owner so the client
// can refresh its map, or retry directly against Owner.
type WrongShardError struct {
	Epoch int64  // ring epoch at the NACKing worker
	Shard int    // shard that owns the key under that epoch
	Owner string // in-region worker serving the shard
}

func (e *WrongShardError) Error() string {
	return fmt.Sprintf("wiera: wrong shard: epoch=%d shard=%d owner=%s", e.Epoch, e.Shard, e.Owner)
}

// WireStatus implements wire.Coded.
func (e *WrongShardError) WireStatus() (wire.Code, []byte) {
	d := wire.AppendVarint(nil, e.Epoch)
	d = wire.AppendVarint(d, int64(e.Shard))
	return wire.CodeWrongShard, wire.AppendString(d, e.Owner)
}

// AsWrongShard recovers a WrongShardError from err's status code and
// detail. It returns nil when err is not a wrong-shard NACK.
func AsWrongShard(err error) *WrongShardError {
	code, detail := wire.CodeOf(err)
	if code != wire.CodeWrongShard {
		return nil
	}
	r := wire.NewReader(detail)
	e := &WrongShardError{Epoch: r.Varint(), Shard: int(r.Varint()), Owner: r.String()}
	if r.Close() != nil {
		return nil
	}
	return e
}

// PrepareChangeMsg blocks new operations and drains queues ahead of a
// consistency change (Sec 3.3.2: in-progress and queued operations are
// applied first; new requests block until the change takes effect).
type PrepareChangeMsg struct {
	Epoch int64
}

// CommitChangeMsg installs a new global policy body.
type CommitChangeMsg struct {
	Epoch      int64
	PolicyName string // a builtin or previously registered policy name
	PolicySrc  string // full source; used when PolicyName is empty
	Primary    string // optional new primary ("" = keep)
}

// ChangeRequestMsg is a node asking the server for a policy change (the
// change_policy response).
type ChangeRequestMsg struct {
	InstanceID string // wiera instance id
	What       string // "consistency" or "primary_instance"
	To         string // target policy name or instance name
	From       string // requesting node
	Via        string // triggering monitor: "latency", "primary", "slo", "policy", "" (manual)
}

// PingMsg checks liveness.
type PingMsg struct{}

// PongMsg answers a ping.
type PongMsg struct {
	Name string
}

// Empty is a no-payload response.
type Empty struct{}

// StartInstancesRequest launches a Wiera instance (Table 1).
type StartInstancesRequest struct {
	InstanceID string
	PolicySrc  string // global (Wiera) policy source
	// Params holds the instance's options and the bindings of the parameters
	// its specs declare, as written ("500ms", "64K", "true"): see ParseParams.
	Params map[string]string
	// LocalSpecs supplies custom local Tiera policy sources by name; region
	// declarations resolve their instance name here first, then among the
	// built-in policies.
	LocalSpecs map[string]string
}

// StartInstancesResponse returns the launched node list (closest first for
// the caller's region when the server can tell; declaration order
// otherwise). Ring carries the instance's shard map when it runs with more
// than one worker per region (nil for unsharded instances), so clients can
// route keys without a second round trip.
type StartInstancesResponse struct {
	Nodes []PeerInfo
	Ring  *ring.Map
}

// StopInstancesRequest stops a Wiera instance (Table 1).
type StopInstancesRequest struct {
	InstanceID string
}

// GetInstancesRequest lists a Wiera instance's nodes (Table 1).
type GetInstancesRequest struct {
	InstanceID string
}

// SpawnRequest asks a Tiera server to create an instance node (Sec 4.1
// step 3).
type SpawnRequest struct {
	InstanceID string
	NodeName   string
	LocalSrc   string            // local Tiera policy source
	GlobalSrc  string            // global policy source
	Params     map[string]string // as StartInstancesRequest.Params, validated again against this node's specs
	Primary    string
}

// SpawnResponse confirms the node is serving.
type SpawnResponse struct {
	Node PeerInfo
}

// DespawnRequest removes an instance node.
type DespawnRequest struct {
	NodeName string
}

// ProxyRequest wraps a data-plane request with its target instance for the
// cmd/wiera TCP front, which routes it to the instance's closest node.
type ProxyRequest struct {
	InstanceID string
	Payload    []byte
}

// MetricsDumpRequest asks the daemon for its full metrics registry.
type MetricsDumpRequest struct{}

// MetricsDumpResponse carries the registry rendered in Prometheus text
// format (the same bytes the daemon's HTTP /metrics endpoint serves).
type MetricsDumpResponse struct {
	Prometheus string
}

// TraceDumpRequest asks the daemon for recorded trace spans. TraceID
// filters to one trace; empty returns every span in the ring.
type TraceDumpRequest struct {
	TraceID string
}

// TraceDumpResponse carries the matching span records.
type TraceDumpResponse struct {
	Spans []telemetry.SpanRecord
}

// FlightDumpRequest asks the daemon for recorded request flight records.
// SlowOnly selects the always-keep slow/expensive log; Max caps the count
// (<= 0 returns everything retained).
type FlightDumpRequest struct {
	SlowOnly bool
	Max      int
}

// FlightDumpResponse carries the matching flight records, newest first.
type FlightDumpResponse struct {
	TotalSeen int64
	SlowSeen  int64
	Records   []flight.Record
}

// MetricsSnapshotRequest asks one daemon for its registry in structured
// form — the mergeable counterpart of MethodMetricsDump's rendered text.
type MetricsSnapshotRequest struct{}

// MetricsSnapshotResponse carries one daemon's metric families. Source is
// the daemon's node name; the merger prefixes gauges with it.
type MetricsSnapshotResponse struct {
	Source   string
	Families []telemetry.FamilySnapshot
}

// ClusterMetricsRequest asks a daemon for the merged fleet view: its own
// registry plus a MethodMetricsSnapshot scrape of every configured peer.
type ClusterMetricsRequest struct{}

// ClusterMetricsResponse is the fleet merge. Sources lists every daemon
// that contributed; Failed lists peers that could not be scraped (the
// merge proceeds without them — partial fleet views are still views).
type ClusterMetricsResponse struct {
	Sources  []string
	Failed   []string
	Families []telemetry.FamilySnapshot
}

// EventsDumpRequest asks a daemon for its structured event journal.
// Max caps the answer to the newest Max events (<= 0 returns the whole
// retained ring).
type EventsDumpRequest struct {
	Max int
}

// EventsDumpResponse carries the retained events oldest-first. Total is
// the number ever recorded (>= len(Events) once the ring has evicted).
type EventsDumpResponse struct {
	Total  int
	Events []watch.Event
}
