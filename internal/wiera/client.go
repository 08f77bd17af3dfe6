package wiera

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/object"
	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/transport"
	"repro/internal/wire"
)

// clientMaxAttempts bounds one logical operation's retries: transient
// transport failures and wrong-shard map refreshes share the same budget,
// so a flapping instance cannot trap a caller in a retry loop.
const clientMaxAttempts = 4

// clientRetryBase is the first backoff step; each retry doubles it and adds
// jitter so colliding clients spread out.
const clientRetryBase = 2 * time.Millisecond

// hotHintCap bounds the client's hot-replica hint cache; when full, an
// arbitrary entry is evicted to admit the new key.
const hotHintCap = 512

// Client is an application-side handle to a Wiera instance. It connects to
// the closest node (head of the instance list, Sec 4.1 step 8) and fails
// over to the next closest when a node is down (Sec 4.4). For a sharded
// instance it routes each keyed operation to the owning worker from a
// cached shard map, refreshing the map when a node answers wrong-shard.
type Client struct {
	name       string
	region     simnet.Region
	ep         *transport.Endpoint
	fabric     *transport.Fabric
	serverDst  string
	instanceID string
	// tenantID scopes every keyed op: keys are qualified with it before
	// routing and encoding, so ring placement, storage, and repair all see
	// the tenant-disjoint key family. Empty or "default" leaves keys bare
	// (the untenanted compatibility path).
	tenantID string

	mu      sync.RWMutex
	nodes   []PeerInfo // sorted by RTT from the client's region
	table   *ring.Table
	shardOf map[string]int // node name -> shard under the cached map

	rngMu sync.Mutex
	rng   *rand.Rand

	// hotHints caches per-key hot-replica sets advertised by owners in
	// GetResponse.HotReplicas; hotSeq rotates reads across a hot key's
	// equally-near copies.
	hotMu    sync.Mutex
	hotHints map[string][]string
	hotSeq   uint64
}

// NewClient registers a client endpoint and fetches the instance's node
// list (and shard map, when sharded) from the Wiera server.
func NewClient(fabric *transport.Fabric, name string, region simnet.Region, serverDst, instanceID string) (*Client, error) {
	ep, err := fabric.NewEndpoint(name, region)
	if err != nil {
		return nil, err
	}
	c := &Client{
		name: name, region: region, ep: ep, fabric: fabric,
		serverDst: serverDst, instanceID: instanceID,
		rng: rand.New(rand.NewSource(int64(len(name)) + 17)),
	}
	if err := c.Refresh(context.Background()); err != nil {
		fabric.Remove(name)
		return nil, err
	}
	return c, nil
}

// NewTenantClient is NewClient with a tenant context: every keyed op the
// returned client issues lands in tenantID's keyspace and quota.
func NewTenantClient(fabric *transport.Fabric, name string, region simnet.Region, serverDst, instanceID, tenantID string) (*Client, error) {
	c, err := NewClient(fabric, name, region, serverDst, instanceID)
	if err != nil {
		return nil, err
	}
	c.tenantID = tenantID
	return c, nil
}

// SetTenant changes the client's tenant context for subsequent keyed ops.
func (c *Client) SetTenant(id string) { c.tenantID = id }

// Tenant reports the client's tenant context ("" = default tenant).
func (c *Client) Tenant() string { return c.tenantID }

// qualify folds the client's tenant into an application key.
func (c *Client) qualify(key string) string { return tenant.Qualify(c.tenantID, key) }

// Refresh re-fetches the membership and shard map from the Wiera server.
func (c *Client) Refresh(ctx context.Context) error {
	payload, err := transport.Encode(GetInstancesRequest{InstanceID: c.instanceID})
	if err != nil {
		return err
	}
	raw, err := c.ep.Call(ctx, c.serverDst, MethodGetInstances, payload)
	if err != nil {
		return err
	}
	var resp StartInstancesResponse
	if err := transport.Decode(raw, &resp); err != nil {
		return err
	}
	c.setView(resp.Nodes, resp.Ring)
	return nil
}

// SetNodes installs the node list, sorted closest-first for this client,
// keeping whatever shard map is cached.
func (c *Client) SetNodes(nodes []PeerInfo) {
	c.mu.Lock()
	rm := (*ring.Map)(nil)
	if c.table != nil {
		rm = c.table.Map()
	}
	c.mu.Unlock()
	c.setView(nodes, rm)
}

// SetRing installs a shard map (nil reverts to unsharded routing).
func (c *Client) SetRing(rm *ring.Map) {
	c.mu.Lock()
	nodes := append([]PeerInfo(nil), c.nodes...)
	c.mu.Unlock()
	c.setView(nodes, rm)
}

func (c *Client) setView(nodes []PeerInfo, rm *ring.Map) {
	sorted := append([]PeerInfo(nil), nodes...)
	net := c.fabric.Network()
	sort.SliceStable(sorted, func(i, j int) bool {
		return net.RTT(c.region, sorted[i].Region) < net.RTT(c.region, sorted[j].Region)
	})
	var table *ring.Table
	shardOf := map[string]int(nil)
	if rm != nil {
		table = ring.NewTable(rm)
		shardOf = make(map[string]int, len(sorted))
		for _, n := range sorted {
			shardOf[n.Name] = rm.ShardOf(string(n.Region), n.Name)
		}
	}
	c.mu.Lock()
	c.nodes = sorted
	c.table = table
	c.shardOf = shardOf
	c.mu.Unlock()
}

// Nodes returns the client's node list, closest first.
func (c *Client) Nodes() []PeerInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]PeerInfo(nil), c.nodes...)
}

// RingEpoch reports the cached shard map's epoch (0 when unsharded).
func (c *Client) RingEpoch() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.table == nil {
		return 0
	}
	return c.table.Epoch()
}

// Closest returns the nearest node's name.
func (c *Client) Closest() (string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.nodes) == 0 {
		return "", errors.New("wiera: client has no nodes")
	}
	return c.nodes[0].Name, nil
}

// route lists the nodes that may serve key, closest first: the owning
// shard's workers under the cached map, or every node when unsharded.
func (c *Client) route(key string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.nodes))
	if c.table == nil || key == "" {
		for _, n := range c.nodes {
			names = append(names, n.Name)
		}
		return names
	}
	shard := c.table.Owner(key)
	for _, n := range c.nodes {
		if c.shardOf[n.Name] == shard {
			names = append(names, n.Name)
		}
	}
	if len(names) == 0 {
		// The map references workers absent from the node list (mid-refresh
		// inconsistency); fall back to trying everyone.
		for _, n := range c.nodes {
			names = append(names, n.Name)
		}
	}
	return names
}

// hotHint returns the cached hot-replica set for key (nil when absent).
func (c *Client) hotHint(key string) []string {
	c.hotMu.Lock()
	defer c.hotMu.Unlock()
	return c.hotHints[key]
}

// setHotHint caches key's advertised hot-replica set. Empty sets are
// ignored: a read served by a replica rather than the owner carries no
// hint, and forgetting the cached one would bounce the next read back to
// the owner. Stale hints self-correct — a demoted replica answers
// wrong-shard, which drops the hint.
func (c *Client) setHotHint(key string, replicas []string) {
	if key == "" || len(replicas) == 0 {
		return
	}
	c.hotMu.Lock()
	defer c.hotMu.Unlock()
	if c.hotHints == nil {
		c.hotHints = make(map[string][]string)
	}
	if _, ok := c.hotHints[key]; !ok && len(c.hotHints) >= hotHintCap {
		for k := range c.hotHints {
			delete(c.hotHints, k)
			break
		}
	}
	c.hotHints[key] = append([]string(nil), replicas...)
}

// dropHotHint forgets key's hint after an error involving its route.
func (c *Client) dropHotHint(key string) {
	if key == "" {
		return
	}
	c.hotMu.Lock()
	delete(c.hotHints, key)
	c.hotMu.Unlock()
}

// hotCandidates reorders a GET's candidate list using key's cached hint:
// the hot set (owner plus advertised replicas) is sorted nearest-first,
// reads rotate across the copies tied at the minimum RTT so a hot key's
// load spreads instead of hammering one replica, and the remaining
// candidates follow as fallback.
func (c *Client) hotCandidates(key string, names []string) []string {
	hints := c.hotHint(key)
	if len(hints) == 0 {
		return names
	}
	c.mu.RLock()
	regionOf := make(map[string]simnet.Region, len(c.nodes))
	for _, n := range c.nodes {
		regionOf[n.Name] = n.Region
	}
	c.mu.RUnlock()
	seen := make(map[string]bool, len(hints)+1)
	hot := make([]string, 0, len(hints)+1)
	if len(names) > 0 {
		hot = append(hot, names[0])
		seen[names[0]] = true
	}
	for _, h := range hints {
		if !seen[h] {
			hot = append(hot, h)
			seen[h] = true
		}
	}
	net := c.fabric.Network()
	rtt := func(name string) time.Duration {
		r, ok := regionOf[name]
		if !ok {
			// A hinted node absent from the view (mid-refresh) sorts last.
			return time.Hour
		}
		return net.RTT(c.region, r)
	}
	sort.SliceStable(hot, func(i, j int) bool { return rtt(hot[i]) < rtt(hot[j]) })
	near := 1
	for near < len(hot) && rtt(hot[near]) == rtt(hot[0]) {
		near++
	}
	c.hotMu.Lock()
	idx := int(c.hotSeq % uint64(near))
	c.hotSeq++
	c.hotMu.Unlock()
	out := make([]string, 0, len(names)+len(hot))
	out = append(out, hot[idx:near]...)
	out = append(out, hot[:idx]...)
	out = append(out, hot[near:]...)
	for _, n := range names {
		if !seen[n] {
			out = append(out, n)
		}
	}
	return out
}

// backoff computes the jittered delay before retry number attempt.
func (c *Client) backoff(attempt int) time.Duration {
	base := clientRetryBase << attempt
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(base)))
	c.rngMu.Unlock()
	return base/2 + j
}

// callAction is what callKey does after one node failed an operation.
type callAction int

const (
	actReturn   callAction = iota // application error or deterministic NACK: return it at once, spending no backoff
	actNextNode                   // this node cannot serve: try the next candidate
	actReroute                    // stale shard map: refresh and re-route
)

// classify is the client's retry policy, decided by the reply's status code
// alone. A code survives forwarded hops and %w wrapping unchanged, so what
// the error text happens to contain never matters.
func classify(err error) callAction {
	switch code, _ := wire.CodeOf(err); code {
	case wire.CodeWrongShard:
		return actReroute
	case wire.CodeQuotaExceeded, wire.CodeRebalanceInProgress:
		// Neither the remaining candidates nor the backoff budget can change
		// a deterministic answer.
		return actReturn
	case wire.CodeUnavailable:
		// The node is leaving the instance (teardown or policy change); a
		// refreshed view routes around it.
		return actNextNode
	}
	// No declared code: a handler's application error surfaces; a call that
	// never reached a handler (no endpoint, partition) moves on.
	var ue simnet.ErrUnreachable
	if errors.Is(err, transport.ErrNoEndpoint) || errors.As(err, &ue) {
		return actNextNode
	}
	return actReturn
}

// startOp opens the operation's trace span: a child when the caller's ctx
// already carries one, otherwise a sampled fresh root on the fabric's
// tracer — application Puts/Gets start traces without the caller having to
// know about telemetry, at the tracer's auto-sample rate (the first
// operation is always traced).
func (c *Client) startOp(ctx context.Context, name string) (context.Context, *telemetry.Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	if telemetry.SpanFromContext(ctx) != nil {
		return telemetry.StartSpan(ctx, name)
	}
	span := c.fabric.Tracer().SampleRoot(name)
	if span == nil {
		return ctx, nil
	}
	span.SetAttr("client", c.name)
	span.SetAttr("region", string(c.region))
	return telemetry.ContextWithSpan(ctx, span), span
}

// Call invokes a raw data-plane method on the instance, trying nodes
// closest-first. The key is unknown here, so a wrong-shard answer follows
// the NACK's owner redirect instead of re-routing locally; callers that
// know the key should prefer CallKeyed.
func (c *Client) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	return c.callKey(ctx, method, payload, "")
}

// CallKeyed invokes a raw data-plane method routed to the worker owning
// key (used by TCP proxies that already hold encoded payloads).
func (c *Client) CallKeyed(ctx context.Context, key, method string, payload []byte) ([]byte, error) {
	return c.callKey(ctx, method, payload, key)
}

// callKey routes one operation on key to its owner, retrying within a
// single bounded budget: transient transport failures back off with jitter
// and move on; wrong-shard answers refresh the cached map (or follow the
// NACK's redirect when the server is unreachable) and re-route.
func (c *Client) callKey(ctx context.Context, method string, payload []byte, key string) ([]byte, error) {
	clk := c.fabric.Network().Clock()
	var lastErr error
	for attempt := 0; attempt < clientMaxAttempts; attempt++ {
		candidates := c.route(key)
		if method == MethodGet {
			candidates = c.hotCandidates(key, candidates)
		}
		if len(candidates) == 0 {
			return nil, errors.New("wiera: client has no nodes")
		}
		wrongShard := false
		var redirect string
		for _, name := range candidates {
			raw, err := c.ep.Call(ctx, name, method, payload)
			if err == nil {
				return raw, nil
			}
			lastErr = err
			// Any failure on key's route invalidates its hot hint: a demoted
			// replica NACKs wrong-shard, a dead one times out — either way the
			// next read re-learns the set from the owner.
			c.dropHotHint(key)
			act := classify(err)
			if act == actReturn {
				return nil, err
			}
			if act == actReroute {
				wrongShard = true
				if ws := AsWrongShard(err); ws != nil {
					redirect = ws.Owner
				}
				break
			}
		}
		if wrongShard {
			// Keyless calls cannot re-route locally — without the key a
			// refreshed map still yields the same candidates — so the NACK's
			// owner is the only way forward.
			if key == "" && redirect != "" {
				raw, err := c.ep.Call(ctx, redirect, method, payload)
				if err == nil {
					return raw, nil
				}
				lastErr = err
				continue
			}
			// The cached map is stale. The authoritative fix is a server
			// refresh; when the server is unreachable the NACK itself names
			// an owner to follow. Either way the retry burns budget.
			if err := c.Refresh(ctx); err != nil && redirect != "" {
				raw, err := c.ep.Call(ctx, redirect, method, payload)
				if err == nil {
					return raw, nil
				}
				lastErr = err
			}
			continue
		}
		if attempt < clientMaxAttempts-1 {
			// Every candidate failed transiently: the membership may have
			// changed under us (a drained worker shut down) — refresh the
			// view before backing off so the retry routes around it.
			_ = c.Refresh(ctx)
			clk.Sleep(c.backoff(attempt))
		}
	}
	return nil, fmt.Errorf("wiera: retries exhausted: %w", lastErr)
}

// do runs one keyed operation: it opens the op's span, encodes req, routes
// it to key's owner with callKey's retries, decodes the reply into resp
// (nil ignores the reply) and marks the span with whatever failed. key is
// already tenant-qualified, as it is inside req.
func (c *Client) do(ctx context.Context, op, method, key string, req, resp any) error {
	ctx, span := c.startOp(ctx, op)
	defer span.End()
	payload, err := transport.Encode(req)
	if err == nil {
		var raw []byte
		if raw, err = c.callKey(ctx, method, payload, key); err == nil && resp != nil {
			err = transport.Decode(raw, resp)
		}
	}
	span.SetError(err)
	return err
}

// Put stores data under key (Table 2 put).
func (c *Client) Put(ctx context.Context, key string, data []byte) (object.Meta, error) {
	key = c.qualify(key)
	var resp PutResponse
	err := c.do(ctx, "client.put", MethodPut, key, PutRequest{Key: key, Data: data}, &resp)
	return resp.Meta, err
}

// Get retrieves key's latest version (Table 2 get).
func (c *Client) Get(ctx context.Context, key string) ([]byte, object.Meta, error) {
	key = c.qualify(key)
	var resp GetResponse
	if err := c.do(ctx, "client.get", MethodGet, key, GetRequest{Key: key}, &resp); err != nil {
		return nil, object.Meta{}, err
	}
	c.setHotHint(key, resp.HotReplicas)
	return resp.Data, resp.Meta, nil
}

// GetVersion retrieves a specific version (Table 2 getVersion).
func (c *Client) GetVersion(ctx context.Context, key string, v object.Version) ([]byte, object.Meta, error) {
	key = c.qualify(key)
	var resp GetResponse
	err := c.do(ctx, "client.getVersion", MethodGetVersion, key, GetVersionRequest{Key: key, Version: v}, &resp)
	return resp.Data, resp.Meta, err
}

// VersionList lists available versions (Table 2 getVersionList).
func (c *Client) VersionList(ctx context.Context, key string) ([]object.Version, error) {
	key = c.qualify(key)
	var resp VersionListResponse
	err := c.do(ctx, "client.versionList", MethodVersionList, key, VersionListRequest{Key: key}, &resp)
	return resp.Versions, err
}

// Remove deletes all versions of key (Table 2 remove).
func (c *Client) Remove(ctx context.Context, key string) error {
	key = c.qualify(key)
	return c.do(ctx, "client.remove", MethodRemove, key, RemoveRequest{Key: key}, nil)
}

// RemoveVersion deletes one version of key (Table 2 removeVersion).
func (c *Client) RemoveVersion(ctx context.Context, key string, v object.Version) error {
	key = c.qualify(key)
	return c.do(ctx, "client.removeVersion", MethodRemoveVer, key, RemoveVersionRequest{Key: key, Version: v}, nil)
}

// Close removes the client's endpoint.
func (c *Client) Close() { c.fabric.Remove(c.name) }
