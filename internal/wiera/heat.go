package wiera

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/object"
	"repro/internal/spawn"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Heat tracker constants. The decay factor halves every interval, so Rate
// estimates read as "accesses per half-life"; hotCacheCap bounds how many
// foreign hot keys one node will hold replicas for; heatTopK sizes the
// exact hottest-keys overlay of the sketch.
const (
	heatTopK               = autoscale.DefaultTopK
	heatDecayFactor        = 0.5
	heatTombstoneLifetimes = 10 // tombstone TTL in heat intervals
	hotCacheCap            = 1024
)

// hotEntry is one cached hot-key replica on a non-owning node.
type hotEntry struct {
	meta  object.Meta
	data  []byte
	owner string
}

// heatTracker implements per-key heat tracking and hot-key selective
// replication on one node. Every data-path access feeds a decaying
// count-min sketch (autoscale.Sketch); a background loop promotes keys
// whose decayed rate crosses the promote threshold — pushing extra replicas
// to peers chosen independently of the instance-wide policy — and demotes
// them with tombstoned cleanup when they cool. A nil *heatTracker is inert:
// every method is nil-safe, so untracked nodes pay only a pointer test.
type heatTracker struct {
	n        *Node
	sketch   *autoscale.Sketch
	interval time.Duration
	promote  float64
	demote   float64
	replicas int

	mu        sync.Mutex
	hot       map[string][]string  // owner side: promoted key -> replica nodes
	cache     map[string]hotEntry  // replica side: installed hot copies
	tombs     map[string]time.Time // replica side: recently dropped keys
	lastEpoch int64                // ring epoch the promotions were made under

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	promotions  *telemetry.Counter
	demotions   *telemetry.Counter
	hotGets     *telemetry.Counter
	installs    *telemetry.Counter
	installErrs *telemetry.Counter
	drops       *telemetry.Counter
	trackedG    *telemetry.Gauge
	hotG        *telemetry.Gauge
	cachedG     *telemetry.Gauge
}

// newHeatTracker wires a tracker onto n, or returns nil when heat tracking
// is disabled for this node.
func newHeatTracker(n *Node, cfg NodeConfig) *heatTracker {
	heat := cfg.Params.Heat
	if !heat.Track {
		return nil
	}
	h := &heatTracker{
		n:        n,
		sketch:   autoscale.NewSketch(autoscale.SketchConfig{TopK: heatTopK}),
		interval: heat.Interval,
		promote:  heat.PromoteRate,
		demote:   heat.DemoteRate,
		replicas: heat.Replicas,
		hot:      make(map[string][]string),
		cache:    make(map[string]hotEntry),
		tombs:    make(map[string]time.Time),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	reg := n.fabric.Metrics()
	region := string(n.region)
	counter := func(name, help string) *telemetry.Counter {
		return reg.Counter(name, help, "node", "region").With(n.name, region)
	}
	gauge := func(name, help string) *telemetry.Gauge {
		return reg.Gauge(name, help, "node", "region").With(n.name, region)
	}
	h.promotions = counter("heat_promotions_total", "Keys promoted to hot-key replication.")
	h.demotions = counter("heat_demotions_total", "Hot keys demoted back to normal replication.")
	h.hotGets = counter("heat_hot_gets_total", "Gets served from a hot-key replica cache.")
	h.installs = counter("heat_hot_installs_total", "Hot replica copies installed from owners.")
	h.installErrs = counter("heat_install_errors_total", "Hot replica pushes that failed.")
	h.drops = counter("heat_hot_drops_total", "Hot replica copies dropped on demotion.")
	h.trackedG = gauge("heat_tracked_keys", "Keys in this node's exact heat top set.")
	h.hotG = gauge("heat_hot_keys", "Keys this node currently keeps promoted.")
	h.cachedG = gauge("heat_cached_replicas", "Foreign hot keys cached on this node.")
	return h
}

// observe charges one access to key in the heat sketch (nil-safe; called
// from the put and get paths).
func (h *heatTracker) observe(key string) {
	if h == nil {
		return
	}
	h.sketch.Observe(key)
}

// start launches the promotion/demotion loop.
func (h *heatTracker) start() {
	if h == nil {
		return
	}
	go func() {
		defer close(h.done)
		for {
			select {
			case <-h.stop:
				return
			case <-h.n.clk.After(h.interval):
				h.tick()
			}
		}
	}()
}

// stopLoop halts the loop. Safe to call repeatedly and on nil.
func (h *heatTracker) stopLoop() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

// tick runs one heat round: age the sketch, retire promotions invalidated
// by a ring change, then promote newly hot keys and demote cooled ones.
func (h *heatTracker) tick() {
	h.sketch.Decay(heatDecayFactor, h.demote/4)
	now := h.n.clk.Now()

	h.mu.Lock()
	for k, t := range h.tombs {
		if now.Sub(t) > time.Duration(heatTombstoneLifetimes)*h.interval {
			delete(h.tombs, k)
		}
	}
	h.mu.Unlock()

	// A ring change moves ownership: every standing promotion may now point
	// at (or originate from) the wrong worker, so retire them all and let
	// the still-hot keys re-promote from their new owners next round.
	epoch := h.n.shards.ringEpoch()
	h.mu.Lock()
	epochChanged := epoch != h.lastEpoch
	h.lastEpoch = epoch
	var retire []string
	if epochChanged {
		for k := range h.hot {
			retire = append(retire, k)
		}
	}
	h.mu.Unlock()
	for _, k := range retire {
		h.demoteKey(k)
	}

	_, _, _, settled := h.n.shards.view()
	if settled && !epochChanged {
		for _, e := range h.sketch.Top(heatTopK) {
			h.mu.Lock()
			_, promoted := h.hot[e.Key]
			h.mu.Unlock()
			switch {
			case !promoted && e.Rate >= h.promote && h.n.shards.ownsKey(e.Key):
				h.promoteKey(e.Key)
			case promoted && e.Rate < h.demote:
				h.demoteKey(e.Key)
			}
		}
		// Promoted keys that decayed out of the top set entirely are cold by
		// definition: demote them too.
		h.mu.Lock()
		var cooled []string
		for k := range h.hot {
			if h.sketch.Estimate(k) < h.demote {
				cooled = append(cooled, k)
			}
		}
		h.mu.Unlock()
		for _, k := range cooled {
			h.demoteKey(k)
		}
	}

	h.trackedG.Set(float64(h.sketch.Tracked()))
	h.mu.Lock()
	h.hotG.Set(float64(len(h.hot)))
	h.cachedG.Set(float64(len(h.cache)))
	h.mu.Unlock()
}

// replicaTargets picks where key's extra replicas go. Sharded instances
// spread over the next shards' in-region workers (each key normally lives
// on exactly one worker, which is where hot-key replication pays); an
// unsharded instance uses its RTT-nearest peers.
func (h *heatTracker) replicaTargets(key string) []string {
	cur, _, own, _ := h.n.shards.view()
	if cur != nil && cur.Shards() > 1 {
		shard := cur.Owner(key)
		if shard < 0 {
			shard = own
		}
		var out []string
		for i := 1; i <= h.replicas && i < cur.Shards(); i++ {
			w := cur.WorkerForShard(string(h.n.region), (shard+i)%cur.Shards())
			if w != "" && w != h.n.name {
				out = append(out, w)
			}
		}
		return out
	}
	peers := h.n.Peers()
	net := h.n.fabric.Network()
	sort.Slice(peers, func(i, j int) bool {
		return net.RTT(h.n.region, peers[i].Region) < net.RTT(h.n.region, peers[j].Region)
	})
	var out []string
	for _, p := range peers {
		if len(out) >= h.replicas {
			break
		}
		out = append(out, p.Name)
	}
	return out
}

// promoteKey pushes key's latest version to the chosen replica targets and
// records the promotion. Best effort: a target that cannot be reached is
// simply left out of the advertised replica set.
func (h *heatTracker) promoteKey(key string) {
	meta, err := h.n.local.Objects().Latest(key)
	if err != nil || meta.IsEC() {
		// Nothing stored locally yet, or the payload is a fragment bundle
		// (the EC chooser already keeps genuinely hot objects replicated).
		return
	}
	data, _, err := h.n.local.GetVersion(context.Background(), key, meta.Version)
	if err != nil {
		return
	}
	targets := h.replicaTargets(key)
	if len(targets) == 0 {
		return
	}
	installed := h.installTo(targets, meta, data)
	if len(installed) == 0 {
		return
	}
	h.mu.Lock()
	h.hot[key] = installed
	h.mu.Unlock()
	h.promotions.Inc()
	h.n.fabric.Events().Record("heat.promote", h.n.name,
		fmt.Sprintf("promoted hot key %q to %d extra replicas", key, len(installed)),
		map[string]string{"key": key, "replicas": strings.Join(installed, ",")})
}

// installTo pushes one version to each target, returning those that took it.
func (h *heatTracker) installTo(targets []string, meta object.Meta, data []byte) []string {
	payload, err := transport.Encode(HotInstallMsg{Meta: meta, Data: data, Owner: h.n.name})
	if err != nil {
		return nil
	}
	var ok []string
	for _, t := range targets {
		if err := h.n.callPeerRaw(context.Background(), t, MethodHotInstall, payload, nil); err != nil {
			h.installErrs.Inc()
			continue
		}
		ok = append(ok, t)
	}
	return ok
}

// demoteKey retires a promotion: drop RPCs to every replica (tombstoned on
// the receiver) and forget the key locally.
func (h *heatTracker) demoteKey(key string) {
	h.mu.Lock()
	targets, ok := h.hot[key]
	delete(h.hot, key)
	h.mu.Unlock()
	if !ok {
		return
	}
	payload, err := transport.Encode(HotDropMsg{Key: key})
	if err == nil {
		for _, t := range targets {
			_ = h.n.callPeerRaw(context.Background(), t, MethodHotDrop, payload, nil)
		}
	}
	h.demotions.Inc()
	h.n.fabric.Events().Record("heat.demote", h.n.name,
		fmt.Sprintf("demoted cooled key %q (%d replicas dropped)", key, len(targets)),
		map[string]string{"key": key})
}

// afterPut refreshes a promoted key's replicas with the new version, in the
// background (hot replicas are eventually consistent, like every other
// asynchronous propagation path in the system).
func (h *heatTracker) afterPut(key string, meta object.Meta, data []byte) {
	if h == nil {
		return
	}
	h.mu.Lock()
	targets, ok := h.hot[key]
	h.mu.Unlock()
	if !ok {
		return
	}
	// Copies: capturing the parameter meta would move it to the heap on
	// every put, hot key or not.
	m, d := meta, append([]byte(nil), data...)
	spawn.Go(func() { h.installTo(targets, m, d) })
}

// replicasFor reports the advertised replica set for a promoted key (nil
// when the key is not hot, or on an untracked node).
func (h *heatTracker) replicasFor(key string) []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.hot[key]...)
}

// handleInstall stores an owner-pushed hot replica in the side cache. A
// tombstone from a recent drop wins over a racing (stale) install.
func (h *heatTracker) handleInstall(msg HotInstallMsg) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dropped := h.tombs[msg.Meta.Key]; dropped {
		return
	}
	if old, ok := h.cache[msg.Meta.Key]; ok && old.meta.Version > msg.Meta.Version {
		return // never replace a newer cached version with an older push
	}
	if _, ok := h.cache[msg.Meta.Key]; !ok && len(h.cache) >= hotCacheCap {
		return // cache full: refuse new keys rather than thrash
	}
	h.cache[msg.Meta.Key] = hotEntry{meta: msg.Meta, data: msg.Data, owner: msg.Owner}
	h.installs.Inc()
}

// handleDrop retires a cached replica and tombstones the key so a push that
// raced the drop cannot resurrect it.
func (h *heatTracker) handleDrop(key string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.cache[key]; ok {
		delete(h.cache, key)
		h.drops.Inc()
	}
	h.tombs[key] = h.n.clk.Now()
}

// serveHot answers a get from the hot replica cache, if key is cached.
func (h *heatTracker) serveHot(key string) ([]byte, object.Meta, bool) {
	if h == nil {
		return nil, object.Meta{}, false
	}
	h.mu.Lock()
	e, ok := h.cache[key]
	h.mu.Unlock()
	if !ok {
		return nil, object.Meta{}, false
	}
	h.hotGets.Inc()
	return e.data, e.meta, true
}

// heatStats is the tracker's contribution to NodeStats.
type heatStats struct {
	tracked    int
	hot        int
	cached     int
	promotions int64
	demotions  int64
	hotGets    int64
	top        []HeatKey
}

// statsSnapshot summarizes the tracker (zero value when h is nil).
func (h *heatTracker) statsSnapshot() heatStats {
	if h == nil {
		return heatStats{}
	}
	var s heatStats
	s.tracked = h.sketch.Tracked()
	h.mu.Lock()
	s.hot = len(h.hot)
	s.cached = len(h.cache)
	h.mu.Unlock()
	s.promotions = h.promotions.Value()
	s.demotions = h.demotions.Value()
	s.hotGets = h.hotGets.Value()
	for _, e := range h.sketch.Top(heatTopK) {
		s.top = append(s.top, HeatKey{Key: e.Key, Rate: e.Rate})
	}
	return s
}
