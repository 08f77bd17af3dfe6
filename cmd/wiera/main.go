// Command wiera runs a complete Wiera deployment as a daemon: the control
// plane (WUI/GPM/TSM), a coordination service, and one Tiera server per
// configured region, all over the simulated multi-cloud WAN, fronted by a
// real TCP endpoint so external clients (cmd/wieractl) can manage
// instances and store data.
//
// Usage:
//
//	wiera [-listen 127.0.0.1:7360] [-metrics-addr 127.0.0.1:7361]
//	      [-regions us-east,us-west,eu-west,asia-east] [-factor 50]
//	      [-workers N]
//
// -workers sets the default per-region worker pool size for new instances:
// each region of an instance runs N Tiera workers that split the keyspace
// over a consistent-hash ring (a start request carrying its own workers
// param wins). Pools grow and shrink online via wieractl grow/shrink, and
// wieractl ring shows the resulting key ownership.
//
// The TCP front serves the Table 1 management API (startInstances /
// stopInstances / getInstances) and proxies the Table 2 data API (put /
// get / getVersion / getVersionList / remove / removeVersion) to the
// closest node of the named instance. With -metrics-addr set, an HTTP
// server exposes the fabric's telemetry: /metrics in Prometheus text
// format (histogram buckets carry trace-ID exemplars), /cluster/metrics
// with the fleet-merged view of this daemon plus every -peers daemon,
// /healthz with a JSON liveness summary, /events with the structured
// event journal, /traces as JSON (filter one trace with ?trace=<id>,
// ?analyze=1 for critical-path attribution), and /debug/requests with the
// flight recorder's per-request hop breakdowns (?slow=1 for the
// always-keep slow/expensive log, ?format=text for a table).
// -trace-sample N head-samples 1 in N root traces; slow requests force
// the next root to be sampled regardless. -pprof mounts net/http/pprof
// under /debug/pprof on the same HTTP server. A runtime watchdog always
// runs, exporting watch_* gauges and journaling watch.trip/watch.clear
// edges.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"repro/internal/clock"
	"repro/internal/coord"
	"repro/internal/flight"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/watch"
	"repro/internal/wiera"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7360", "TCP listen address")
	metricsAddr := flag.String("metrics-addr", "127.0.0.1:7361", "HTTP address for /metrics and /traces (empty = disabled)")
	regionsFlag := flag.String("regions", "us-east,us-west,eu-west,asia-east", "comma-separated simulated regions")
	workers := flag.Int("workers", 1, "default per-region worker pool size for new instances (overridable per start request)")
	factor := flag.Float64("factor", 50, "clock compression factor for the simulated WAN")
	traceSample := flag.Int("trace-sample", 0, "head-sample 1 in N root traces (0 = trace everything; slow requests are always sampled)")
	peersFlag := flag.String("peers", "", "comma-separated TCP addresses of peer daemons to scrape for /cluster/metrics")
	nodeName := flag.String("node", "", "this daemon's name in merged fleet views (default: the listen address)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the metrics server")
	flag.Parse()

	source := *nodeName
	if source == "" {
		source = *listen
	}

	clk := clock.NewScaled(*factor)
	net := simnet.New(clk)
	fabric := transport.NewFabric(net)
	if *traceSample > 0 {
		fabric.Tracer().SetAutoSample(*traceSample)
	}

	cs := coord.NewServer(clk)
	cs.AttachJournal(fabric.Events())
	zkEP, err := fabric.NewEndpoint("zk", simnet.USEast)
	if err != nil {
		log.Fatalf("wiera: %v", err)
	}
	zkEP.Serve(cs.Handler())

	server, err := wiera.NewServer(wiera.ServerConfig{Fabric: fabric, CoordDst: "zk", DefaultWorkers: *workers})
	if err != nil {
		log.Fatalf("wiera: %v", err)
	}
	var tieraServers []*wiera.TieraServer
	for _, r := range strings.Split(*regionsFlag, ",") {
		region := simnet.Region(strings.TrimSpace(r))
		if region == "" {
			continue
		}
		ts, err := wiera.NewTieraServer(fabric, region, server, "zk")
		if err != nil {
			log.Fatalf("wiera: tiera server %s: %v", region, err)
		}
		tieraServers = append(tieraServers, ts)
	}
	server.Start()

	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	front := &frontend{fabric: fabric, server: server, source: source, peers: peers}
	tcp, err := transport.ListenTCP(*listen, front.handle,
		transport.WithServerTelemetry(fabric.Metrics(), fabric.Tracer()))
	if err != nil {
		log.Fatalf("wiera: %v", err)
	}
	log.Printf("wiera: control plane listening on %s (regions: %s, clock factor %.0fx)",
		tcp.Addr(), *regionsFlag, *factor)

	// The watchdog samples this process's own runtime health (goroutines,
	// heap, scheduler lag, replication-queue stalls) into watch_* gauges
	// and journals trip/clear edges alongside the cluster events.
	dog := watch.NewWatchdog(watch.WatchdogConfig{
		Registry: fabric.Metrics(),
		Journal:  fabric.Events(),
		Scope:    source,
		Probes: []watch.Probe{
			watch.GaugeSumProbe(fabric.Metrics(), "wiera_queue_depth", "queue-depth", 100000),
		},
	})
	dog.Start()

	var httpSrv *http.Server
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.MetricsHandler(fabric.Metrics()))
		mux.Handle("/traces", telemetry.TracesHandler(fabric.Tracer()))
		mux.Handle("/debug/requests", flight.Handler(fabric.Flight()))
		mux.HandleFunc("/healthz", front.healthz)
		mux.HandleFunc("/cluster/metrics", front.clusterMetricsHTTP)
		mux.HandleFunc("/events", front.eventsHTTP)
		if *pprofFlag {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		httpSrv = &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("wiera: metrics server: %v", err)
			}
		}()
		log.Printf("wiera: telemetry on http://%s/metrics, /cluster/metrics, /healthz, /events, /traces, and /debug/requests", *metricsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("wiera: shutting down")
	dog.Stop()
	if httpSrv != nil {
		_ = httpSrv.Close()
	}
	tcp.Close()
	for _, ts := range tieraServers {
		ts.Close()
	}
	server.Close()
	fabric.Close()
}

// frontend bridges TCP requests onto the in-process fabric. Management
// methods go to the Wiera server; data methods are proxied to the closest
// node of the instance named in the request key prefix "<instance>/";
// telemetry dumps are answered directly from the fabric's registry and
// tracer.
type frontend struct {
	fabric *transport.Fabric
	server *wiera.Server
	source string   // this daemon's name in merged fleet views
	peers  []string // peer daemon TCP addresses scraped for cluster metrics

	mu          sync.Mutex
	clients     map[string]*wiera.Client        // per instance id
	peerClients map[string]*transport.TCPClient // per peer address
	nextID      int
}

func (f *frontend) handle(ctx context.Context, method string, payload []byte) ([]byte, error) {
	switch method {
	case wiera.MethodStartInstances, wiera.MethodStopInstances, wiera.MethodGetInstances,
		wiera.MethodCollectStats, wiera.MethodAddWorker, wiera.MethodRemoveWorker,
		wiera.MethodHeatTop:
		ep, cleanup, err := f.ephemeralEndpoint()
		if err != nil {
			return nil, err
		}
		defer cleanup()
		return ep.Call(ctx, f.server.Name(), method, payload)
	case wiera.MethodPut, wiera.MethodGet, wiera.MethodGetVersion,
		wiera.MethodVersionList, wiera.MethodRemove, wiera.MethodRemoveVer,
		wiera.MethodPlacement:
		// Data methods carry the instance id in a ProxyRequest envelope.
		var env wiera.ProxyRequest
		if err := transport.Decode(payload, &env); err != nil {
			return nil, err
		}
		cli, err := f.client(env.InstanceID)
		if err != nil {
			return nil, err
		}
		// External clients (wieractl) don't carry trace context; root a
		// sampled span here so daemon-side requests show up in /traces.
		if telemetry.SpanFromContext(ctx) == nil {
			if sp := f.fabric.Tracer().SampleRoot("front." + strings.TrimPrefix(method, "wiera.")); sp != nil {
				sp.SetAttr("instance", env.InstanceID)
				defer sp.End()
				ctx = telemetry.ContextWithSpan(ctx, sp)
			}
		}
		// Route by the request's key so sharded instances are hit at the
		// owning worker instead of bouncing off wrong-shard NACKs.
		key, err := wiera.RequestKey(method, env.Payload)
		if err != nil {
			return nil, err
		}
		return cli.CallKeyed(ctx, key, method, env.Payload)
	case wiera.MethodMetricsDump:
		return transport.Encode(wiera.MetricsDumpResponse{
			Prometheus: f.fabric.Metrics().RenderPrometheus(),
		})
	case wiera.MethodTraceDump:
		var req wiera.TraceDumpRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		tr := f.fabric.Tracer()
		var spans []telemetry.SpanRecord
		if req.TraceID != "" {
			spans = tr.TraceSpans(req.TraceID)
		} else {
			spans = tr.Spans()
		}
		return transport.Encode(wiera.TraceDumpResponse{Spans: spans})
	case wiera.MethodFlightDump:
		var req wiera.FlightDumpRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		dump := flight.Dump(f.fabric.Flight(), req.SlowOnly, req.Max)
		return transport.Encode(wiera.FlightDumpResponse{
			TotalSeen: dump.TotalSeen, SlowSeen: dump.SlowSeen, Records: dump.Records,
		})
	case wiera.MethodMetricsSnapshot:
		return transport.Encode(wiera.MetricsSnapshotResponse{
			Source:   f.source,
			Families: f.fabric.Metrics().Snapshot(),
		})
	case wiera.MethodClusterMetrics:
		sources, failed, merged := f.clusterMetrics(ctx)
		return transport.Encode(wiera.ClusterMetricsResponse{
			Sources: sources, Failed: failed, Families: merged,
		})
	case wiera.MethodEventsDump:
		var req wiera.EventsDumpRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		j := f.fabric.Events()
		return transport.Encode(wiera.EventsDumpResponse{
			Total: j.Total(), Events: j.Events(req.Max),
		})
	default:
		return nil, fmt.Errorf("wiera: unknown method %q", method)
	}
}

func (f *frontend) ephemeralEndpoint() (*transport.Endpoint, func(), error) {
	f.mu.Lock()
	f.nextID++
	name := fmt.Sprintf("tcp-front/%d", f.nextID)
	f.mu.Unlock()
	ep, err := f.fabric.NewEndpoint(name, simnet.USEast)
	if err != nil {
		return nil, nil, err
	}
	return ep, func() { f.fabric.Remove(name) }, nil
}

// clusterMetrics merges this daemon's registry with a MethodMetricsSnapshot
// scrape of every -peers daemon. Unreachable peers are reported in failed
// and left out of the merge — a partial fleet view is still a view.
func (f *frontend) clusterMetrics(ctx context.Context) (sources, failed []string, merged []telemetry.FamilySnapshot) {
	snaps := []telemetry.SourceSnapshot{{Source: f.source, Families: f.fabric.Metrics().Snapshot()}}
	sources = []string{f.source}
	req, err := transport.Encode(wiera.MetricsSnapshotRequest{})
	if err != nil {
		return sources, nil, telemetry.MergeSnapshots(snaps...)
	}
	for _, addr := range f.peers {
		raw, err := f.peerClient(addr).Call(ctx, "", wiera.MethodMetricsSnapshot, req)
		if err != nil {
			failed = append(failed, addr)
			continue
		}
		var resp wiera.MetricsSnapshotResponse
		if err := transport.Decode(raw, &resp); err != nil {
			failed = append(failed, addr)
			continue
		}
		name := resp.Source
		if name == "" {
			name = addr
		}
		snaps = append(snaps, telemetry.SourceSnapshot{Source: name, Families: resp.Families})
		sources = append(sources, name)
	}
	return sources, failed, telemetry.MergeSnapshots(snaps...)
}

// peerClient returns the cached multiplexed TCP client for a peer daemon.
func (f *frontend) peerClient(addr string) *transport.TCPClient {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.peerClients == nil {
		f.peerClients = make(map[string]*transport.TCPClient)
	}
	cli, ok := f.peerClients[addr]
	if !ok {
		cli = transport.DialTCP(addr)
		f.peerClients[addr] = cli
	}
	return cli
}

// healthz answers the liveness probe: instance shapes (workers, ring
// epoch), whether any SLO alert is firing, and the event journal size.
func (f *frontend) healthz(w http.ResponseWriter, _ *http.Request) {
	firing := false
	for _, fam := range f.fabric.Metrics().Snapshot() {
		if fam.Name != "slo_violation" {
			continue
		}
		for _, m := range fam.Metrics {
			if m.Value > 0 {
				firing = true
			}
		}
	}
	instances := f.server.Health()
	workers, tenants := 0, 0
	for _, h := range instances {
		workers += h.Nodes
		tenants += h.Tenants
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"node":      f.source,
		"instances": instances,
		"workers":   workers,
		"tenants":   tenants,
		"sloFiring": firing,
		"events":    f.fabric.Events().Total(),
	})
}

// clusterMetricsHTTP serves the merged fleet registry in Prometheus text
// format (exemplars included), mirroring MethodClusterMetrics for scrapers.
func (f *frontend) clusterMetricsHTTP(w http.ResponseWriter, r *http.Request) {
	sources, failed, merged := f.clusterMetrics(r.Context())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# cluster sources: %s\n", strings.Join(sources, ", "))
	if len(failed) > 0 {
		fmt.Fprintf(w, "# unreachable peers: %s\n", strings.Join(failed, ", "))
	}
	_, _ = w.Write([]byte(telemetry.RenderSnapshot(merged)))
}

// eventsHTTP serves the structured event journal as JSON, newest-capped by
// a validated ?n= (default 200).
func (f *frontend) eventsHTTP(w http.ResponseWriter, r *http.Request) {
	n := telemetry.ClampQueryInt(r.URL.Query().Get("n"), 200, watch.DefaultJournalCapacity)
	j := f.fabric.Events()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"total":  j.Total(),
		"events": j.Events(n),
	})
}

func (f *frontend) client(instanceID string) (*wiera.Client, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.clients == nil {
		f.clients = make(map[string]*wiera.Client)
	}
	if cli, ok := f.clients[instanceID]; ok {
		return cli, nil
	}
	f.nextID++
	name := fmt.Sprintf("tcp-client/%d", f.nextID)
	cli, err := wiera.NewClient(f.fabric, name, simnet.USEast, f.server.Name(), instanceID)
	if err != nil {
		return nil, err
	}
	f.clients[instanceID] = cli
	return cli, nil
}
