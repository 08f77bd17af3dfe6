// Command wieractl is the client CLI for a running cmd/wiera daemon: it
// manages Wiera instances (Table 1) and stores/retrieves objects (Table 2)
// over TCP.
//
// Usage:
//
//	wieractl [-addr 127.0.0.1:7360] start  -id myapp -policy policy.wiera [-param t=2s] [-dynamic dyn.wiera] [-workers N]
//	wieractl [-addr 127.0.0.1:7360] stop   -id myapp
//	wieractl [-addr 127.0.0.1:7360] list   -id myapp
//	wieractl [-addr 127.0.0.1:7360] stats  -id myapp
//	wieractl [-addr 127.0.0.1:7360] put    -id myapp -key k [-value v | -file f] [-tenant t]
//	wieractl [-addr 127.0.0.1:7360] get    -id myapp -key k [-version N] [-tenant t]
//	wieractl [-addr 127.0.0.1:7360] versions -id myapp -key k [-tenant t]
//	wieractl [-addr 127.0.0.1:7360] placement -id myapp -key k [-tenant t]
//	wieractl [-addr 127.0.0.1:7360] remove -id myapp -key k [-version N] [-tenant t]
//	wieractl [-addr 127.0.0.1:7360] tenants -id myapp
//	wieractl [-addr 127.0.0.1:7360] policies
//	wieractl [-addr 127.0.0.1:7360] metrics
//	wieractl [-addr 127.0.0.1:7360] cluster [-raw]
//	wieractl [-addr 127.0.0.1:7360] events [-n 50] [-raw]
//	wieractl [-addr 127.0.0.1:7360] repair
//	wieractl [-addr 127.0.0.1:7360] trace [-trace <id>] [-analyze] [-raw]
//	wieractl [-addr 127.0.0.1:7360] slow  [-n 20] [-all] [-summary] [-raw]
//	wieractl [-addr 127.0.0.1:7360] top   -id myapp [-watch] [-interval 2s]
//	wieractl [-addr 127.0.0.1:7360] ring  -id myapp
//	wieractl [-addr 127.0.0.1:7360] grow  -id myapp
//	wieractl [-addr 127.0.0.1:7360] shrink -id myapp
//	wieractl [-addr 127.0.0.1:7360] heat  -id myapp [-n 20]
//
// ring shows the instance's consistent-hash ring: map epoch and, per
// worker, the shard index, virtual nodes, key/byte ownership, cumulative
// migration counters, and any in-flight migrations. grow adds one worker
// per region (rebalancing the keyspace online); shrink removes one.
//
// tenants aggregates the instance's per-tenant accounting across its
// worker nodes: configured weight and quotas, admitted ops, payload bytes
// in/out, quota denials, and the weighted-fair queue wait / op latency
// p99s. -tenant on the data commands scopes the key into that tenant's
// namespace (the same qualification a tenant-scoped client applies).
//
// heat prints the instance's hottest keys (decayed access-rate estimates
// merged across every worker's sketch, hottest first) — the same ranking
// the heat tracker promotes into selective hot-key replication.
//
// placement shows where a key's latest version physically lives: the
// scheme it was stored under (full replicas vs an erasure-coded k+m
// stripe), and per node the fragment indexes held and physical bytes —
// the storage-cost view of the per-object replication/EC chooser.
//
// slow prints the flight recorder's always-keep slow/expensive request log
// (hop-by-hop tier/RPC/lock/repair breakdown with attributed cost) plus
// the current per-op p99 exemplar traces; -all switches to the
// recent-request ring. top is a one-shot (or -watch refreshed) health view
// combining per-node operation stats, anti-entropy repair counters, SLO
// error-budget burn gauges, the most recent journal events, and — when the
// instance runs the elastic controller or heat tracker — the autoscale_*
// decision gauges and heat_* promotion counters.
//
// cluster asks the daemon for the fleet-merged metric view (itself plus
// every daemon it was started with -peers for) and prints true fleet-wide
// per-op latency percentiles with their p99 exemplar trace IDs — each
// resolvable via trace -trace <id> -analyze, which attributes the trace's
// wall time across its critical path by hop kind (queue/lock/tier/rpc/
// repair/batch). events prints the daemon's structured event journal
// (ring epoch changes, autoscale decisions, SLO fire/clear edges, hot-key
// promotions, repair cycles, watchdog trips) oldest-first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/flight"
	"repro/internal/object"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/transport"
	"repro/internal/watch"
	"repro/internal/wiera"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "wieractl: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("wieractl", flag.ExitOnError)
	addr := global.String("addr", "127.0.0.1:7360", "wiera daemon address")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: wieractl [-addr host:port] <start|stop|list|stats|put|get|versions|placement|remove|policies|metrics|cluster|events|repair|trace|slow|top|ring|grow|shrink|heat|tenants> ...")
	}
	cmdName, cmdArgs := rest[0], rest[1:]
	if cmdName == "policies" {
		names := policy.BuiltinNames()
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	}

	cli := transport.DialTCP(*addr)
	defer cli.Close()

	fs := flag.NewFlagSet(cmdName, flag.ExitOnError)
	id := fs.String("id", "", "wiera instance id")
	key := fs.String("key", "", "object key")
	value := fs.String("value", "", "object value (string)")
	file := fs.String("file", "", "read object value from file")
	version := fs.Int64("version", 0, "object version (0 = latest)")
	policyPath := fs.String("policy", "", "global policy source file, or a builtin policy name")
	dynamicPath := fs.String("dynamic", "", "dynamic (control) policy source file or builtin name")
	traceID := fs.String("trace", "", "trace id to dump (trace command; empty = all spans)")
	analyze := fs.Bool("analyze", false, "critical-path analysis of one trace (trace command; requires -trace)")
	rawSpans := fs.Bool("raw", false, "print output as JSON instead of a table/tree (trace, slow commands)")
	maxN := fs.Int("n", 20, "max records to show (slow, heat commands)")
	allRecs := fs.Bool("all", false, "show the recent-request ring instead of the slowlog (slow command)")
	summary := fs.Bool("summary", false, "append a per-hop-kind aggregate (slow command)")
	watch := fs.Bool("watch", false, "refresh continuously (top command)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval for -watch (top command)")
	workers := fs.Int("workers", 0, "per-region worker pool size (start command; 0 = daemon default)")
	tenantID := fs.String("tenant", "", "tenant namespace for data commands (empty = default tenant)")
	var params paramFlags
	fs.Var(&params, "param", "instance option or policy parameter binding name=value (repeatable; start -h lists the options)")
	if cmdName == "start" {
		fs.Usage = func() {
			fmt.Fprintln(fs.Output(), "Usage of start:")
			fs.PrintDefaults()
			fmt.Fprint(fs.Output(), "\nInstance options (-param key=value), besides the parameters the policy declares:\n", wiera.OptionsHelp())
		}
	}
	if err := fs.Parse(cmdArgs); err != nil {
		return err
	}
	// Telemetry commands read daemon-wide state; they take no instance id.
	switch cmdName {
	case "metrics":
		var resp wiera.MetricsDumpResponse
		if err := call(cli, wiera.MethodMetricsDump, wiera.MetricsDumpRequest{}, &resp); err != nil {
			return err
		}
		fmt.Print(resp.Prometheus)
		return nil
	case "repair":
		// Anti-entropy health: the repair_* metric families (pending hints,
		// replayed hints, keys repaired, digest rounds, ...) across every
		// node the daemon hosts.
		var resp wiera.MetricsDumpResponse
		if err := call(cli, wiera.MethodMetricsDump, wiera.MetricsDumpRequest{}, &resp); err != nil {
			return err
		}
		printed := false
		for _, line := range strings.Split(resp.Prometheus, "\n") {
			trimmed := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
			if strings.HasPrefix(trimmed, "repair_") {
				fmt.Println(line)
				printed = true
			}
		}
		if !printed {
			fmt.Println("no repair metrics (anti-entropy disabled or no instances running)")
		}
		return nil
	case "trace":
		var resp wiera.TraceDumpResponse
		if err := call(cli, wiera.MethodTraceDump, wiera.TraceDumpRequest{TraceID: *traceID}, &resp); err != nil {
			return err
		}
		if *analyze {
			if *traceID == "" {
				return fmt.Errorf("-analyze requires -trace <id>")
			}
			a, err := telemetry.AnalyzeTrace(resp.Spans)
			if err != nil {
				return fmt.Errorf("trace %s: %w", *traceID, err)
			}
			if *rawSpans {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				return enc.Encode(a)
			}
			fmt.Print(telemetry.RenderAnalysis(a))
			return nil
		}
		if *rawSpans {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(resp.Spans)
		}
		fmt.Print(telemetry.RenderSpanTree(resp.Spans))
		return nil
	case "cluster":
		var resp wiera.ClusterMetricsResponse
		if err := call(cli, wiera.MethodClusterMetrics, wiera.ClusterMetricsRequest{}, &resp); err != nil {
			return err
		}
		if *rawSpans {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(resp)
		}
		fmt.Print(renderCluster(resp))
		return nil
	case "events":
		var resp wiera.EventsDumpResponse
		if err := call(cli, wiera.MethodEventsDump, wiera.EventsDumpRequest{Max: *maxN}, &resp); err != nil {
			return err
		}
		if *rawSpans {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(resp)
		}
		if len(resp.Events) == 0 {
			fmt.Println("no events recorded yet")
			return nil
		}
		fmt.Printf("events (%d shown; %d recorded since start)\n", len(resp.Events), resp.Total)
		fmt.Print(renderEvents(resp.Events))
		return nil
	case "slow":
		var resp wiera.FlightDumpResponse
		if err := call(cli, wiera.MethodFlightDump,
			wiera.FlightDumpRequest{SlowOnly: !*allRecs, Max: *maxN}, &resp); err != nil {
			return err
		}
		if *rawSpans {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(resp)
		}
		which := "slow/expensive"
		if *allRecs {
			which = "recent"
		}
		fmt.Printf("%s requests (%d shown; %d seen, %d slow since start)\n",
			which, len(resp.Records), resp.TotalSeen, resp.SlowSeen)
		fmt.Print(flight.RenderRecords(resp.Records))
		if *summary {
			fmt.Print(flight.RenderHopSummary(resp.Records))
		}
		// Tail exemplars: the concrete traces currently sitting in each op's
		// p99 bucket — the fastest route from "the tail is slow" to a trace.
		var snap wiera.MetricsSnapshotResponse
		if err := call(cli, wiera.MethodMetricsSnapshot, wiera.MetricsSnapshotRequest{}, &snap); err == nil {
			if out := renderTailExemplars(snap.Families); out != "" {
				fmt.Print(out)
			}
		}
		return nil
	}
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	// -tenant scopes the data commands' key into the tenant's namespace —
	// the same qualification a tenant-scoped client applies on every op.
	if *tenantID != "" && *key != "" {
		if !tenant.ValidID(*tenantID) {
			return fmt.Errorf("invalid tenant id %q", *tenantID)
		}
		*key = tenant.Qualify(*tenantID, *key)
	}

	switch cmdName {
	case "start":
		src, err := loadPolicy(*policyPath)
		if err != nil {
			return err
		}
		p := map[string]string(params)
		if p == nil {
			p = map[string]string{}
		}
		if *workers > 0 {
			p["workers"] = fmt.Sprintf("%d", *workers)
		}
		if *dynamicPath != "" {
			dyn, err := loadPolicy(*dynamicPath)
			if err != nil {
				return err
			}
			p["dynamic"] = dyn
		}
		var resp wiera.StartInstancesResponse
		if err := call(cli, wiera.MethodStartInstances,
			wiera.StartInstancesRequest{InstanceID: *id, PolicySrc: src, Params: p}, &resp); err != nil {
			return err
		}
		for _, n := range resp.Nodes {
			fmt.Printf("%s\t%s\n", n.Name, n.Region)
		}
		return nil
	case "stop":
		var resp wiera.Empty
		return call(cli, wiera.MethodStopInstances, wiera.StopInstancesRequest{InstanceID: *id}, &resp)
	case "list":
		var resp wiera.StartInstancesResponse
		if err := call(cli, wiera.MethodGetInstances, wiera.GetInstancesRequest{InstanceID: *id}, &resp); err != nil {
			return err
		}
		for _, n := range resp.Nodes {
			fmt.Printf("%s\t%s\n", n.Name, n.Region)
		}
		return nil
	case "stats":
		var resp wiera.InstanceStats
		if err := call(cli, wiera.MethodCollectStats, wiera.GetInstancesRequest{InstanceID: *id}, &resp); err != nil {
			return err
		}
		fmt.Print(resp.Render())
		return nil
	case "ring":
		out, err := renderRing(cli, *id)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	case "grow":
		var resp wiera.RingDrainResponse
		if err := call(cli, wiera.MethodAddWorker, wiera.GetInstancesRequest{InstanceID: *id}, &resp); err != nil {
			return err
		}
		fmt.Printf("added one worker per region; %d keys rebalanced\n", resp.Moved)
		return nil
	case "shrink":
		var resp wiera.RingDrainResponse
		if err := call(cli, wiera.MethodRemoveWorker, wiera.GetInstancesRequest{InstanceID: *id}, &resp); err != nil {
			return err
		}
		fmt.Printf("removed one worker per region; %d keys rebalanced\n", resp.Moved)
		return nil
	case "tenants":
		var resp wiera.InstanceStats
		if err := call(cli, wiera.MethodCollectStats, wiera.GetInstancesRequest{InstanceID: *id}, &resp); err != nil {
			return err
		}
		fmt.Print(renderTenants(*id, resp))
		return nil
	case "heat":
		var resp wiera.HeatTopResponse
		if err := call(cli, wiera.MethodHeatTop,
			wiera.HeatTopRequest{InstanceID: *id, K: *maxN}, &resp); err != nil {
			return err
		}
		if len(resp.Entries) == 0 {
			fmt.Println("no heat data (heat tracking off, or no traffic yet)")
			return nil
		}
		fmt.Printf("%-40s %s\n", "key", "rate (accesses/half-life)")
		for _, e := range resp.Entries {
			fmt.Printf("%-40s %.1f\n", e.Key, e.Rate)
		}
		return nil
	case "top":
		for {
			out, err := renderTop(cli, *id)
			if err != nil {
				return err
			}
			if *watch {
				// Clear and repaint like top(1).
				fmt.Print("\033[H\033[2J")
			}
			fmt.Print(out)
			if !*watch {
				return nil
			}
			time.Sleep(*interval)
		}
	case "put":
		if *key == "" {
			return fmt.Errorf("-key is required")
		}
		data := []byte(*value)
		if *file != "" {
			b, err := os.ReadFile(*file)
			if err != nil {
				return err
			}
			data = b
		}
		var resp wiera.PutResponse
		if err := proxyCall(cli, *id, wiera.MethodPut, wiera.PutRequest{Key: *key, Data: data}, &resp); err != nil {
			return err
		}
		fmt.Printf("stored %s version %d (%d bytes)\n", *key, resp.Meta.Version, resp.Meta.Size)
		return nil
	case "get":
		if *key == "" {
			return fmt.Errorf("-key is required")
		}
		var resp wiera.GetResponse
		if *version > 0 {
			if err := proxyCall(cli, *id, wiera.MethodGetVersion,
				wiera.GetVersionRequest{Key: *key, Version: object.Version(*version)}, &resp); err != nil {
				return err
			}
		} else if err := proxyCall(cli, *id, wiera.MethodGet, wiera.GetRequest{Key: *key}, &resp); err != nil {
			return err
		}
		os.Stdout.Write(resp.Data)
		fmt.Fprintf(os.Stderr, "\n(version %d, %d bytes)\n", resp.Meta.Version, len(resp.Data))
		return nil
	case "versions":
		if *key == "" {
			return fmt.Errorf("-key is required")
		}
		var resp wiera.VersionListResponse
		if err := proxyCall(cli, *id, wiera.MethodVersionList, wiera.VersionListRequest{Key: *key}, &resp); err != nil {
			return err
		}
		for _, v := range resp.Versions {
			fmt.Println(v)
		}
		return nil
	case "placement":
		if *key == "" {
			return fmt.Errorf("-key is required")
		}
		var resp wiera.PlacementResponse
		if err := proxyCall(cli, *id, wiera.MethodPlacement, wiera.PlacementRequest{Key: *key}, &resp); err != nil {
			return err
		}
		fmt.Print(renderPlacement(resp))
		return nil
	case "remove":
		if *key == "" {
			return fmt.Errorf("-key is required")
		}
		var resp wiera.Empty
		if *version > 0 {
			return proxyCall(cli, *id, wiera.MethodRemoveVer,
				wiera.RemoveVersionRequest{Key: *key, Version: object.Version(*version)}, &resp)
		}
		return proxyCall(cli, *id, wiera.MethodRemove, wiera.RemoveRequest{Key: *key}, &resp)
	default:
		return fmt.Errorf("unknown command %q", cmdName)
	}
}

// renderPlacement formats an object's physical layout: replicated versus
// erasure-coded, and each member's share (fragment indexes and bytes),
// with a per-region byte rollup.
func renderPlacement(p wiera.PlacementResponse) string {
	var b strings.Builder
	scheme := "replicated"
	if p.ECK > 0 {
		scheme = fmt.Sprintf("erasure-coded %d+%d", p.ECK, p.ECM)
	}
	fmt.Fprintf(&b, "%s  version %d  size %d bytes  %s\n", p.Key, p.Version, p.Size, scheme)
	var total int64
	regionBytes := map[string]int64{}
	var regions []string
	for _, e := range p.Entries {
		r := string(e.Region)
		if _, ok := regionBytes[r]; !ok {
			regions = append(regions, r)
		}
		if !e.Has {
			fmt.Fprintf(&b, "  %-28s %-10s -\n", e.Node, e.Region)
			continue
		}
		share := "full copy"
		if len(e.Frags) > 0 {
			idx := make([]string, len(e.Frags))
			for i, f := range e.Frags {
				idx[i] = fmt.Sprintf("%d", f)
			}
			share = "fragments [" + strings.Join(idx, " ") + "]"
		}
		fmt.Fprintf(&b, "  %-28s %-10s v%-4d %-18s %d bytes\n", e.Node, e.Region, e.Version, share, e.Bytes)
		total += e.Bytes
		regionBytes[r] += e.Bytes
	}
	fmt.Fprintf(&b, "  per region:")
	for _, r := range regions {
		fmt.Fprintf(&b, "  %s=%dB", r, regionBytes[r])
	}
	if p.Size > 0 {
		fmt.Fprintf(&b, "\n  physical total %d bytes (%.2fx the object)\n", total, float64(total)/float64(p.Size))
	} else {
		fmt.Fprintf(&b, "\n  physical total %d bytes\n", total)
	}
	return b.String()
}

// renderTop builds one frame of the top view: per-node operation stats for
// the instance, then the daemon-wide anti-entropy repair counters and SLO
// error-budget gauges pulled from the metrics registry.
func renderTop(cli *transport.TCPClient, id string) (string, error) {
	var b strings.Builder
	var stats wiera.InstanceStats
	if err := call(cli, wiera.MethodCollectStats, wiera.GetInstancesRequest{InstanceID: id}, &stats); err != nil {
		return "", err
	}
	b.WriteString(stats.Render())

	var metrics wiera.MetricsDumpResponse
	if err := call(cli, wiera.MethodMetricsDump, wiera.MetricsDumpRequest{}, &metrics); err != nil {
		return "", err
	}
	section := func(title, prefix string) {
		var lines []string
		for _, line := range strings.Split(metrics.Prometheus, "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			if strings.HasPrefix(line, prefix) {
				lines = append(lines, line)
			}
		}
		if len(lines) == 0 {
			return
		}
		fmt.Fprintf(&b, "\n%s\n", title)
		for _, line := range lines {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	section("slo (error-budget burn; alert when both windows >= 2)", "slo_")
	section("repair (anti-entropy)", "repair_")
	section("autoscale (elastic controller)", "autoscale_")
	section("heat (hot-key replication)", "heat_")
	section("tenants (quota admission + weighted-fair queue)", "tenant_")
	section("watchdog (runtime self-checks)", "watch_")
	if s := renderRPCBytes(metrics.Prometheus); s != "" {
		fmt.Fprintf(&b, "\nwire (per-method rpc bytes, top %d)\n%s", rpcBytesTopN, s)
	}

	var events wiera.EventsDumpResponse
	if err := call(cli, wiera.MethodEventsDump, wiera.EventsDumpRequest{Max: 8}, &events); err == nil &&
		len(events.Events) > 0 {
		fmt.Fprintf(&b, "\nevents (newest %d of %d)\n", len(events.Events), events.Total)
		b.WriteString(renderEvents(events.Events))
	}
	return b.String(), nil
}

// rpcBytesTopN bounds the per-method RPC byte table in the top view.
const rpcBytesTopN = 8

// renderRPCBytes parses the rpc_bytes_in_total / rpc_bytes_out_total
// counters out of a Prometheus text dump and renders the top methods by
// total byte volume (in+out, summed across regions). Empty string when the
// daemon exposes no RPC byte counters.
func renderRPCBytes(prom string) string {
	type vol struct{ in, out float64 }
	byMethod := map[string]*vol{}
	var order []string
	for _, line := range strings.Split(prom, "\n") {
		var dir int // 0 = in, 1 = out
		switch {
		case strings.HasPrefix(line, "rpc_bytes_in_total{"):
			dir = 0
		case strings.HasPrefix(line, "rpc_bytes_out_total{"):
			dir = 1
		default:
			continue
		}
		_, rest, ok := strings.Cut(line, `method="`)
		if !ok {
			continue
		}
		method, rest, ok := strings.Cut(rest, `"`)
		if !ok {
			continue
		}
		_, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		m := byMethod[method]
		if m == nil {
			m = &vol{}
			byMethod[method] = m
			order = append(order, method)
		}
		if dir == 0 {
			m.in += v
		} else {
			m.out += v
		}
	}
	if len(order) == 0 {
		return ""
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := byMethod[order[i]], byMethod[order[j]]
		return a.in+a.out > b.in+b.out
	})
	if len(order) > rpcBytesTopN {
		order = order[:rpcBytesTopN]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-28s %12s %12s\n", "method", "bytes in", "bytes out")
	for _, m := range order {
		v := byMethod[m]
		fmt.Fprintf(&b, "  %-28s %12.0f %12.0f\n", m, v.in, v.out)
	}
	return b.String()
}

// renderTenants aggregates per-tenant accounting across the instance's
// worker nodes: counters sum, latency p99s take the worst node (a tenant's
// tail is its slowest shard), weight and quotas are configuration and come
// from any node.
func renderTenants(id string, stats wiera.InstanceStats) string {
	type agg struct {
		wiera.TenantStats
		seen bool
	}
	byID := map[string]*agg{}
	var order []string
	for _, n := range stats.Nodes {
		for _, t := range n.Tenants {
			a := byID[t.ID]
			if a == nil {
				a = &agg{}
				byID[t.ID] = a
				order = append(order, t.ID)
			}
			if !a.seen {
				a.TenantStats = t
				a.seen = true
				continue
			}
			a.Ops += t.Ops
			a.BytesIn += t.BytesIn
			a.BytesOut += t.BytesOut
			a.Throttled += t.Throttled
			for _, p := range []struct {
				dst *float64
				v   float64
			}{
				{&a.QueueP99Ms, t.QueueP99Ms}, {&a.PutP99Ms, t.PutP99Ms}, {&a.GetP99Ms, t.GetP99Ms},
			} {
				if p.v > *p.dst {
					*p.dst = p.v
				}
			}
		}
	}
	if len(order) == 0 {
		return fmt.Sprintf("instance %s has no tenants configured (start with -param tenants=a,b)\n", id)
	}
	sort.Strings(order)
	quota := func(v float64, unit string) string {
		if v <= 0 {
			return "-"
		}
		return fmt.Sprintf("%g%s", v, unit)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "instance %s  %d tenant(s), %d worker node(s)\n", id, len(order), len(stats.Nodes))
	fmt.Fprintf(&b, "%-12s %3s %9s %9s %8s %10s %10s %9s %9s %9s\n",
		"tenant", "w", "iops", "bytes/s", "ops", "in", "out", "throttled", "wfqP99", "putP99")
	for _, tid := range order {
		a := byID[tid]
		fmt.Fprintf(&b, "%-12s %3d %9s %9s %8d %9dB %9dB %9d %8.1fms %8.1fms\n",
			tid, a.Weight, quota(a.IOPSQuota, ""), quota(a.BytesQuota, "B"),
			a.Ops, a.BytesIn, a.BytesOut, a.Throttled, a.QueueP99Ms, a.PutP99Ms)
	}
	return b.String()
}

// renderEvents formats journal events oldest-first, one line each.
func renderEvents(events []watch.Event) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "  %6d  %s  %-16s %-24s %s\n",
			e.Seq, e.At.Format("15:04:05.000"), e.Type, e.Scope, e.Msg)
	}
	return b.String()
}

// renderCluster formats the fleet-merged metric view: the contributing
// daemons, then true fleet-wide per-op latency distributions (count, p50,
// p99) with the trace exemplar sitting in each op's p99 bucket.
func renderCluster(resp wiera.ClusterMetricsResponse) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet view: %d daemon(s): %s\n", len(resp.Sources), strings.Join(resp.Sources, ", "))
	if len(resp.Failed) > 0 {
		fmt.Fprintf(&b, "unreachable peers: %s\n", strings.Join(resp.Failed, ", "))
	}
	printed := false
	for _, spec := range []struct{ family, by string }{
		{"wiera_op_seconds", "op"},
		{"tiera_op_seconds", "op"},
		{"rpc_server_seconds", "method"},
	} {
		fam, ok := telemetry.FindFamily(resp.Families, spec.family)
		if !ok {
			continue
		}
		merged := telemetry.CollapseHistogram(fam, spec.by)
		if len(merged) == 0 {
			continue
		}
		printed = true
		fmt.Fprintf(&b, "\n%s (fleet-wide, by %s)\n", spec.family, spec.by)
		fmt.Fprintf(&b, "  %-28s %9s %10s %10s  %s\n", spec.by, "count", "p50", "p99", "p99 exemplar")
		for _, m := range merged {
			name := strings.Join(m.LabelValues, "/")
			ex := "-"
			if trace, v, ok := telemetry.BucketExemplarAt(m.Buckets, 99); ok {
				ex = fmt.Sprintf("%s (%v)", trace, v.Round(10*time.Microsecond))
			}
			fmt.Fprintf(&b, "  %-28s %9d %10v %10v  %s\n", name, m.Count,
				telemetry.BucketsPercentile(m.Buckets, 50).Round(10*time.Microsecond),
				telemetry.BucketsPercentile(m.Buckets, 99).Round(10*time.Microsecond), ex)
		}
	}
	type vol struct{ in, out float64 }
	rpcVol := map[string]*vol{}
	var rpcOrder []string
	for dir, family := range map[int]string{0: "rpc_bytes_in_total", 1: "rpc_bytes_out_total"} {
		fam, ok := telemetry.FindFamily(resp.Families, family)
		if !ok {
			continue
		}
		for _, m := range telemetry.CollapseCounter(fam, "method") {
			method := strings.Join(m.LabelValues, "/")
			v := rpcVol[method]
			if v == nil {
				v = &vol{}
				rpcVol[method] = v
				rpcOrder = append(rpcOrder, method)
			}
			if dir == 0 {
				v.in += m.Value
			} else {
				v.out += m.Value
			}
		}
	}
	if len(rpcOrder) > 0 {
		sort.Slice(rpcOrder, func(i, j int) bool {
			a, c := rpcVol[rpcOrder[i]], rpcVol[rpcOrder[j]]
			return a.in+a.out > c.in+c.out
		})
		if len(rpcOrder) > rpcBytesTopN {
			rpcOrder = rpcOrder[:rpcBytesTopN]
		}
		fmt.Fprintf(&b, "\nwire (fleet-wide per-method rpc bytes, top %d)\n", rpcBytesTopN)
		fmt.Fprintf(&b, "  %-28s %12s %12s\n", "method", "bytes in", "bytes out")
		for _, m := range rpcOrder {
			v := rpcVol[m]
			fmt.Fprintf(&b, "  %-28s %12.0f %12.0f\n", m, v.in, v.out)
		}
	}
	if !printed {
		b.WriteString("no op latency families recorded yet (no traffic?)\n")
	} else {
		b.WriteString("\nresolve an exemplar: wieractl trace -trace <id> -analyze\n")
	}
	return b.String()
}

// renderTailExemplars lists each op's current p99 exemplar trace from one
// daemon's own snapshot (the slow command's bridge from percentile to
// trace).
func renderTailExemplars(fams []telemetry.FamilySnapshot) string {
	fam, ok := telemetry.FindFamily(fams, "wiera_op_seconds")
	if !ok {
		return ""
	}
	var b strings.Builder
	for _, m := range telemetry.CollapseHistogram(fam, "op") {
		trace, v, ok := telemetry.BucketExemplarAt(m.Buckets, 99)
		if !ok {
			continue
		}
		if b.Len() == 0 {
			b.WriteString("p99 exemplars (wieractl trace -trace <id> -analyze):\n")
		}
		fmt.Fprintf(&b, "  %-12s %v  trace %s\n",
			strings.Join(m.LabelValues, "/"), v.Round(10*time.Microsecond), trace)
	}
	return b.String()
}

// renderRing builds the ring view: a CollectStats round trip first (which
// refreshes the daemon-side ring ownership gauges and yields the worker
// list with shard indexes), then a metrics dump parsed for the per-node
// ring_* families.
func renderRing(cli *transport.TCPClient, id string) (string, error) {
	var stats wiera.InstanceStats
	if err := call(cli, wiera.MethodCollectStats, wiera.GetInstancesRequest{InstanceID: id}, &stats); err != nil {
		return "", err
	}
	var metrics wiera.MetricsDumpResponse
	if err := call(cli, wiera.MethodMetricsDump, wiera.MetricsDumpRequest{}, &metrics); err != nil {
		return "", err
	}
	ring := parseRingMetrics(metrics.Prometheus)

	var b strings.Builder
	epoch := int64(0)
	for _, n := range stats.Nodes {
		if n.RingEpoch > epoch {
			epoch = n.RingEpoch
		}
	}
	if epoch == 0 {
		fmt.Fprintf(&b, "instance %s is unsharded (single worker per region; start with -workers N or grow to shard)\n", id)
		return b.String(), nil
	}
	fmt.Fprintf(&b, "instance %s  ring epoch %d  workers %d\n", id, epoch, len(stats.Nodes))
	fmt.Fprintf(&b, "%-28s %-10s %5s %6s %7s %10s %8s %8s %6s %8s\n",
		"worker", "region", "shard", "vnodes", "keys", "bytes", "moved", "movedB", "nacks", "inflight")
	nodes := append([]wiera.NodeStats(nil), stats.Nodes...)
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Region != nodes[j].Region {
			return nodes[i].Region < nodes[j].Region
		}
		return nodes[i].Shard < nodes[j].Shard
	})
	inflight := 0.0
	for _, n := range nodes {
		m := ring[n.Name]
		fmt.Fprintf(&b, "%-28s %-10s %5d %6.0f %7.0f %10.0f %8.0f %8.0f %6.0f %8.0f\n",
			n.Name, n.Region, n.Shard, m["ring_vnodes"], m["ring_keys"], m["ring_bytes"],
			m["ring_keys_moved_total"], m["ring_bytes_moved_total"],
			m["ring_wrong_shard_total"], m["ring_migrations_inflight"])
		inflight += m["ring_migrations_inflight"]
	}
	if inflight > 0 {
		fmt.Fprintf(&b, "rebalance in progress: %.0f migrations in flight\n", inflight)
	}
	return b.String(), nil
}

// parseRingMetrics pulls the ring_* gauge/counter samples out of a
// Prometheus text dump, keyed by node name then family.
func parseRingMetrics(prom string) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, line := range strings.Split(prom, "\n") {
		if !strings.HasPrefix(line, "ring_") || strings.HasPrefix(line, "#") {
			continue
		}
		brace := strings.IndexByte(line, '{')
		end := strings.LastIndexByte(line, '}')
		if brace < 0 || end < brace {
			continue
		}
		family := line[:brace]
		node := ""
		for _, pair := range strings.Split(line[brace+1:end], ",") {
			if k, v, ok := strings.Cut(pair, "="); ok && k == "node" {
				node = strings.Trim(v, `"`)
			}
		}
		var val float64
		if _, err := fmt.Sscanf(strings.TrimSpace(line[end+1:]), "%g", &val); err != nil || node == "" {
			continue
		}
		if out[node] == nil {
			out[node] = map[string]float64{}
		}
		out[node][family] = val
	}
	return out
}

// loadPolicy reads a policy source file, or resolves a builtin name.
func loadPolicy(pathOrName string) (string, error) {
	if pathOrName == "" {
		return "", fmt.Errorf("-policy is required")
	}
	if src, err := policy.BuiltinSource(pathOrName); err == nil {
		return src, nil
	}
	b, err := os.ReadFile(pathOrName)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// call performs a management RPC.
func call(cli *transport.TCPClient, method string, req, resp any) error {
	payload, err := transport.Encode(req)
	if err != nil {
		return err
	}
	raw, err := cli.Call(context.Background(), "", method, payload)
	if err != nil {
		return err
	}
	return transport.Decode(raw, resp)
}

// proxyCall performs a data RPC wrapped in the instance envelope.
func proxyCall(cli *transport.TCPClient, instanceID, method string, req, resp any) error {
	inner, err := transport.Encode(req)
	if err != nil {
		return err
	}
	payload, err := transport.Encode(wiera.ProxyRequest{InstanceID: instanceID, Payload: inner})
	if err != nil {
		return err
	}
	raw, err := cli.Call(context.Background(), "", method, payload)
	if err != nil {
		return err
	}
	return transport.Decode(raw, resp)
}

// paramFlags collects repeated -param name=value bindings.
type paramFlags map[string]string

// String implements flag.Value.
func (p *paramFlags) String() string {
	if p == nil {
		return ""
	}
	parts := make([]string, 0, len(*p))
	for k, v := range *p {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Set implements flag.Value.
func (p *paramFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("param %q is not name=value", s)
	}
	if *p == nil {
		*p = map[string]string{}
	}
	(*p)[k] = v
	return nil
}
