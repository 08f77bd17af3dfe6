package bench

import (
	"bytes"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestQuickSmoke is the smoke test: every workload, untraced and traced,
// at -quick sizes. The emitted workload and metric names must be exactly
// the sets BENCHMARK.json declares, every value finite, every audit clean.
func TestQuickSmoke(t *testing.T) {
	man, err := LoadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared, have []string
	for _, w := range man.Workloads {
		declared = append(declared, w.Name)
	}
	for _, s := range Specs {
		have = append(have, s.Name)
	}
	if strings.Join(declared, ",") != strings.Join(have, ",") {
		t.Fatalf("workloads: BENCHMARK.json declares %v, the benchmark runs %v", declared, have)
	}
	for _, spec := range Specs {
		for _, trace := range []bool{false, true} {
			decls := man.EndToEnd
			if trace {
				decls = man.PerLayer
			}
			res, err := Run(spec, Options{Seed: 1, Seconds: float64(man.RunSeconds), Trace: trace, Quick: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.Name, trace, err)
			}
			if !res.Valid {
				t.Errorf("%s trace=%v: failed=%d audit=%+v", spec.Name, trace, res.Failed, res.Audit)
			}
			var want, got []string
			for _, d := range decls {
				want = append(want, d.Name)
				if m, ok := res.Metrics[d.Name]; ok && m.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", spec.Name, d.Name, m.Unit, d.Unit)
				}
			}
			for name, m := range res.Metrics {
				got = append(got, name)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v", spec.Name, name, m.Value)
				}
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(want, ",") != strings.Join(got, ",") {
				t.Errorf("%s trace=%v: metrics differ from BENCHMARK.json\ndeclared: %v\nemitted:  %v", spec.Name, trace, want, got)
			}
			if trace && spec.Name == "fabric_large_ec" && res.Metrics["ec.striped_frac"].Value != 1 {
				t.Errorf("fabric_large_ec: ec.striped_frac = %v, want 1", res.Metrics["ec.striped_frac"].Value)
			}
		}
	}
}

// TestIdleStackDoesNotSpin is the guard against the scaled-clock artefact:
// on the benchmark clock background periods are real time, so a started
// three-region stack left idle for a second must use under 5% of one core.
func TestIdleStackDoesNotSpin(t *testing.T) {
	stack, err := NewStack(Specs[0], true)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	before := ReadProcStats()
	time.Sleep(time.Second)
	used := time.Duration(ReadProcStats().Sub(before).CPUNs)
	if used > 50*time.Millisecond {
		t.Fatalf("idle stack used %v of CPU in 1s: a background loop is spinning", used)
	}
	if stack.Clock.Slept() == 0 {
		t.Error("stack construction charged no simulated latency: the clock is not wired in")
	}
}

// TestCompareVerdicts checks that a pair whose in-run spread exceeds the
// bound is unresolved rather than unchanged, and that a worsening beyond
// the bound is a regression in the metric's own direction.
func TestCompareVerdicts(t *testing.T) {
	man := &Manifest{Workloads: []WorkloadDecl{{Name: "w"}}, EndToEnd: []MetricDecl{
		{Name: "steady", Unit: "us", Better: "lower", Bound: 0.10},
		{Name: "wide", Unit: "us", Better: "lower", Bound: 0.10},
		{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
	}}
	write := func(dir string, steady, wideMax, rate float64) {
		res := &Result{Workload: "w", Valid: true, Metrics: map[string]Metric{
			"steady": single(steady, "us", 1),
			"wide":   {Value: 100, Median: 100, Min: 90, Max: 2 * wideMax, Q1: 100, Q3: wideMax},
			"rate":   single(rate, "1/s", 1),
		}}
		if err := res.Write(dir); err != nil {
			t.Fatal(err)
		}
	}
	a, b := t.TempDir(), t.TempDir()
	write(a, 100, 130, 1000)
	write(b, 120, 130, 1050)
	var out bytes.Buffer
	regressed, unresolved, err := Compare(&out, man, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if regressed != 1 || unresolved != 1 {
		t.Fatalf("regressed=%d unresolved=%d, want 1 and 1\n%s", regressed, unresolved, out.String())
	}
	for _, want := range []string{"steady", "REGRESSED", "unresolved", "unchanged"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
