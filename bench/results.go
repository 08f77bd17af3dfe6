package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Env records where and on what a run was made.
type Env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
}

// CaptureEnv reads the environment at the start of a run. A positive
// startLoad stands in for the load average: a full run reads it once,
// before its first workload, so the benchmark's own earlier workloads do
// not mark the later ones noisy.
func CaptureEnv(startLoad float64) Env {
	e := Env{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", LoadAvg1: startLoad}
	// Only when the working directory is itself a checkout's root: git would
	// otherwise search the directories above it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if e.LoadAvg1 <= 0 {
		e.LoadAvg1 = ReadLoadAvg()
	}
	return e
}

// ReadLoadAvg returns the 1-minute load average (0 when unavailable).
func ReadLoadAvg() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// Noisy reports whether the machine was already busy when the run began:
// more than half its cores loaded.
func (e Env) Noisy() bool { return e.LoadAvg1 > float64(e.NumCPU)/2 }

// Manifest is BENCHMARK.json.
type Manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadDecl `json:"workloads"`
	EndToEnd   []MetricDecl   `json:"end_to_end"`
	PerLayer   []MetricDecl   `json:"per_layer"`
}

// WorkloadDecl names one workload and why it exists.
type WorkloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricDecl declares one metric; Bound is set for end-to-end metrics only.
type MetricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadManifest reads BENCHMARK.json from path.
func LoadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// ResultPath names a run's result file inside dir.
func ResultPath(dir, workload string, trace bool) string {
	if trace {
		return filepath.Join(dir, "trace_"+workload+".json")
	}
	return filepath.Join(dir, workload+".json")
}

// Write stores the result in dir.
func (res *Result) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(ResultPath(dir, res.Workload, res.Trace), append(raw, '\n'), 0o644)
}

// ReadResult loads one result file.
func ReadResult(path string) (*Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// Print lists every metric by name with its unit and segment range.
func (res *Result) Print(w io.Writer) {
	kind := "end-to-end"
	if res.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "# %s  %s  seed=%d n=%d measured=%d failed=%d audit=%+v valid=%v noisy=%v\n",
		res.Workload, kind, res.Seed, res.N, res.Measured, res.Failed, res.Audit, res.Valid, res.Noisy)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-34s %14.4f %-6s", name, m.Value, m.Unit)
		if m.Min != m.Max {
			fmt.Fprintf(w, "  [%.4f .. %.4f]", m.Min, m.Max)
		}
		fmt.Fprintln(w)
	}
}

// DriverLine is the one-line JSON object the benchmark contract asks for as
// the last line of standard output.
func (res *Result) DriverLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Valid && res.finite(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]value, len(res.Metrics))}
	for name, m := range res.Metrics {
		out.Metrics[name] = value{Value: m.Value, Unit: m.Unit}
	}
	raw, _ := json.Marshal(out) // a struct of numbers and strings cannot fail
	return string(raw)
}

// Compare reads the result sets in dirs a and b and prints one row per
// (workload, end-to-end metric): both values, the in-run segment spread,
// and a verdict under the metric's bound from the manifest. A pair whose
// spread exceeds the bound is unresolved, never unchanged. It returns the
// number of regressed and unresolved rows, and refuses noisy or invalid
// result sets.
func Compare(w io.Writer, man *Manifest, a, b string) (regressed, unresolved int, err error) {
	fmt.Fprintf(w, "%-16s %-28s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "A", "B", "change", "spread", "bound", "verdict")
	for _, wl := range man.Workloads {
		ra, err := ReadResult(ResultPath(a, wl.Name, false))
		if err != nil {
			return 0, 0, err
		}
		rb, err := ReadResult(ResultPath(b, wl.Name, false))
		if err != nil {
			return 0, 0, err
		}
		for _, r := range []*Result{ra, rb} {
			if r.Noisy {
				return 0, 0, fmt.Errorf("%s: run started at load %.2f on %d cores (noisy): refusing to compare",
					wl.Name, r.Env.LoadAvg1, r.Env.NumCPU)
			}
			if !r.Valid {
				return 0, 0, fmt.Errorf("%s: result is not valid (failed=%d audit=%+v)", wl.Name, r.Failed, r.Audit)
			}
		}
		for _, decl := range man.EndToEnd {
			ma, okA := ra.Metrics[decl.Name]
			mb, okB := rb.Metrics[decl.Name]
			if !okA || !okB {
				return 0, 0, fmt.Errorf("%s: metric %s missing from a result set", wl.Name, decl.Name)
			}
			change := ratio(mb.Value-ma.Value, ma.Value)
			worse := change
			if decl.Better == "higher" {
				worse = -change
			}
			spread := max(ma.spread(), mb.spread())
			verdict := "unchanged"
			switch {
			case spread > decl.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > decl.Bound:
				verdict = "REGRESSED"
				regressed++
			case worse < -decl.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-16s %-28s %14.4f %14.4f %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				wl.Name, decl.Name, ma.Value, mb.Value, 100*change, 100*spread, 100*decl.Bound, verdict)
		}
	}
	return regressed, unresolved, nil
}

// spread is the distance between the quartiles of the run's segments as a
// share of their median — the same measure the driver applies across runs.
// It says how disturbed the machine was during the run, which is more than
// the run's best segment moves by.
func (m Metric) spread() float64 { return ratio(m.Q3-m.Q1, m.Median) }
