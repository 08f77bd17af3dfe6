// Command benchpairs folds the paired benchmark runs that
// scripts/bench_pairs.sh made for one workload into the repository's
// BENCH_<pr>.json: per end-to-end metric of BENCHMARK.json, each side's
// median and quartiles over the pairs, how many pairs the change won, and a
// verdict under the metric's bound. Other workloads already in the file stay.
//
// The verdicts follow the rule the driver applies to a claimed gain:
//
//	improved    the change wins at least nine tenths of the pairs (ties
//	            count for neither side) and its median is better than the
//	            parent's by more than the parent's own interquartile range
//	worse       the change's median is worse than the parent's by more than
//	            the metric's bound (a fraction of the parent's median)
//	unresolved  neither, and a side's interquartile range is wider than the
//	            bound: the runs spread too widely to call it unchanged
//	unchanged   none of the above
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// manifest is the part of BENCHMARK.json the verdicts need.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// run is the last line bench/run.sh prints for one workload.
type run struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type metricRow struct {
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound"`
	Parent  spread  `json:"parent"`
	Change  spread  `json:"change"`
	Wins    int     `json:"wins"`
	Losses  int     `json:"losses"`
	Ties    int     `json:"ties"`
	Verdict string  `json:"verdict"`
}

type sideTotals struct {
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Correct   bool `json:"all_correct"`
}

type workloadRows struct {
	Pairs   int                  `json:"pairs"`
	Parent  sideTotals           `json:"parent_ops"`
	Change  sideTotals           `json:"change_ops"`
	Metrics map[string]metricRow `json:"metrics"`
}

type report struct {
	Parent    string                  `json:"parent"`
	Command   string                  `json:"command"`
	Workloads map[string]workloadRows `json:"workloads"`
	// Notes is the change's run ledger, written by hand and kept across folds.
	Notes []string `json:"notes,omitempty"`
}

func main() {
	benchmark := flag.String("benchmark", "BENCHMARK.json", "the benchmark manifest (bounds)")
	dir := flag.String("dir", "", "directory holding parent_<i>.json and change_<i>.json for i = 1..pairs")
	pairs := flag.Int("pairs", 0, "number of pairs in -dir")
	workload := flag.String("workload", "", "the workload the pairs ran")
	parent := flag.String("parent", "", "the parent revision the pairs compared against")
	out := flag.String("out", "", "the BENCH_<pr>.json to create or update")
	flag.Parse()
	if err := fold(*benchmark, *dir, *pairs, *workload, *parent, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func fold(benchmark, dir string, pairs int, workload, parent, out string) error {
	var man manifest
	if err := readJSON(benchmark, &man); err != nil {
		return err
	}
	if pairs <= 0 || workload == "" || out == "" {
		return fmt.Errorf("-pairs, -workload and -out are required")
	}
	sides := map[string][]run{}
	for _, side := range []string{"parent", "change"} {
		for i := 1; i <= pairs; i++ {
			var r run
			if err := readJSON(filepath.Join(dir, fmt.Sprintf("%s_%d.json", side, i)), &r); err != nil {
				return err
			}
			sides[side] = append(sides[side], r)
		}
	}
	rows := workloadRows{Pairs: pairs, Parent: totals(sides["parent"]), Change: totals(sides["change"]),
		Metrics: map[string]metricRow{}}
	for _, m := range man.EndToEnd {
		p, c := values(sides["parent"], m.Name), values(sides["change"], m.Name)
		if len(p) != pairs || len(c) != pairs {
			continue // the workload does not report this metric
		}
		row := metricRow{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Parent: spreadOf(p), Change: spreadOf(c)}
		sign := 1.0 // positive gain = better
		if m.Better == "lower" {
			sign = -1
		}
		for i := range p {
			switch gain := sign * (c[i] - p[i]); {
			case gain > 0:
				row.Wins++
			case gain < 0:
				row.Losses++
			default:
				row.Ties++
			}
		}
		gain := sign * (row.Change.Median - row.Parent.Median)
		allowed := m.Bound * math.Abs(row.Parent.Median)
		widest := math.Max(row.Parent.Q3-row.Parent.Q1, row.Change.Q3-row.Change.Q1)
		switch {
		case 10*row.Wins >= 9*pairs && gain > row.Parent.Q3-row.Parent.Q1:
			row.Verdict = "improved"
		case -gain > allowed:
			row.Verdict = "worse"
		case widest > allowed:
			row.Verdict = "unresolved"
		default:
			row.Verdict = "unchanged"
		}
		rows.Metrics[m.Name] = row
	}

	rep := report{Workloads: map[string]workloadRows{}}
	if _, err := os.Stat(out); err == nil {
		if err := readJSON(out, &rep); err != nil {
			return err
		}
	}
	rep.Parent = parent
	rep.Command = "bash bench/run.sh --workload W --seed i --seconds 15 --trace 0, pair i of workload W on both sides"
	rep.Workloads[workload] = rows
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(raw, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func totals(runs []run) sideTotals {
	t := sideTotals{Correct: true}
	for _, r := range runs {
		t.Attempted += r.Attempted
		t.Failed += r.Failed
		t.Correct = t.Correct && r.Correct
	}
	return t
}

func values(runs []run, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spreadOf returns the median and quartiles of vs, interpolating linearly
// between order statistics.
func spreadOf(vs []float64) spread {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		pos := q * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
	}
	return spread{Median: at(0.5), Q1: at(0.25), Q3: at(0.75)}
}
