// Command wierabench regenerates every table and figure of the paper's
// evaluation (Sec 5) against the simulated multi-cloud substrate and prints
// the same rows and series the paper reports, side by side with the
// paper's numbers.
//
// Usage:
//
//	wierabench [-exp all|fig7|sloswitch|fig8|table3|fig9|table4|sec53|fig10|fig11|fig12|convergence|scaleout|batchflush|eccost|elastic|tenancy] [-full] [-seed N]
//
// By default experiments run in quick mode (seconds each); -full uses the
// paper-scale durations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// experiment couples a name with its runner.
type experiment struct {
	name string
	run  func(experiments.Options) (renderable, error)
}

// renderable is what every harness result provides.
type renderable interface {
	Render() string
	ShapeHolds() error
}

func main() {
	expFlag := flag.String("exp", "all", "experiment to run: all, fig7, sloswitch, fig8, table3, fig9, table4, sec53, fig10, fig11, fig12, convergence, scaleout, batchflush, eccost, elastic, tenancy, ablation-consistency, ablation-queue, ablation-blocksize")
	full := flag.Bool("full", false, "run at paper-scale durations instead of quick mode")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	opts := experiments.Options{Quick: !*full, Seed: *seed}
	all := []experiment{
		{"fig7", func(o experiments.Options) (renderable, error) { return experiments.Fig7(o) }},
		{"sloswitch", func(o experiments.Options) (renderable, error) { return experiments.SLOSwitch(o) }},
		{"fig8", func(o experiments.Options) (renderable, error) { return experiments.Fig8Table3(o) }},
		{"fig9", func(o experiments.Options) (renderable, error) { return experiments.Fig9(o) }},
		{"table4", func(o experiments.Options) (renderable, error) { return experiments.Table4() }},
		{"sec53", func(o experiments.Options) (renderable, error) { return experiments.Sec53ColdData(o) }},
		{"fig10", func(o experiments.Options) (renderable, error) { return experiments.Fig10(o) }},
		{"fig11", func(o experiments.Options) (renderable, error) { return experiments.Fig11(o) }},
		{"fig12", func(o experiments.Options) (renderable, error) { return experiments.Fig12(o) }},
		{"convergence", func(o experiments.Options) (renderable, error) { return experiments.Convergence(o) }},
		{"scaleout", func(o experiments.Options) (renderable, error) { return experiments.Scaleout(o) }},
		{"batchflush", func(o experiments.Options) (renderable, error) { return experiments.BatchFlush(o) }},
		{"eccost", func(o experiments.Options) (renderable, error) { return experiments.ECCost(o) }},
		{"elastic", func(o experiments.Options) (renderable, error) { return experiments.Elastic(o) }},
		{"tenancy", func(o experiments.Options) (renderable, error) { return experiments.Tenancy(o) }},
		{"ablation-consistency", func(o experiments.Options) (renderable, error) { return experiments.AblationConsistency(o) }},
		{"ablation-queue", func(o experiments.Options) (renderable, error) { return experiments.AblationQueue(o) }},
		{"ablation-blocksize", func(o experiments.Options) (renderable, error) { return experiments.AblationBlockSize(o) }},
	}

	want := strings.ToLower(*expFlag)
	if want == "table3" {
		want = "fig8" // Table 3 comes from the Fig 8 harness
	}
	ran := 0
	failed := 0
	for _, e := range all {
		if want != "all" && want != e.name {
			continue
		}
		ran++
		fmt.Printf("=== %s ===\n", e.name)
		start := time.Now()
		res, err := e.run(opts)
		if err != nil {
			fmt.Printf("ERROR: %v\n\n", err)
			failed++
			continue
		}
		fmt.Println(res.Render())
		if err := res.ShapeHolds(); err != nil {
			fmt.Printf("SHAPE CHECK FAILED: %v\n", err)
			failed++
		} else {
			fmt.Printf("shape check: OK (%.1fs)\n", time.Since(start).Seconds())
		}
		fmt.Println()
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "wierabench: unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
