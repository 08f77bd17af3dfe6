// Command bench runs the repository's benchmark.
//
//	bench [-seed 1] [-seconds 10] [-quick] [-out bench/results]
//	    every workload untraced (end-to-end metrics), then every workload's
//	    traced ladder (per-layer metrics); prints every metric by name with
//	    its unit and writes <out>/<workload>.json and <out>/trace_<workload>.json
//	bench -workload W -seed n -seconds s -trace 0|1
//	    one run; the last line of standard output is the result as one JSON
//	    object (the BENCHMARK.json contract)
//	bench compare A B
//	    compare two result directories under the bounds in BENCHMARK.json
//
// It exits non-zero when an operation failed, a value failed verification,
// an acknowledged write was lost or replicas diverged.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/bench"
)

func main() {
	if err := bench.OneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run only this workload (default: all, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 5, "size of the run: each workload issues OpsPerSecond*seconds operations")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = the traced ladder's per-layer metrics")
	quick := flag.Bool("quick", false, "shrink every op count so all workloads and ladders finish in seconds")
	out := flag.String("out", filepath.Join("bench", "results"), "directory for result files")
	daemon := flag.String("benchd", "", "benchd binary (default: next to this binary)")
	load := flag.Float64("loadavg", 0, "load average at the start of the enclosing full run (set by bench itself)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *quick, *out, *daemon))
	}
	spec, ok := bench.SpecByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	opt := bench.Options{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Quick: *quick, OutDir: *out,
		StartLoad: *load}
	if spec.TCP {
		// Built before any timer starts.
		path, err := daemonPath(*daemon)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		opt.DaemonPath = path
	}
	res, err := bench.Run(spec, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.Name, err)
		os.Exit(1)
	}
	if err := res.Write(*out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	res.Print(os.Stdout)
	fmt.Println(res.DriverLine())
	if !res.Valid {
		os.Exit(1)
	}
}

// runAll runs every workload untraced and then traced, each in a process
// of its own so peak RSS, CPU and allocation counts belong to one workload.
func runAll(seed int64, seconds float64, quick bool, out, daemon string) int {
	self, err := os.Executable()
	if err == nil {
		daemon, err = daemonPath(daemon)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	load := bench.ReadLoadAvg()
	status := 0
	for _, trace := range []string{"0", "1"} {
		for _, spec := range bench.Specs {
			cmd := exec.Command(self, "-workload", spec.Name, "-trace", trace,
				"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-quick="+strconv.FormatBool(quick), "-out", out, "-benchd", daemon,
				"-loadavg", strconv.FormatFloat(load, 'g', -1, 64))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %s): %v\n", spec.Name, trace, err)
				status = 1
			}
		}
	}
	return status
}

// daemonPath finds benchd: the flag, or the binary bench/run.sh built
// beside this one.
func daemonPath(flagValue string) (string, error) {
	if flagValue != "" {
		return flagValue, nil
	}
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	beside := filepath.Join(filepath.Dir(self), "benchd")
	if _, err := os.Stat(beside); err != nil {
		return "", fmt.Errorf("no benchd beside %s (bench/run.sh builds both): %w", self, err)
	}
	return beside, nil
}

func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A B   (two result directories)")
		return 2
	}
	man, err := bench.LoadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 1
	}
	regressed, unresolved, err := bench.Compare(os.Stdout, man, args[0], args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 1
	}
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 || unresolved > 0 {
		return 1
	}
	return 0
}
