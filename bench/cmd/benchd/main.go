// Command benchd is the benchmark's TCP server: the deployment cmd/wiera
// runs (fabric, coord, wiera.Server, one TieraServer per region,
// transport.ListenTCP with the data-method proxy) on the benchmark's
// zero-latency clock, plus the bench.* read-out methods. The runner spawns
// it, reads the announced address from its standard output, and closes its
// standard input to stop it.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/bench"
)

func main() {
	if err := bench.OneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "benchd: %v\n", err)
		os.Exit(1)
	}
	workload := flag.String("workload", "tcp_read_heavy", "workload whose policy and parameters to deploy")
	telemetryOn := flag.Bool("telemetry", true, "run with the fabric's default registry, tracer and flight recorder")
	quick := flag.Bool("quick", false, "shrunken smoke-test sizes")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	flag.Parse()

	spec, ok := bench.SpecByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchd: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *quick {
		spec = spec.Quick()
	}
	if err := bench.RunDaemon(spec, *telemetryOn, *listen, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchd: %v\n", err)
		os.Exit(1)
	}
}
