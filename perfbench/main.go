// Command perfbench is the repository's wall-clock benchmark. It drives
// the engine over loopback sockets on one of three workloads, checks
// that every expected action arrived exactly once, and prints one JSON
// line of metrics:
//
//	bash perfbench/run.sh --workload push-fanout --seed 1 --seconds 10 --trace 0
//
// The benchmark process holds the open-loop load generator, the partner
// trigger services and the action sink; the engine runs in a child
// process (sut.go). --trace 0 prints the end-to-end metrics, --trace 1
// runs an untraced and a traced pass and prints the per-layer metrics
// (layers.go, README.md). A correctness failure exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
)

func main() {
	if os.Getenv(roleEnv) == "sut" {
		os.Exit(sutMain(os.Args[1:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opts options
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload name: push-fanout, poll-steady or push-durable")
	fs.Uint64Var(&opts.seed, "seed", 1, "seed for the applet population and the event schedule")
	fs.IntVar(&opts.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opts.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds ≥ 1 and --trace 0 or 1")
		return 2
	}
	opts.scale = 1
	opts.workdir = filepath.Join(".bench_build", "runs")
	opts.trace = trace == 1
	// The harness allocates per action; collect rarely so its GC steals
	// less CPU from the engine it measures. Its live heap stays small.
	debug.SetGCPercent(400)
	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
