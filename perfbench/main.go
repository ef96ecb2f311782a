// Command perfbench is GLARE's benchmark: it stands up an in-process GLARE
// grid talking over real loopback HTTP, drives one named workload through
// the public wire operations and client entry points, checks every answer
// against an oracle, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics) as one JSON object on the last line of standard
// output.
//
//	go run . -workload resolve-cached -seed 1 -seconds 10 -trace 0
//	go run . -summary results/*.out
//
// Run it through run.sh from the repository root; that script builds the
// binary inside the checkout. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: drives request order, list sizes and site rotation")
	seconds := fs.Float64("seconds", 10, "length of the measurement window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	summary := fs.Bool("summary", false, "summarize result files named as arguments instead of running")
	spans := fs.String("spans", "", "directory receiving the traced run's spans (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summary {
		if err := summarize(os.Stdout, fs.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if _, ok := workloads[*wname]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *wname, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	rc := runConfig{workload: *wname, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, spansDir: *spans}
	res, err := execute(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	header, err := json.Marshal(map[string]any{"machine": machineHeader(rc, res.notes["fsync"]), "notes": res.notes})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(header))
	line, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
