// Command perfbench is the repository's wall-clock benchmark. It builds a
// fresh in-process feisu.System per workload, drives it from a closed loop
// of client goroutines, checks every answer against a reference, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// replay through each layer's public functions) as one JSON line.
//
//	go run . --workload sessions --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	out      string
	short    bool
	// log receives progress lines and ratio breakdowns (never the result).
	log io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for generated data, query and write streams")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	fs.StringVar(&o.out, "out", ".bench_build", "directory receiving the span dump of a traced run")
	fs.BoolVar(&o.short, "short", false, "smoke-sized data and streams (tests)")
	probe := fs.Bool("probe", false, "print the sessions working sets its budgets are derived from, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.log = stdout
	if *probe {
		if err := probeSessions(context.Background(), o); err != nil {
			fmt.Fprintf(stderr, "perfbench: probe: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	var rep *report
	var err error
	if traceFlag == 1 {
		rep, err = runTraced(w, o)
	} else {
		rep, err = runTimed(w, o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
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
