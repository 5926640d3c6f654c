// Command tracegen materializes one of the synthetic workloads into a trace
// file in DiskSim ASCII or SPC-1 CSV format, so other simulators (or
// dloopsim -tracefile) can replay exactly the same request stream.
//
// Usage:
//
//	tracegen -trace Financial1 -n 1000000 -format spc -o financial1.spc
package main

import (
	"flag"
	"fmt"
	"os"

	"dloop"
	"dloop/internal/trace"
	"dloop/internal/workload"
)

func main() {
	var (
		traceName = flag.String("trace", "Financial1", "workload: Financial1|Financial2|TPC-C|Exchange|Build")
		n         = flag.Int("n", 100_000, "number of requests")
		seed      = flag.Int64("seed", 42, "generator seed")
		format    = flag.String("format", "disksim", "output format: disksim|spc")
		out       = flag.String("o", "-", "output file (- for stdout)")
		scale     = flag.Float64("scale", 1.0, "footprint scale factor (0,1]")
	)
	flag.Parse()

	p, ok := dloop.WorkloadByName(*traceName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracegen: unknown trace %q\n", *traceName)
		os.Exit(1)
	}
	if *scale < 1 {
		p = p.ScaleFootprint(*scale)
	}
	g, err := workload.NewGenerator(p, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "-" {
		if w, err = os.Create(*out); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
	}
	st, err := trace.WriteAll(w, *format, workload.NewLimitReader(g, *n))
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d requests (%s)\n", st.Requests(), st)
}
