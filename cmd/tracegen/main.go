// Command tracegen dumps the reference stream of a synthetic benchmark
// model as CSV (address, write flag, instruction gap) — useful for
// inspecting the workload models or feeding other simulators.
//
// Usage:
//
//	tracegen -bench 433 -n 1000            # 1000 refs of the milc model
//	tracegen -bench 456 -n 500 -scale 1    # at the paper's absolute sizes
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ascc"
	"ascc/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run parses args and writes the trace to stdout or -o; main stays a thin
// exit-code wrapper so tests can pin the output.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		bench  = fs.Int("bench", 433, "SPEC benchmark number (Table 3)")
		n      = fs.Uint64("n", 1000, "references to emit")
		seed   = fs.Uint64("seed", 1, "random seed")
		scale  = fs.Int("scale", 8, "geometry scale divisor")
		base   = fs.Uint64("base", 0, "base address offset (give each core's trace a disjoint region, e.g. 1<<36)")
		format = fs.String("format", "csv", "output format: csv or bin (the compact binary trace format)")
		out    = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, err := ascc.BenchmarkByID(*bench)
	if err != nil {
		return err
	}
	gen := p.NewGenerator(*seed, *base, *scale)

	dst := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}

	var tw interface {
		Write(trace.Ref) error
		Flush() error
	}
	switch *format {
	case "bin":
		tw = trace.NewWriter(dst)
	case "csv":
		// A comment line naming the model precedes the CSV column header.
		if _, err := fmt.Fprintf(dst, "# %s (%d): %s, %.0f refs/kinstr\n", p.Name, p.ID, p.Category, p.RefsPerKInstr); err != nil {
			return err
		}
		tw = trace.NewCSVWriter(dst)
	default:
		return fmt.Errorf("unknown format %q (want csv or bin)", *format)
	}
	for i := uint64(0); i < *n; i++ {
		if err := tw.Write(gen.Next()); err != nil {
			return err
		}
	}
	return tw.Flush()
}
