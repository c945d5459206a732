// Command costcalc prints the storage-cost analysis of the paper's §7
// (Table 5) for a configurable cache geometry: the baseline tag/data store
// and the overhead of ASCC, AVGCC (optionally counter-limited), the
// QoS-aware variant and DSR.
//
// Usage:
//
//	costcalc                       # the paper's 1MB/8-way/32B, 42-bit geometry
//	costcalc -size 4194304 -ways 16
//	costcalc -maxcounters 128      # the §7 limited-counter AVGCC
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ascc/internal/cost"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "costcalc:", err)
		os.Exit(1)
	}
}

// run parses args and writes the analysis to stdout; main stays a thin
// exit-code wrapper so tests can pin the output.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("costcalc", flag.ContinueOnError)
	var (
		size        = fs.Int("size", 1<<20, "cache size in bytes")
		ways        = fs.Int("ways", 8, "associativity")
		line        = fs.Int("line", 32, "line size in bytes")
		addr        = fs.Int("addr", 42, "physical address bits")
		maxCounters = fs.Int("maxcounters", 0, "limit AVGCC counters (0 = one per set)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g := cost.CacheGeometry{SizeBytes: *size, Ways: *ways, LineBytes: *line, AddressBits: *addr}
	if g.Sets() <= 0 || g.Sets()&(g.Sets()-1) != 0 {
		return fmt.Errorf("geometry yields %d sets (need a power of two)", g.Sets())
	}

	fmt.Fprintf(stdout, "baseline: %d sets, %d lines, %d-bit tag entries, %.0f kB tags + %d kB data = %.0f kB\n\n",
		g.Sets(), g.Lines(), g.TagEntryBits(),
		float64(g.TagStoreBits())/8/1024, g.SizeBytes/1024,
		float64(g.BaselineTotalBits())/8/1024)

	for _, d := range cost.Designs(g, *maxCounters) {
		fmt.Fprintf(stdout, "--- %s ---\n%s\n", d.Name, d.Report)
	}
	return nil
}
