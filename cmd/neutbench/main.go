// Command neutbench regenerates every number, table and figure-level
// claim from the paper's evaluation (§4) plus the behavioural claims of
// Figures 1-2 and the §3 design discussions. Each experiment prints
// paper-vs-measured rows.
//
// Usage:
//
//	neutbench            # run everything
//	neutbench -exp E3    # run one experiment
//	neutbench -list      # list experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"netneutral/internal/eval"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("neutbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment id to run (default: all)")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range eval.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}
	run := eval.All()
	if *exp != "" {
		e, ok := eval.ByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "neutbench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		run = []eval.Experiment{e}
	}
	failed := 0
	for _, e := range run {
		res, err := e.Run()
		if err != nil {
			fmt.Fprintf(stderr, "neutbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Fprintln(stdout, res.String())
	}
	if failed > 0 {
		return 1
	}
	return 0
}
