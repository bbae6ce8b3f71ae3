// Command experiments regenerates the tables and figures of the paper's
// evaluation (Cheng, Gong, Cheung: "Managing Uncertainty of XML Schema
// Matching", ICDE 2010, Section VI) on the synthetic Table II datasets.
//
// Usage:
//
//	experiments -exp all            # every table and figure
//	experiments -exp fig9f          # one experiment
//	experiments -list               # list experiment names
//	experiments -exp fig10e -h 20   # smaller h for a quicker run
package main

import (
	"flag"
	"fmt"
	"os"

	"xmatch/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run (or \"all\")")
		list     = flag.Bool("list", false, "list experiment names and exit")
		m        = flag.Int("m", 100, "number of possible mappings |M|")
		repeats  = flag.Int("repeats", 5, "timing repetitions per data point")
		docNodes = flag.Int("doc", 3473, "source document size in nodes")
		genH     = flag.Int("h", 100, "h for the mapping-generation experiments")
		maxH     = flag.Int("maxh", 1000, "largest h in the fig10f sweep")
		format   = flag.String("format", "text", "output format: text or csv")
		genReps  = flag.Int("genrepeats", 0, "repeats for the generation experiments (0 = same as -repeats)")
	)
	flag.Parse()

	suite := experiments.NewSuite(experiments.Config{
		M: *m, Repeats: *repeats, DocNodes: *docNodes, GenH: *genH, MaxH: *maxH,
		GenRepeats: *genReps,
	})
	if *list {
		for _, n := range suite.Names() {
			fmt.Println(n)
		}
		return
	}
	run := suite.Run
	if *format == "csv" {
		run = suite.RunCSV
	} else if *format != "text" {
		fmt.Fprintf(os.Stderr, "experiments: unknown format %q\n", *format)
		os.Exit(2)
	}
	if err := run(*exp, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
