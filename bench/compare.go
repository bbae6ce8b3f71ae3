package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// A result set is a file of result documents, one JSON object per line, as
// -out appends them. compareSets applies the bounds of BENCHMARK.json to
// two of them.

func loadSet(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// values collects one metric's reported values over the untraced runs of
// one workload.
func values(set []result, workload, metric string) []float64 {
	var out []float64
	for _, r := range set {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// comparison is one row of the table: a metric on a workload in two sets.
type comparison struct {
	metric, unit     string
	na, nb           int
	a, b             float64 // medians
	spreadA, spreadB float64 // quartile distance, % of the median
	worsePct         float64 // how much worse b is than a, % (negative: better)
	boundPct         float64
	verdict          string
}

// compareMetric judges one metric: the sets disagree when either median is
// worse than the other by more than the bound, and the comparison is
// unresolved when a set's own spread is wider than the bound.
func compareMetric(m metricDecl, a, b []float64) comparison {
	c := comparison{metric: m.Name, unit: m.Unit, na: len(a), nb: len(b), boundPct: 100 * m.Bound}
	c.a, c.b = median(a), median(b)
	if len(a) > 1 {
		c.spreadA = spreadPct(a)
	}
	if len(b) > 1 {
		c.spreadB = spreadPct(b)
	}
	if c.a != 0 {
		c.worsePct = 100 * (c.b - c.a) / c.a
		if m.Better == "higher" {
			c.worsePct = -c.worsePct
		}
	}
	switch {
	case c.worsePct > c.boundPct:
		c.verdict = "WORSE"
	case c.worsePct < -c.boundPct:
		c.verdict = "BETTER"
	case c.spreadA > c.boundPct || c.spreadB > c.boundPct:
		c.verdict = "unresolved"
	default:
		c.verdict = "agree"
	}
	return c
}

// compareSets prints the two-set table as markdown and returns the exit
// code: 0 when every end-to-end metric of every workload agrees within its
// bound, 1 otherwise. A set that moved past the bound in the better
// direction disagrees too: on one commit it means the benchmark does not
// repeat, and between commits it is a claim the rules of the
// choosing-metrics guide have to carry, not this exit code.
func compareSets(bf *benchmarkFile, pathA, pathB string, w io.Writer) int {
	a, err := loadSet(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := loadSet(pathB)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "| workload | metric | unit | A median (n) | A spread | B median (n) | B spread | B worse by | bound | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
	code := 0
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "| %s | %s | %s | missing (%d) | | missing (%d) | | | | MISSING |\n", wl.Name, m.Name, m.Unit, len(va), len(vb))
				code = 1
				continue
			}
			c := compareMetric(m, va, vb)
			fmt.Fprintf(w, "| %s | %s | %s | %.4f (%d) | %.2f%% | %.4f (%d) | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				wl.Name, c.metric, c.unit, c.a, c.na, c.spreadA, c.b, c.nb, c.spreadB, c.worsePct, c.boundPct, c.verdict)
			if c.verdict != "agree" {
				code = 1
			}
		}
	}
	for _, set := range [][]result{a, b} {
		for _, r := range set {
			if r.Failed > 0 {
				fmt.Fprintf(w, "\n%s seed %d: %d of %d ops failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	return code
}
