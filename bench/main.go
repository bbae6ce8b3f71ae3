// Command bench is the repository's benchmark: it drives the real
// internal/server handler in-process from one closed-loop caller, checks
// every response against sequential internal/core, and reports
// speed-corrected end-to-end metrics (or, with -trace 1, per-layer
// metrics). See README.md in this directory.
//
//	bash bench/run.sh --workload t3_topk --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: t3_compact, t3_topk, corpus_point or corpus_rw")
	seed := fs.Int64("seed", 1, "seed of the generated inputs: document values, request order, edits")
	seconds := fs.Float64("seconds", refSeconds, "length of the measurement at nominal machine speed; scales the op count of a round")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny op counts, for tests: outputs are checked, timings mean nothing")
	out := fs.String("out", "", "append the run's result document to this file as one JSON line (a result set for -compare)")
	calibrate := fs.Bool("calibrate", false, "fit the workload's reference mix over a long run (see calibrate.go) instead of measuring")
	compare := fs.Bool("compare", false, "compare two result sets (the two file arguments) under the bounds of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result-set files"))
		}
		return compareSets(bf, fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	spec, ok := findWorkload(*workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}
	if err := os.Chdir(root); err != nil {
		return fail(err)
	}
	cfg := runConfig{spec: spec, seed: *seed, seconds: *seconds, smoke: *smoke}
	if cfg.smoke {
		cfg.seconds = smokeSeconds
	}
	if *calibrate {
		if err := runCalibration(cfg, os.Stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	return execute(cfg, *trace != 0, bf, *out, os.Stdout, os.Stderr)
}

// execute runs one workload and reports it: the table on stderr, the
// driver's line last on stdout. It returns the exit code, which is not 0
// when any op failed.
func execute(cfg runConfig, trace bool, bf *benchmarkFile, set string, stdout, stderr io.Writer) int {
	var res *result
	var err error
	if trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg, bf.bounds())
	}
	if err != nil {
		return fail(err)
	}
	if err := writeResult(res, set); err != nil {
		return fail(err)
	}
	printTable(stderr, res)
	if err := printContractLine(stdout, res); err != nil {
		return fail(err)
	}
	if res.Failed > 0 {
		fmt.Fprintf(stderr, "bench: %d of %d ops failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// contractLine is the last line of standard output, the form the
// benchmark's driver reads.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContractLine(w io.Writer, res *result) error {
	line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]contractMetric, len(res.Metrics))}
	for name, m := range res.Metrics {
		line.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// writeResult stores the full result document under bench/out and, when
// asked, appends it to a result set.
func writeResult(res *result, set string) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	name := "last-" + res.Workload + ".json"
	if res.Trace {
		name = "last-" + res.Workload + "-trace.json"
	}
	if err := os.WriteFile(filepath.Join(outDir(), name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if set == "" {
		return nil
	}
	f, err := os.OpenFile(set, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints every metric by name with its unit, the corrected
// value beside the raw one and its spread across rounds.
func printTable(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s seed %d: %d rounds x %d ops, machine speed %.3f (reference %.0f/s nominal), %s GOMAXPROCS=%d nproc=%d\n",
		res.Workload, res.Seed, res.Rounds, res.OpsPerRound, res.MachineSpeed, res.RefNominalPerS, res.Env.GoVersion, res.Env.GOMAXPROCS, res.Env.NumCPU)
	fmt.Fprintf(w, "%-36s %14s %-6s %14s %8s %s\n", "metric", "value", "unit", "raw median", "spread%", "")
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		flag := ""
		if m.Noisy {
			flag = "noisy"
		}
		fmt.Fprintf(w, "%-36s %14.4f %-6s %14.4f %8.2f %s\n", name, m.Value, m.Unit, m.RawMedian, m.SpreadPct, flag)
	}
	for _, name := range sortedKeys(res.Diagnostics) {
		fmt.Fprintf(w, "%-36s %14.4f (diagnostic)\n", name, res.Diagnostics[name])
	}
	for _, name := range sortedKeys(res.Shares) {
		fmt.Fprintf(w, "share %-30s %13.1f%%\n", name, res.Shares[name])
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d (%.4f%%)\n", res.Attempted, res.Failed, res.FailedOpsPct)
}
