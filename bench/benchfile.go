package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkFile is what the benchmark reads of BENCHMARK.json, its
// contract: the run length, the workloads, the metrics and each end-to-end
// metric's bound.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// repoRoot finds the checkout's root from the working directory: the
// benchmark is started either there (bench/run.sh) or in bench/ (go run).
func repoRoot() (string, error) {
	for _, root := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err == nil {
			return root, nil
		}
	}
	return "", fmt.Errorf("bench/go.mod not found from the working directory: run from the repository root or from bench/")
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// bounds maps each end-to-end metric to its bound.
func (bf *benchmarkFile) bounds() map[string]float64 {
	out := make(map[string]float64, len(bf.EndToEnd))
	for _, m := range bf.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
