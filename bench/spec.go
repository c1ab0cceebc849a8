package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the one list of workloads, metrics, units,
// directions and bounds. The program takes its metric names and units from
// it, so the file and the output cannot drift apart.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse; per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory (the checkout
// root, where the driver runs) or its parent (where `go test` runs).
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, dir := range []string{".", ".."} {
		if data, err = os.ReadFile(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// worse is how much worse b is than a on this metric, as a share of a;
// negative when b is better.
func (m metricSpec) worse(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck runs every workload four times in the order A,B,A,B, takes
// the mean of each pair as one set, and fails when a metric of the second
// set is worse than the first, or the first worse than the second, by more
// than its bound: two sets of runs of the same code must agree within the
// benchmark's own bounds.
func runSelfcheck(ctx context.Context, env *runEnv, spec *benchSpec) error {
	disagreements := 0
	for _, w := range workloads {
		var sets [2]map[string]float64
		for i := 0; i < 4; i++ {
			rep, _, err := runOne(ctx, w, env, spec, false)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s: %d of %d ops failed", w.name, rep.Failed, rep.Attempted)
			}
			set := i % 2
			if sets[set] == nil {
				sets[set] = map[string]float64{}
			}
			for name, m := range rep.Metrics {
				sets[set][name] += m.Value / 2
			}
		}
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			diff := max(m.worse(a, b), m.worse(b, a))
			verdict := "ok"
			if diff > m.Bound {
				verdict = "DISAGREE"
				disagreements++
			}
			fmt.Printf("%-12s %-16s A %12.6g  B %12.6g  diff %6.2f%%  bound %5.1f%%  %s\n",
				w.name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("selfcheck: %d metrics disagree between two sets of runs of the same code", disagreements)
	}
	return nil
}
