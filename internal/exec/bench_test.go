// Streaming-executor benchmarks: pull-based streaming vs. the
// materializing oracle on 20+ table chain pipelines, left-deep and bushy,
// with and without the adaptive feedback loop. Written as a
// BENCH_pr9.json snapshot (at the repository root) for CI artifacts.
package exec_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"milpjoin/internal/exec"
	"milpjoin/internal/plan"
	"milpjoin/joinorder"
)

// chainBandCard is the per-table cardinality of the benchmark band. Each
// chain predicate's selectivity is 1/chainBandCard, so the per-join
// growth factor is exactly one: every intermediate stays near
// chainBandCard rows, a 20+ table pipeline remains executable, and the
// per-tuple cost dominates setup.
const chainBandCard = 4096

func chainBandQuery(n int) *joinorder.Query {
	q := &joinorder.Query{}
	for i := 0; i < n; i++ {
		q.Tables = append(q.Tables, joinorder.Table{Card: chainBandCard})
	}
	for i := 0; i+1 < n; i++ {
		q.Predicates = append(q.Predicates, joinorder.Predicate{
			Tables: []int{i, i + 1}, Sel: 1.0 / chainBandCard,
		})
	}
	return q
}

func leftDeepChain(n int) *plan.Tree {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return (&plan.Plan{Order: order}).LeftDeep()
}

// balancedBushy joins the chain segment [lo, hi) as a balanced binary
// tree; every split point sits on a chain edge, so no node is a cross
// product.
func balancedBushy(lo, hi int) *plan.Tree {
	if hi-lo == 1 {
		return plan.Leaf(lo)
	}
	mid := (lo + hi) / 2
	return plan.Join(balancedBushy(lo, mid), balancedBushy(mid, hi))
}

// BenchmarkExecStreaming runs the 20+ table band through the streaming
// executor and through the materializing oracle, recording
// tuple throughput for both plus the cost of running the same plan under
// the adaptive feedback loop. Acceptance (guarded here, snapshotted to
// BENCH_pr9.json): streaming throughput is at least materializing
// throughput over the band. The guard aggregates across the band's
// entries because the two executors are near-tied per shape — a
// materializing join builds on the ACTUAL smaller input while a
// streaming join must commit to the estimated-smaller side before any
// row flows, so individual shapes sit within measurement noise and a
// per-entry comparison flips on scheduler jitter.
func BenchmarkExecStreaming(b *testing.B) {
	type run struct {
		Tables        int     `json:"tables"`
		Plan          string  `json:"plan"`
		ResultRows    int     `json:"result_rows"`
		Tuples        float64 `json:"tuples"`
		StreamSec     float64 `json:"stream_sec"`
		StreamRowsSec float64 `json:"stream_rows_per_sec"`
		MatSec        float64 `json:"materialize_sec"`
		MatRowsSec    float64 `json:"materialize_rows_per_sec"`
		Speedup       float64 `json:"stream_over_materialize"`
		FeedbackSec   float64 `json:"feedback_sec"`
		Reopts        int     `json:"reoptimizations"`
	}
	type snapshot struct {
		Band              map[string]run `json:"band"`
		BandStreamRowsSec float64        `json:"band_stream_rows_per_sec"`
		BandMatRowsSec    float64        `json:"band_materialize_rows_per_sec"`
	}

	cases := []struct {
		name string
		n    int
		tree func(n int) *plan.Tree
	}{
		{"Chain20/LeftDeep", 20, leftDeepChain},
		{"Chain20/Bushy", 20, func(n int) *plan.Tree { return balancedBushy(0, n) }},
		{"Chain24/LeftDeep", 24, leftDeepChain},
		{"Chain24/Bushy", 24, func(n int) *plan.Tree { return balancedBushy(0, n) }},
	}

	out := snapshot{Band: map[string]run{}}
	minN := math.MaxInt32
	for _, tc := range cases {
		q := chainBandQuery(tc.n)
		db, err := exec.Synthesize(q, 5)
		if err != nil {
			b.Fatal(err)
		}
		tree := tc.tree(tc.n)
		reopt := func(ctx context.Context, rem *joinorder.Query) (*plan.Tree, error) {
			res, err := joinorder.Optimize(ctx, rem, joinorder.Options{Strategy: "greedy"})
			if err != nil {
				return nil, err
			}
			return res.Tree, nil
		}

		r := run{Tables: tc.n, Plan: tc.name}

		// One reference execution establishes the expected result size and
		// the tuple flow — the full pipeline volume (every intermediate
		// row plus the final result), identical for both executors on the
		// same tree and data.
		ref, err := db.Stream(tree, exec.StreamOptions{EstQuery: q})
		if err != nil {
			b.Fatal(err)
		}
		if r.ResultRows, err = ref.Drain(); err != nil {
			b.Fatal(err)
		}
		r.Tuples = ref.Trace.MeasuredCout() + float64(r.ResultRows)

		// Each mode is its own sub-benchmark: the framework's ramp-up and
		// per-mode timing loop measure the modes independently, which is
		// far more stable than hand-interleaving them in one loop. Each
		// measured mode runs several rounds and keeps the minimum — the
		// least-noise estimator, immune to a GC or page-fault burst landing
		// in one round.
		const rounds = 4
		r.StreamSec = math.Inf(1)
		r.MatSec = math.Inf(1)
		for round := 0; round < rounds; round++ {
			// Start each round from a collected heap so one mode's garbage
			// doesn't bill the other's round.
			runtime.GC()
			b.Run(fmt.Sprintf("%s/Stream/r%d", tc.name, round), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sr, err := db.Stream(tree, exec.StreamOptions{EstQuery: q})
					if err != nil {
						b.Fatal(err)
					}
					rows, err := sr.Drain()
					if err != nil {
						b.Fatal(err)
					}
					if rows != r.ResultRows {
						b.Fatalf("streaming returned %d rows, want %d", rows, r.ResultRows)
					}
				}
				sec := b.Elapsed().Seconds() / float64(b.N)
				if sec < r.StreamSec {
					r.StreamSec = sec
				}
				if b.N < minN {
					minN = b.N
				}
				b.ReportMetric(r.Tuples/sec, "rows/s")
			})
			runtime.GC()
			b.Run(fmt.Sprintf("%s/Materialize/r%d", tc.name, round), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rel, _, err := exec.ExecuteTree(db, tree)
					if err != nil {
						b.Fatal(err)
					}
					if rel.NumRows() != r.ResultRows {
						b.Fatalf("materializing returned %d rows, want %d", rel.NumRows(), r.ResultRows)
					}
				}
				sec := b.Elapsed().Seconds() / float64(b.N)
				if sec < r.MatSec {
					r.MatSec = sec
				}
				if b.N < minN {
					minN = b.N
				}
				b.ReportMetric(r.Tuples/sec, "rows/s")
			})
		}
		b.Run(tc.name+"/Feedback", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ares, err := db.ExecuteAdaptive(context.Background(), tree, exec.AdaptiveOptions{
					EstQuery:        q,
					QErrorThreshold: 2,
					Reoptimize:      reopt,
				})
				if err != nil {
					b.Fatal(err)
				}
				r.Reopts = ares.Reopts
				if ares.Trace.ResultRows != r.ResultRows {
					b.Fatalf("adaptive returned %d rows, want %d", ares.Trace.ResultRows, r.ResultRows)
				}
			}
			r.FeedbackSec = b.Elapsed().Seconds() / float64(b.N)
		})

		r.StreamRowsSec = r.Tuples / r.StreamSec
		r.MatRowsSec = r.Tuples / r.MatSec
		r.Speedup = r.MatSec / r.StreamSec
		out.Band[tc.name] = r
	}

	var tuples, streamSec, matSec float64
	for _, r := range out.Band {
		tuples += r.Tuples
		streamSec += r.StreamSec
		matSec += r.MatSec
	}
	out.BandStreamRowsSec = tuples / streamSec
	out.BandMatRowsSec = tuples / matSec
	// Single-iteration smoke runs (-benchtime=1x) are too noisy to judge;
	// the guard only fires when the framework actually ramped up.
	if minN > 1 && out.BandStreamRowsSec < out.BandMatRowsSec {
		b.Errorf("band streaming throughput %.0f rows/s below materializing %.0f rows/s",
			out.BandStreamRowsSec, out.BandMatRowsSec)
	}

	path := os.Getenv("BENCH_PR9_OUT")
	if path == "" {
		path = filepath.Join("..", "..", "BENCH_pr9.json")
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
}
