package milp_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/milp"
	"milpjoin/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the writer goldens in testdata/")

// TestWriterGoldens pins the MPS and LP files of two join encodings byte for
// byte: chain-6 under hash cost, and star-6 with operator selection. Run
// with -update to rewrite them.
func TestWriterGoldens(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape workload.GraphShape
		opts  core.Options
	}{
		{"chain6-hash", workload.Chain, core.Options{Metric: cost.OperatorCost, Op: cost.HashJoin}},
		{"star6-operators", workload.Star, core.Options{Metric: cost.OperatorCost, ChooseOperators: true}},
	} {
		enc, err := core.Encode(workload.Generate(tc.shape, 6, 1, workload.Config{}), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for ext, write := range map[string]func(*milp.Model, *bytes.Buffer) error{
			".mps": func(m *milp.Model, b *bytes.Buffer) error { return m.WriteMPS(b) },
			".lp":  func(m *milp.Model, b *bytes.Buffer) error { return m.WriteLP(b) },
		} {
			var got bytes.Buffer
			if err := write(enc.Model, &got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+ext)
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from the golden (%d bytes, golden %d)", path, got.Len(), len(want))
			}
		}
	}
}
