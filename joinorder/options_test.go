package joinorder_test

import (
	"errors"
	"testing"
	"time"

	"milpjoin/joinorder"
)

func TestOptionsValidate(t *testing.T) {
	validBudget := joinorder.Budget{TimeLimit: time.Second, GapTol: 1e-3, MaxNodes: 100, Threads: 2}
	cases := []struct {
		name    string
		mutate  func(*joinorder.Options)
		wantErr bool
	}{
		{"zero value", func(o *joinorder.Options) {}, false},
		// One bad budget field among valid ones is still rejected.
		{"negative time limit", func(o *joinorder.Options) { o.Budget = validBudget; o.Budget.TimeLimit = -time.Second }, true},
		{"negative threads", func(o *joinorder.Options) { o.Budget = validBudget; o.Budget.Threads = -1 }, true},
		{"negative gap tol", func(o *joinorder.Options) { o.Budget = validBudget; o.Budget.GapTol = -1e-6 }, true},
		{"negative max nodes", func(o *joinorder.Options) { o.Budget = validBudget; o.Budget.MaxNodes = -1 }, true},
		{"positive max nodes", func(o *joinorder.Options) { o.Budget.MaxNodes = 1000 }, false},
		{"zero card cap (default)", func(o *joinorder.Options) { o.CardCap = 0 }, false},
		{"sub-one card cap", func(o *joinorder.Options) { o.CardCap = 0.5 }, true},
		{"negative card cap", func(o *joinorder.Options) { o.CardCap = -1e12 }, true},
		{"valid card cap", func(o *joinorder.Options) { o.CardCap = 1e9 }, false},
		{"negative budget time limit", func(o *joinorder.Options) { o.Budget.TimeLimit = -time.Second }, true},
		{"negative budget gap tol", func(o *joinorder.Options) { o.Budget.GapTol = -1e-6 }, true},
		{"negative budget max nodes", func(o *joinorder.Options) { o.Budget.MaxNodes = -1 }, true},
		{"negative budget threads", func(o *joinorder.Options) { o.Budget.Threads = -1 }, true},
		{"budget set", func(o *joinorder.Options) { o.Budget = validBudget }, false},
		{"partition cap one", func(o *joinorder.Options) { o.PartitionCap = 1 }, true},
		{"negative partition cap", func(o *joinorder.Options) { o.PartitionCap = -3 }, true},
		{"valid partition cap", func(o *joinorder.Options) { o.PartitionCap = 12 }, false},
		{"seam frac one", func(o *joinorder.Options) { o.SeamBudgetFrac = 1 }, true},
		{"negative seam frac", func(o *joinorder.Options) { o.SeamBudgetFrac = -0.1 }, true},
		{"valid seam frac", func(o *joinorder.Options) { o.SeamBudgetFrac = 0.4 }, false},
		{"unknown metric", func(o *joinorder.Options) { o.Metric = 99 }, true},
		{"unknown operator", func(o *joinorder.Options) { o.Op = 99 }, true},
		{"interesting orders without operators", func(o *joinorder.Options) { o.InterestingOrders = true }, true},
		{"interesting orders with operators", func(o *joinorder.Options) {
			o.InterestingOrders = true
			o.ChooseOperators = true
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var opts joinorder.Options
			tc.mutate(&opts)
			err := opts.Validate()
			if tc.wantErr {
				if err == nil {
					t.Fatal("Validate() = nil, want error")
				}
				if !errors.Is(err, joinorder.ErrInvalidOptions) {
					t.Fatalf("Validate() = %v, want ErrInvalidOptions", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
		})
	}
}

// TestCostModel holds the one table of cost-model names that the joinopt
// flags and the server's request fields share.
func TestCostModel(t *testing.T) {
	cases := []struct {
		precision, metric string
		want              joinorder.Options
		wantErr           bool
	}{
		{"", "", joinorder.Options{Precision: joinorder.PrecisionMedium, Metric: joinorder.OperatorCost, Op: joinorder.HashJoin}, false},
		{"high", "cout", joinorder.Options{Precision: joinorder.PrecisionHigh, Metric: joinorder.Cout, Op: joinorder.HashJoin}, false},
		{"medium", "hash", joinorder.Options{Precision: joinorder.PrecisionMedium, Metric: joinorder.OperatorCost, Op: joinorder.HashJoin}, false},
		{"low", "smj", joinorder.Options{Precision: joinorder.PrecisionLow, Metric: joinorder.OperatorCost, Op: joinorder.SortMergeJoin}, false},
		{"high", "bnl", joinorder.Options{Precision: joinorder.PrecisionHigh, Metric: joinorder.OperatorCost, Op: joinorder.BlockNestedLoopJoin, CardCap: 1e8}, false},
		{"low", "choose", joinorder.Options{Precision: joinorder.PrecisionLow, Metric: joinorder.OperatorCost, Op: joinorder.HashJoin, ChooseOperators: true, CardCap: 1e8}, false},
		{"ultra", "hash", joinorder.Options{}, true},
		{"high", "quantum", joinorder.Options{}, true},
	}
	for _, tc := range cases {
		got, err := joinorder.CostModel(tc.precision, tc.metric)
		if tc.wantErr {
			if !errors.Is(err, joinorder.ErrInvalidOptions) {
				t.Errorf("CostModel(%q, %q) = %v, want ErrInvalidOptions", tc.precision, tc.metric, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("CostModel(%q, %q): %v", tc.precision, tc.metric, err)
			continue
		}
		if got.Precision != tc.want.Precision || got.Metric != tc.want.Metric || got.Op != tc.want.Op ||
			got.ChooseOperators != tc.want.ChooseOperators || got.CardCap != tc.want.CardCap {
			t.Errorf("CostModel(%q, %q) = %+v, want %+v", tc.precision, tc.metric, got, tc.want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("CostModel(%q, %q) does not validate: %v", tc.precision, tc.metric, err)
		}
	}
}

func TestOptimizeRejectsInvalidOptions(t *testing.T) {
	q := smallQuery()
	for _, opts := range []joinorder.Options{
		{Budget: joinorder.Budget{MaxNodes: -5}},
		{CardCap: 0.1},
	} {
		if _, err := joinorder.Optimize(nil, q, opts); !errors.Is(err, joinorder.ErrInvalidOptions) {
			t.Errorf("Optimize(%+v) = %v, want ErrInvalidOptions", opts, err)
		}
	}
}
