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
