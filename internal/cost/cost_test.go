package cost

import (
	"math"
	"testing"
)

func TestPages(t *testing.T) {
	p := Params{TupleBytes: 100, PageBytes: 1000}
	if got := p.Pages(25); got != 3 { // 2500 bytes → 3 pages
		t.Errorf("Pages(25) = %g, want 3", got)
	}
	if got := p.Pages(10); got != 1 {
		t.Errorf("Pages(10) = %g, want 1", got)
	}
	if got := p.Pages(0); got != 0 {
		t.Errorf("Pages(0) = %g, want 0", got)
	}
}

func TestHashJoinCost(t *testing.T) {
	p := Params{}.WithDefaults()
	if got := JoinCost(HashJoin, 10, 5, p); got != 45 {
		t.Errorf("hash cost = %g, want 45", got)
	}
}

func TestSortMergeJoinCost(t *testing.T) {
	p := Params{}.WithDefaults()
	// pgo=8: 2*8*3 = 48; pgi=4: 2*4*2 = 16; merge 8+4 = 12 → 76.
	if got := JoinCost(SortMergeJoin, 8, 4, p); got != 76 {
		t.Errorf("smj cost = %g, want 76", got)
	}
	// Single-page inputs need no sorting.
	if got := JoinCost(SortMergeJoin, 1, 1, p); got != 2 {
		t.Errorf("smj cost(1,1) = %g, want 2", got)
	}
}

func TestBlockNestedLoopCost(t *testing.T) {
	p := Params{BufferPages: 10}.WithDefaults()
	// pgo=25 → 3 blocks; cost = 25 + 3*7 = 46.
	if got := JoinCost(BlockNestedLoopJoin, 25, 7, p); got != 46 {
		t.Errorf("bnl cost = %g, want 46", got)
	}
	// Tiny outer still runs one block.
	if got := JoinCost(BlockNestedLoopJoin, 0, 7, p); got != 7 {
		t.Errorf("bnl cost(0,7) = %g, want 7", got)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[float64]float64{0.5: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10}
	for x, want := range cases {
		if got := ceilLog2(x); got != want {
			t.Errorf("ceilLog2(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.TupleBytes != 100 || p.PageBytes != 8192 || p.BufferPages != 64 {
		t.Errorf("defaults = %+v", p)
	}
	d := DefaultSpec()
	if d.Metric != OperatorCost || d.Op != HashJoin {
		t.Errorf("DefaultSpec = %+v", d)
	}
	c := CoutSpec()
	if c.Metric != Cout {
		t.Errorf("CoutSpec = %+v", c)
	}
}

func TestMonotonicityInPages(t *testing.T) {
	p := Params{}.WithDefaults()
	for _, op := range Operators() {
		prev := 0.0
		for pg := 1.0; pg <= 4096; pg *= 2 {
			c := JoinCost(op, pg, 16, p)
			if c < prev {
				t.Errorf("%v cost not monotone in outer pages at %g", op, pg)
			}
			prev = c
		}
	}
}

func TestStrings(t *testing.T) {
	if HashJoin.String() != "hash" || SortMergeJoin.String() != "sort-merge" || BlockNestedLoopJoin.String() != "block-nested-loop" {
		t.Error("operator strings wrong")
	}
	if Cout.String() != "C_out" || OperatorCost.String() != "operator-cost" {
		t.Error("metric strings wrong")
	}
	if math.IsNaN(1) { // keep math import honest
		t.Fatal()
	}
}

func TestUnknownOperatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	JoinCost(Operator(42), 1, 1, Params{}.WithDefaults())
}
