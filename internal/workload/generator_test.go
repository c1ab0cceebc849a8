package workload

import (
	"math"
	"testing"
)

func TestShapesEdgeCounts(t *testing.T) {
	for _, tc := range []struct {
		shape GraphShape
		n     int
		want  int
	}{
		{Chain, 5, 4},
		{Cycle, 5, 5},
		{Star, 5, 4},
		{Clique, 5, 10},
		{Chain, 2, 1},
		{Cycle, 2, 2}, // degenerate cycle: two parallel predicates
		{Star, 2, 1},
		{Snowflake, 10, 9}, // a tree: always n-1 edges
		{Snowflake, 120, 119},
		{Snowflake, 2, 1},
		{Transitive, 5, 7}, // chain (n-1) + shortcuts (n-2)
		{Transitive, 2, 1},
	} {
		q := Generate(tc.shape, tc.n, 1, Config{})
		if got := len(q.Predicates); got != tc.want {
			t.Errorf("%v n=%d: %d predicates, want %d", tc.shape, tc.n, got, tc.want)
		}
		if err := q.Validate(); err != nil {
			t.Errorf("%v n=%d: invalid query: %v", tc.shape, tc.n, err)
		}
	}
}

func TestChainStructure(t *testing.T) {
	q := Generate(Chain, 6, 3, Config{})
	for i, p := range q.Predicates {
		if p.Tables[0] != i || p.Tables[1] != i+1 {
			t.Errorf("chain predicate %d connects %v", i, p.Tables)
		}
	}
}

func TestStarStructure(t *testing.T) {
	q := Generate(Star, 6, 3, Config{})
	for i, p := range q.Predicates {
		if p.Tables[0] != 0 {
			t.Errorf("star predicate %d does not touch hub: %v", i, p.Tables)
		}
		if p.Tables[1] != i+1 {
			t.Errorf("star predicate %d connects %v", i, p.Tables)
		}
	}
}

func TestCycleClosesLoop(t *testing.T) {
	q := Generate(Cycle, 6, 3, Config{})
	last := q.Predicates[len(q.Predicates)-1]
	if last.Tables[0] != 5 || last.Tables[1] != 0 {
		t.Errorf("cycle closing edge = %v", last.Tables)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Star, 8, 42, Config{})
	b := Generate(Star, 8, 42, Config{})
	for i := range a.Tables {
		if a.Tables[i].Card != b.Tables[i].Card {
			t.Fatalf("table %d cardinality differs across runs with same seed", i)
		}
	}
	for i := range a.Predicates {
		if a.Predicates[i].Sel != b.Predicates[i].Sel {
			t.Fatalf("predicate %d selectivity differs across runs with same seed", i)
		}
	}
	c := Generate(Star, 8, 43, Config{})
	same := true
	for i := range a.Tables {
		if a.Tables[i].Card != c.Tables[i].Card {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical cardinalities")
	}
}

func TestConfigBoundsRespected(t *testing.T) {
	cfg := Config{MinLogCard: 2, MaxLogCard: 3, MinSel: 0.5, MaxSel: 0.9}
	for seed := int64(0); seed < 20; seed++ {
		q := Generate(Chain, 10, seed, cfg)
		for _, tb := range q.Tables {
			if tb.Card < 99 || tb.Card > 1001 {
				t.Fatalf("cardinality %g outside [100, 1000]", tb.Card)
			}
		}
		for _, p := range q.Predicates {
			if p.Sel < 0.5 || p.Sel > 0.9 {
				t.Fatalf("selectivity %g outside [0.5, 0.9]", p.Sel)
			}
		}
	}
}

func TestDefaultsProducePaperLikeRanges(t *testing.T) {
	q := Generate(Chain, 30, 7, Config{})
	minC, maxC := math.Inf(1), math.Inf(-1)
	for _, tb := range q.Tables {
		minC = math.Min(minC, tb.Card)
		maxC = math.Max(maxC, tb.Card)
	}
	if minC < 10 || maxC > 100000 {
		t.Errorf("cardinalities [%g, %g] outside default [10, 100000]", minC, maxC)
	}
}

func TestGeneratePanicsOnTinyQuery(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n < 2")
		}
	}()
	Generate(Chain, 1, 0, Config{})
}

func TestShapeStrings(t *testing.T) {
	if Chain.String() != "chain" || Cycle.String() != "cycle" || Star.String() != "star" || Clique.String() != "clique" {
		t.Error("shape strings wrong")
	}
	if Snowflake.String() != "snowflake" || Transitive.String() != "transitive" {
		t.Error("large-graph shape strings wrong")
	}
	if len(Shapes()) != 3 {
		t.Error("Shapes() should list the paper's three structures")
	}
}

// TestSnowflakeStructure: table 0 is the hub with the largest role — its
// cardinality sits in the top decade — every non-hub table has exactly one
// parent, and branch depth stays at most 3.
func TestSnowflakeStructure(t *testing.T) {
	for _, n := range []int{10, 100, 150, 200} {
		q := Generate(Snowflake, n, 5, Config{})
		if q.Tables[0].Card < 1e4 {
			t.Errorf("n=%d: hub cardinality %g below the top decade", n, q.Tables[0].Card)
		}
		parent := make([]int, n)
		for i := range parent {
			parent[i] = -1
		}
		for _, p := range q.Predicates {
			a, b := p.Tables[0], p.Tables[1]
			if a >= b {
				t.Fatalf("n=%d: predicate %v not parent->child ordered", n, p.Tables)
			}
			if parent[b] != -1 {
				t.Fatalf("n=%d: table %d has two parents", n, b)
			}
			parent[b] = a
		}
		for i := 1; i < n; i++ {
			depth := 0
			for v := i; v != 0; v = parent[v] {
				if parent[v] == -1 {
					t.Fatalf("n=%d: table %d not connected to the hub", n, i)
				}
				depth++
			}
			if depth > 3 {
				t.Errorf("n=%d: table %d at branch depth %d, want <= 3", n, i, depth)
			}
		}
	}
}

// TestTransitiveStructure: the chain backbone plus every (i, i+2)
// shortcut, giving the densely-overlapping predicate pattern.
func TestTransitiveStructure(t *testing.T) {
	n := 12
	q := Generate(Transitive, n, 5, Config{})
	edges := map[[2]int]bool{}
	for _, p := range q.Predicates {
		edges[[2]int{p.Tables[0], p.Tables[1]}] = true
	}
	for i := 0; i+1 < n; i++ {
		if !edges[[2]int{i, i + 1}] {
			t.Errorf("missing chain edge (%d,%d)", i, i+1)
		}
	}
	for i := 0; i+2 < n; i++ {
		if !edges[[2]int{i, i + 2}] {
			t.Errorf("missing shortcut edge (%d,%d)", i, i+2)
		}
	}
}

// TestShapesConnectedProperty: every generated join graph is connected —
// required for plans without cross products to exist at all.
func TestShapesConnectedProperty(t *testing.T) {
	for _, shape := range []GraphShape{Chain, Cycle, Star, Clique, Snowflake, Transitive} {
		for seed := int64(0); seed < 10; seed++ {
			n := 2 + int(seed)%12
			q := Generate(shape, n, seed, Config{})
			adj := make([][]int, n)
			for _, p := range q.Predicates {
				if p.IsBinary() {
					a, b := p.Tables[0], p.Tables[1]
					adj[a] = append(adj[a], b)
					adj[b] = append(adj[b], a)
				}
			}
			seen := make([]bool, n)
			stack := []int{0}
			seen[0] = true
			count := 1
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range adj[v] {
					if !seen[w] {
						seen[w] = true
						count++
						stack = append(stack, w)
					}
				}
			}
			if count != n {
				t.Fatalf("%v n=%d seed %d: join graph disconnected (%d of %d reachable)", shape, n, seed, count, n)
			}
		}
	}
}
