package exec

import (
	"testing"

	"milpjoin/internal/plan"
	"milpjoin/internal/workload"
)

// treeFromBytes deterministically folds a forest of n leaves into one
// bushy tree, with each merge choice driven by the next fuzz bytes (zero
// once the input runs out) — every byte string maps to a valid tree, so
// the fuzzer explores tree shapes rather than validation failures.
func treeFromBytes(n int, merges []byte) *plan.Tree {
	forest := make([]*plan.Tree, n)
	for i := range forest {
		forest[i] = plan.Leaf(i)
	}
	at := func(k int) int {
		if k < len(merges) {
			return int(merges[k])
		}
		return 0
	}
	for k := 0; len(forest) > 1; k += 2 {
		i := at(k) % len(forest)
		j := at(k+1) % (len(forest) - 1)
		if j >= i {
			j++
		}
		merged := plan.Join(forest[i], forest[j])
		if i > j {
			i, j = j, i
		}
		forest[j] = forest[len(forest)-1]
		forest = forest[:len(forest)-1]
		forest[i] = merged
	}
	return forest[0]
}

// FuzzExecuteBushyPlan differential-tests the streaming executor against
// the materializing oracle on fuzzer-chosen query shapes, sizes, data
// seeds, and bushy tree structures: both executors must produce the same
// result multiset, and the trace's root join must equal the result size.
func FuzzExecuteBushyPlan(f *testing.F) {
	f.Add(uint8(0), uint8(4), int64(1), []byte{0, 0, 1, 1})
	f.Add(uint8(1), uint8(5), int64(2), []byte{3, 2, 1, 0, 2, 1})
	f.Add(uint8(2), uint8(6), int64(3), []byte{5, 4, 3, 2, 1, 0, 1, 2})
	f.Add(uint8(2), uint8(3), int64(4), []byte{})
	f.Add(uint8(0), uint8(7), int64(5), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, shapeB, nB uint8, seed int64, merges []byte) {
		shapes := workload.Shapes()
		shape := shapes[int(shapeB)%len(shapes)]
		n := 3 + int(nB)%5 // 3 … 7 tables
		q := smallQuery(shape, n, seed%1024)
		db, err := Synthesize(q, seed)
		if err != nil {
			t.Fatal(err)
		}
		tree := treeFromBytes(n, merges)

		oracle, _, err := db.executeTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		run, err := db.Stream(tree, StreamOptions{batchSize: 1 + int(nB)%64})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := run.Collect()
		if err != nil {
			t.Fatal(err)
		}

		cols := allColumns(db)
		want, err := oracle.Fingerprint(cols)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rel.Fingerprint(cols)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("shape=%v n=%d seed=%d tree=%v: streaming result differs from oracle",
				shape, n, seed, tree)
		}
		root := run.Trace.Joins[len(run.Trace.Joins)-1]
		if int(root.Measured) != oracle.NumRows() {
			t.Fatalf("root join measured %g rows, oracle produced %d", root.Measured, oracle.NumRows())
		}
	})
}
