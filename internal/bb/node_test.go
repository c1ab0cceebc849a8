package bb

import (
	"slices"
	"testing"

	"milpjoin/internal/simplex"
)

// TestWarmBasisRecycledAfterBothChildren: the basis two children share goes
// back for reuse when the second of them lets go of it, whichever way each
// does (LP solved, pruned, retrying cold), never earlier and never twice, and
// the next branching overwrites it in full.
func TestWarmBasisRecycledAfterBothChildren(t *testing.T) {
	s := &searcher{ar: new(arena)}
	lp := &simplex.Basis{Status: []simplex.VarStatus{simplex.Basic, simplex.NonbasicUpper, simplex.Basic}, Head: []int{2, 0}}
	shared := s.childBasis(lp)
	if shared.warm() == lp || !slices.Equal(shared.Status, lp.Status) || !slices.Equal(shared.Head, lp.Head) {
		t.Fatalf("child basis %+v is not a copy of %+v", shared.Basis, lp)
	}
	down, up := &node{basis: shared}, &node{basis: shared}

	s.release(down)
	s.release(down) // a node lets go once: retrying cold, then solved
	if down.basis != nil || down.basis.warm() != nil {
		t.Error("a released node still offers a warm basis")
	}
	if len(s.freeBases) != 0 {
		t.Fatal("basis recycled while the sibling may still start from it")
	}
	if up.basis.warm() != &shared.Basis {
		t.Fatal("the sibling lost its warm basis")
	}
	s.release(up)
	if len(s.freeBases) != 1 {
		t.Fatalf("%d bases on the free list after both children let go, want 1", len(s.freeBases))
	}

	next := &simplex.Basis{Status: []simplex.VarStatus{simplex.NonbasicLower, simplex.Basic}, Head: []int{1}}
	again := s.childBasis(next)
	if again != shared || len(s.freeBases) != 0 {
		t.Error("the freed basis was not reused")
	}
	if again.users != 2 || !slices.Equal(again.Status, next.Status) || !slices.Equal(again.Head, next.Head) {
		t.Errorf("reused basis %+v, want a copy of %+v for two children", again, next)
	}
	if fresh := s.childBasis(next); fresh == again {
		t.Error("one basis handed to two branchings")
	}
}
