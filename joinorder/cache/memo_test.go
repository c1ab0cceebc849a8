package cache

import (
	"context"
	"testing"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// TestOptimizeCanonicalSkipsFingerprinting: a caller that brings the
// canonical form gets the same answers as Optimize and costs no
// canonicalization on a hit; a nil form is the uncacheable pass-through.
func TestOptimizeCanonicalSkipsFingerprinting(t *testing.T) {
	co := &countingOptimize{}
	o := mustNew(t, Config{Optimize: co.fn})
	ctx := context.Background()
	q := workload.Generate(workload.Cycle, 6, 5, workload.Config{})
	opts := joinorder.Options{Strategy: "dp-leftdeep"}

	ce := o.Canonicalize(q)
	if ce == nil {
		t.Fatal("generated query is uncacheable")
	}
	ekey := ExactKey(ce, opts)
	r1, err := o.OptimizeCanonical(ctx, q, ce, ekey, opts) // miss: Shape for the donor index
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Stats().Canonicalizations; n != 2 {
		t.Fatalf("%d canonicalizations after Canonicalize + miss, want 2", n)
	}
	r2, err := o.OptimizeCanonical(ctx, q, ce, ekey, opts)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := o.Optimize(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := o.Stats()
	if s.Canonicalizations != 3 || s.Hits != 2 || co.calls.Load() != 1 {
		t.Fatalf("canonicalizations=%d hits=%d solves=%d, want 3/2/1", s.Canonicalizations, s.Hits, co.calls.Load())
	}
	for _, r := range []*joinorder.Result{r2, r3} {
		if r.Cost != r1.Cost || r.Plan.String() != r1.Plan.String() {
			t.Fatalf("hit served %v at %g, solve found %v at %g", r.Plan, r.Cost, r1.Plan, r1.Cost)
		}
	}

	q.Correlated = []joinorder.CorrelatedGroup{{Predicates: []int{0, 1}, CorrectionSel: 0.5}}
	if o.Canonicalize(q) != nil {
		t.Fatal("correlated query has a canonical form")
	}
	if _, err := o.OptimizeCanonical(ctx, q, nil, ExactKey(nil, opts), opts); err != nil {
		t.Fatal(err)
	}
	if s := o.Stats(); s.Uncacheable != 1 || co.calls.Load() != 2 {
		t.Fatalf("uncacheable=%d solves=%d, want 1/2", s.Uncacheable, co.calls.Load())
	}
}

// TestMemoOwnsItsText: a hit needs the exact bytes, and the memo keeps its
// own copy of them, so the caller's buffer may be reused.
func TestMemoOwnsItsText(t *testing.T) {
	m := NewMemo[int](4, 0)
	buf := []byte(`{"a":1}`)
	m.Put(buf, 1, 8)
	copy(buf, `{"b":2}`)
	m.Put(buf, 2, 8)
	for text, want := range map[string]int{`{"a":1}`: 1, `{"b":2}`: 2} {
		if got, ok := m.Get([]byte(text)); !ok || got != want {
			t.Errorf("Get(%s) = %d, %v; want %d", text, got, ok, want)
		}
	}
	if _, ok := m.Get([]byte(`{"a":1} `)); ok {
		t.Error("a text differing in whitespace hit")
	}
	if st := m.Stats(); st.Entries != 2 || st.Hits != 2 || st.Misses != 1 || st.Bytes != 2*(7+8+entryOverhead) {
		t.Errorf("stats = %+v", st)
	}
}
