package cache

import (
	"math/rand"
	"testing"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// relabel builds the same abstract query under a permuted table labeling:
// table i of the original becomes table perm[i] of the relabeled query.
func relabel(q *joinorder.Query, perm []int) *joinorder.Query {
	out := &joinorder.Query{Tables: make([]joinorder.Table, len(q.Tables))}
	for i, t := range q.Tables {
		out.Tables[perm[i]] = t
	}
	for _, p := range q.Predicates {
		np := p
		np.Tables = make([]int, len(p.Tables))
		for k, t := range p.Tables {
			np.Tables[k] = perm[t]
		}
		out.Predicates = append(out.Predicates, np)
	}
	return out
}

func randPerm(rng *rand.Rand, n int) []int { return rng.Perm(n) }

func TestFingerprintInvariantUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []workload.GraphShape{workload.Chain, workload.Cycle, workload.Star, workload.Clique}
	for _, shape := range shapes {
		for n := 2; n <= 12; n += 2 {
			for seed := int64(1); seed <= 5; seed++ {
				q := workload.Generate(shape, n, seed, workload.Config{})
				for _, mode := range []Mode{Exact, Shape} {
					orig, err := Canonicalize(q, mode)
					if err != nil {
						t.Fatalf("%v n=%d seed=%d %v: %v", shape, n, seed, mode, err)
					}
					for trial := 0; trial < 4; trial++ {
						perm := randPerm(rng, n)
						rq := relabel(q, perm)
						got, err := Canonicalize(rq, mode)
						if err != nil {
							t.Fatalf("relabeled %v n=%d: %v", shape, n, err)
						}
						if got.Key != orig.Key {
							t.Fatalf("%v n=%d seed=%d %v: fingerprint changed under relabeling", shape, n, seed, mode)
						}
					}
				}
			}
		}
	}
}

// TestFingerprintDistinguishes checks that genuinely different queries do
// not collide.
func TestFingerprintDistinguishes(t *testing.T) {
	base := workload.Generate(workload.Chain, 6, 1, workload.Config{})
	fp := func(q *joinorder.Query, m Mode) string {
		c, err := Canonicalize(q, m)
		if err != nil {
			t.Fatal(err)
		}
		return c.Key
	}
	exact := fp(base, Exact)
	shape := fp(base, Shape)

	// Different cardinality: exact key changes; ordinal key unchanged if
	// the perturbation preserves the ordering of the statistics.
	bumped := *base
	bumped.Tables = append([]joinorder.Table(nil), base.Tables...)
	bumped.Tables[2].Card *= 1.5
	if fp(&bumped, Exact) == exact {
		t.Error("exact fingerprint ignored a cardinality change")
	}

	// Different topology: both keys change.
	star := workload.Generate(workload.Star, 6, 1, workload.Config{})
	if fp(star, Exact) == exact || fp(star, Shape) == shape {
		t.Error("fingerprint collided across topologies")
	}

	// Same topology, different size.
	longer := workload.Generate(workload.Chain, 7, 1, workload.Config{})
	if fp(longer, Shape) == shape {
		t.Error("shape fingerprint collided across sizes")
	}
}

// TestShapeFingerprintSurvivesPerturbation: scaling every cardinality (an
// order-preserving perturbation) keeps the shape key while changing the
// exact key — the warm-start matching semantics.
func TestShapeFingerprintSurvivesPerturbation(t *testing.T) {
	for _, shape := range []workload.GraphShape{workload.Chain, workload.Star, workload.Cycle} {
		q := workload.Generate(shape, 9, 3, workload.Config{})
		pert := &joinorder.Query{
			Tables:     append([]joinorder.Table(nil), q.Tables...),
			Predicates: append([]joinorder.Predicate(nil), q.Predicates...),
		}
		for i := range pert.Tables {
			pert.Tables[i].Card = pert.Tables[i].Card*1.25 + float64(0) // monotone
		}
		co, err := Canonicalize(q, Shape)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := Canonicalize(pert, Shape)
		if err != nil {
			t.Fatal(err)
		}
		if co.Key != cp.Key {
			t.Fatalf("%v: shape key changed under monotone cardinality perturbation", shape)
		}
		ce, err := Canonicalize(q, Exact)
		if err != nil {
			t.Fatal(err)
		}
		cpe, err := Canonicalize(pert, Exact)
		if err != nil {
			t.Fatal(err)
		}
		if ce.Key == cpe.Key {
			t.Fatalf("%v: exact key ignored cardinality perturbation", shape)
		}
	}
}

// TestCanonicalPermTranslatesPlans: a plan translated donor→canonical→
// caller must visit tables with identical statistics at every step.
func TestCanonicalPermTranslatesPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		q := workload.Generate(workload.Cycle, 8, int64(trial+1), workload.Config{})
		perm := randPerm(rng, 8)
		rq := relabel(q, perm)

		cq, err := Canonicalize(q, Shape)
		if err != nil {
			t.Fatal(err)
		}
		crq, err := Canonicalize(rq, Shape)
		if err != nil {
			t.Fatal(err)
		}
		// A plan over q translated into rq's label space.
		order := rng.Perm(8)
		translated := crq.FromCanonical(cq.ToCanonical(order))
		for i := range order {
			if q.Tables[order[i]].Card != rq.Tables[translated[i]].Card {
				t.Fatalf("trial %d: translated plan visits a table with different cardinality at step %d", trial, i)
			}
		}
	}
}

// TestSymmetricQueriesCacheable: fully symmetric queries (identical star
// leaves, uniform cliques) must canonicalize via the uniform-cell shortcut
// instead of exhausting the branching budget.
func TestSymmetricQueriesCacheable(t *testing.T) {
	star := &joinorder.Query{}
	star.Tables = append(star.Tables, joinorder.Table{Name: "hub", Card: 1e6})
	for i := 0; i < 20; i++ {
		star.Tables = append(star.Tables, joinorder.Table{Card: 1000})
		star.Predicates = append(star.Predicates, joinorder.Predicate{Tables: []int{0, len(star.Tables) - 1}, Sel: 0.01})
	}
	if _, err := Canonicalize(star, Exact); err != nil {
		t.Fatalf("symmetric star: %v", err)
	}

	clique := &joinorder.Query{}
	for i := 0; i < 12; i++ {
		clique.Tables = append(clique.Tables, joinorder.Table{Card: 500})
	}
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			clique.Predicates = append(clique.Predicates, joinorder.Predicate{Tables: []int{i, j}, Sel: 0.5})
		}
	}
	if _, err := Canonicalize(clique, Exact); err != nil {
		t.Fatalf("uniform clique: %v", err)
	}
}

// TestUncacheable: the documented out-of-scope query features are
// rejected with ErrUncacheable, not mis-fingerprinted.
func TestUncacheable(t *testing.T) {
	q := workload.Generate(workload.Chain, 4, 1, workload.Config{})
	nary := &joinorder.Query{
		Tables:     q.Tables,
		Predicates: append(append([]joinorder.Predicate(nil), q.Predicates...), joinorder.Predicate{Tables: []int{0, 1, 2}, Sel: 0.5}),
	}
	if _, err := Canonicalize(nary, Exact); err == nil {
		t.Error("expected ErrUncacheable")
	}
}
