package cache

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache/persist"
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
	r1, solved, err := o.OptimizeCanonical(ctx, q, ce, ekey, opts) // miss: dp-leftdeep keeps no donor, so no Shape form
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Stats().Canonicalizations; n != 1 {
		t.Fatalf("%d canonicalizations after Canonicalize + miss, want 1", n)
	}
	r2, hit, err := o.OptimizeCanonical(ctx, q, ce, ekey, opts)
	if err != nil {
		t.Fatal(err)
	}
	if solved != (EntryID{}) || hit == (EntryID{}) {
		t.Fatalf("entry ids: solve %v, hit %v; want zero, non-zero", solved, hit)
	}
	r3, err := o.Optimize(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := o.Stats()
	if s.Canonicalizations != 2 || s.Hits != 2 || co.calls.Load() != 1 {
		t.Fatalf("canonicalizations=%d hits=%d solves=%d, want 2/2/1", s.Canonicalizations, s.Hits, co.calls.Load())
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
	if _, _, err := o.OptimizeCanonical(ctx, q, nil, ExactKey(nil, opts), opts); err != nil {
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

// TestEntryIDNamesTheStoredVersion: the id beside a result is non-zero only
// for a plain hit, repeats while lookups find the same stored version, and
// changes with every way a key can come to hold another one — also when the
// new version's plan is the plan there was. Coalesced and degraded answers
// and relabelings show the other side: no id, and one id for one entry.
func TestEntryIDNamesTheStoredVersion(t *testing.T) {
	now := time.Unix(1000, 0)
	release := make(chan struct{})
	close(release)
	var calls atomic.Int64
	o := mustNew(t, Config{
		TTL: time.Minute, DegradeUnder: 50 * time.Millisecond, BackgroundBudget: 5 * time.Second,
		now: func() time.Time { return now },
		Optimize: func(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
			calls.Add(1)
			<-release
			return joinorder.Optimize(ctx, q, opts)
		},
	})
	ctx := context.Background()
	q := workload.Generate(workload.Chain, 6, 3, workload.Config{})
	opts := joinorder.Options{Strategy: "dp-leftdeep", Budget: joinorder.Budget{TimeLimit: 10 * time.Second}}
	ce := o.Canonicalize(q)
	ekey := ExactKey(ce, opts)
	lookup := func() EntryID {
		t.Helper()
		_, id, err := o.OptimizeCanonical(ctx, q, ce, ekey, opts)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	seen := map[EntryID]string{{}: "no entry"}
	next := func(how string) EntryID {
		t.Helper()
		id := lookup()
		if prev, dup := seen[id]; dup {
			t.Fatalf("after %s the hit carries the id of %s", how, prev)
		}
		if again := lookup(); again != id {
			t.Fatalf("after %s two hits in a row carry different ids", how)
		}
		seen[id] = how
		return id
	}

	if id := lookup(); id != (EntryID{}) {
		t.Fatal("a solve carries an entry id")
	}
	solved := next("the first solve")

	// A relabeling is answered by the same stored version.
	rq := relabel(q, []int{2, 0, 5, 1, 4, 3})
	rce := o.Canonicalize(rq)
	if _, id, err := o.OptimizeCanonical(ctx, rq, rce, ExactKey(rce, opts), opts); err != nil || id != solved {
		t.Fatalf("relabeled hit: id equal = %v, err %v", id == solved, err)
	}

	res, _, err := o.OptimizeCanonical(ctx, q, ce, ekey, opts)
	if err != nil {
		t.Fatal(err)
	}
	val, err := json.Marshal(storeForm(res, ce).res)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.ImportRecord(persist.KindExact, ekey, val); err != nil {
		t.Fatal(err)
	}
	next("an import of the very same record")

	o.Invalidate(q, opts)
	if id := lookup(); id != (EntryID{}) {
		t.Fatal("the re-solve after an invalidation carries an entry id")
	}
	next("invalidate and re-solve")

	now = now.Add(2 * time.Minute)
	if id := lookup(); id != (EntryID{}) {
		t.Fatal("the re-solve after expiry carries an entry id")
	}
	next("expiry and re-solve")

	// Degraded: the fallback's answer has no id; the refine's entry has a
	// new one.
	o.Invalidate(q, opts)
	tight := opts
	tight.Budget.TimeLimit = 10 * time.Millisecond
	if _, id, err := o.OptimizeCanonical(ctx, q, ce, ekey, tight); err != nil || id != (EntryID{}) {
		t.Fatalf("degraded answer: zero id = %v, err %v", id == EntryID{}, err)
	}
	o.Wait()
	next("a background refine")

	// Coalesced: a waiter's answer is the leader's result, not an entry's.
	o.Invalidate(q, opts)
	release = make(chan struct{})
	before := calls.Load()
	ids := make(chan EntryID, 2)
	for i := 0; i < 2; i++ {
		go func() { ids <- lookup() }()
	}
	for calls.Load() == before || o.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if id := <-ids; id != (EntryID{}) {
			t.Error("the leader or the waiter of a flight carries an entry id")
		}
	}
	next("a coalesced solve")
}
