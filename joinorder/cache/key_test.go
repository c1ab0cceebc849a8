package cache

import (
	"context"
	"reflect"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// instantOptimal answers every solve at once with a proven-optimal
// identity plan, so key tests can vary options no real strategy accepts
// together.
func instantOptimal(_ context.Context, q *joinorder.Query, _ joinorder.Options) (*joinorder.Result, error) {
	order := make([]int, q.NumTables())
	for i := range order {
		order[i] = i
	}
	return &joinorder.Result{Status: joinorder.StatusOptimal, Plan: &joinorder.Plan{Order: order}, Cost: 1}, nil
}

// TestHoldsIsNotALookup: the residency probe answers present, absent and
// expired like a lookup would, and leaves no trace of having asked — LRU
// order, per-entry hits and the hit/miss/expiry counters are the lookup's
// alone.
func TestHoldsIsNotALookup(t *testing.T) {
	now := time.Unix(1000, 0)
	o := mustNew(t, Config{Optimize: instantOptimal, MaxEntries: 2, TTL: time.Minute, now: func() time.Time { return now }})
	ctx := context.Background()
	opts := joinorder.Options{Strategy: "dp-leftdeep"}
	var qs [3]*joinorder.Query
	var keys [3]string
	for i := range qs {
		qs[i] = workload.Generate(workload.Chain, 5, int64(i+1), workload.Config{})
		keys[i] = ExactKey(o.Canonicalize(qs[i]), opts)
	}
	for _, q := range qs[:2] {
		if _, err := o.Optimize(ctx, q, opts); err != nil {
			t.Fatal(err)
		}
	}
	before := o.Stats()

	// Present, absent, uncacheable; the oldest entry is asked about most.
	for i := 0; i < 5; i++ {
		if !o.Holds(keys[0]) {
			t.Fatal("resident entry reported absent")
		}
	}
	if !o.Holds(keys[1]) || o.Holds(keys[2]) || o.Holds("") {
		t.Fatalf("Holds = %v/%v/%v for resident/absent/empty key", o.Holds(keys[1]), o.Holds(keys[2]), o.Holds(""))
	}
	for _, e := range o.Entries() {
		if e.Hits != 0 {
			t.Errorf("probing counted %d hits on %s", e.Hits, e.Key)
		}
	}
	// Still least recently used: the third entry pushes the probed one out.
	if _, err := o.Optimize(ctx, qs[2], opts); err != nil {
		t.Fatal(err)
	}
	if o.Holds(keys[0]) || !o.Holds(keys[1]) || !o.Holds(keys[2]) {
		t.Fatal("probing refreshed the oldest entry's recency: it was not the one evicted")
	}

	// Past the TTL nothing is held, and it is the lookup that expires it.
	now = now.Add(2 * time.Minute)
	if o.Holds(keys[1]) || o.Holds(keys[2]) {
		t.Fatal("expired entry reported held")
	}
	after := o.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses+1 || after.Expired != 0 || after.Entries != 2 {
		t.Fatalf("probes moved the counters: before %+v, after %+v", before, after)
	}
	if _, err := o.Optimize(ctx, qs[1], opts); err != nil {
		t.Fatal(err)
	}
	if s := o.Stats(); s.Expired != 1 || !o.Holds(keys[1]) {
		t.Fatalf("lookup after expiry: expired=%d held=%v, want 1/true", s.Expired, o.Holds(keys[1]))
	}
}

// optionFields walks Options (and its Budget) and yields each exported leaf
// field's dotted name with a setter that gives it a non-zero value.
func optionFields(t *testing.T) map[string]func(*joinorder.Options) {
	out := map[string]func(*joinorder.Options){}
	var walk func(typ reflect.Type, path []int, prefix string)
	walk = func(typ reflect.Type, path []int, prefix string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue // set inside joinorder only, never by a cache caller
			}
			index := append(append([]int(nil), path...), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, index, prefix+f.Name+".")
				continue
			}
			out[prefix+f.Name] = func(o *joinorder.Options) {
				v := reflect.ValueOf(o).Elem().FieldByIndex(index)
				switch v.Kind() {
				case reflect.String:
					v.SetString("greedy")
				case reflect.Int, reflect.Int64:
					v.SetInt(3)
				case reflect.Float64:
					v.SetFloat(0.5)
				case reflect.Bool:
					v.SetBool(true)
				case reflect.Slice:
					v.Set(reflect.ValueOf([]string{"milp", "greedy"}))
				case reflect.Pointer:
					v.Set(reflect.New(v.Type().Elem()))
				case reflect.Func:
					v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
				default:
					t.Fatalf("Options.%s: no way to set a %s; teach optionFields", prefix+f.Name, v.Kind())
				}
			}
		}
	}
	walk(reflect.TypeOf(joinorder.Options{}), nil, "")
	return out
}

// TestExactKeySpellsEveryLookup: the key has one spelling. Every Options
// field is either part of the digest — then changing it moves ExactKey, and
// the entry Optimize stores and finds is the one Holds sees under exactly
// that key — or named here as one that never changes the answer. A field
// added to Options fails the test until it is put on one side.
func TestExactKeySpellsEveryLookup(t *testing.T) {
	outsideDigest := map[string]bool{
		"Budget.TimeLimit": true, "Budget.Threads": true, // effort, not the optimum
		"InitialPlan": true, "OnEvent": true, "OnPlan": true, // never change the result
	}
	o := mustNew(t, Config{Optimize: instantOptimal})
	ctx := context.Background()
	q := workload.Generate(workload.Chain, 5, 1, workload.Config{})
	ce := o.Canonicalize(q)
	base := ExactKey(ce, joinorder.Options{})
	if ExactKey(nil, joinorder.Options{}) != "" {
		t.Fatal("an uncacheable query has a key")
	}

	seen := map[string]string{base: "the zero Options"}
	for name, set := range optionFields(t) {
		var opts joinorder.Options
		set(&opts)
		key := ExactKey(ce, opts)
		if outsideDigest[name] {
			if key != base {
				t.Errorf("Options.%s moved the key to %q; it is listed as outside the digest", name, key)
			}
			continue
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("Options.%s shares the key %q with %s: the digest does not cover it", name, key, prev)
			continue
		}
		seen[key] = "Options." + name

		if o.Holds(key) {
			t.Fatalf("Options.%s: entry held before it was solved", name)
		}
		misses := o.Stats().Misses
		for i := 0; i < 2; i++ { // a miss that stores, a hit that finds
			if _, err := o.Optimize(ctx, q, opts); err != nil {
				t.Fatalf("Options.%s: %v", name, err)
			}
		}
		if s := o.Stats(); s.Misses != misses+1 || !o.Holds(key) {
			t.Errorf("Options.%s: misses +%d, held=%v; Optimize and ExactKey disagree on the key", name, s.Misses-misses, o.Holds(key))
		}
	}
	if got, want := o.Len(), len(seen)-1; got != want {
		t.Errorf("%d entries resident for %d distinct option sets", got, want)
	}
	for _, e := range o.Entries() {
		if _, ok := seen[e.Key]; !ok {
			t.Errorf("resident key %q was spelled by something other than ExactKey", e.Key)
		}
	}
}
