package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
	"milpjoin/joinorder/cache/persist"
)

// wireResponse is OptimizeResponse as it stood before it rendered itself:
// the same fields and tags and no methods, so encoding/json's reflective
// encoder writes it. Its bytes are the reference every rendering is held to.
type wireResponse struct {
	Result      *joinorder.Result `json:"result"`
	Degraded    bool              `json:"degraded,omitempty"`
	CacheHit    bool              `json:"cache_hit,omitempty"`
	Coalesced   bool              `json:"coalesced,omitempty"`
	QueueMillis float64           `json:"queue_ms"`
	TotalMillis float64           `json:"total_ms"`
}

// reference is what the parent's writeJSON put on the wire for r: Encode,
// trailing newline included.
func reference(t testing.TB, r *OptimizeResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(wireResponse{r.Result, r.Degraded, r.CacheHit, r.Coalesced, r.QueueMillis, r.TotalMillis})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRendererCoversEveryWireField: a field added to OptimizeResponse must
// be added to the renderer and to the reference together.
func TestRendererCoversEveryWireField(t *testing.T) {
	got, want := reflect.TypeOf(OptimizeResponse{}), reflect.TypeOf(wireResponse{})
	var exported []reflect.StructField
	for i := 0; i < got.NumField(); i++ {
		if f := got.Field(i); f.IsExported() {
			exported = append(exported, f)
		}
	}
	if len(exported) != want.NumField() {
		t.Fatalf("OptimizeResponse has %d exported fields, the reference %d", len(exported), want.NumField())
	}
	for i, f := range exported {
		if w := want.Field(i); f.Name != w.Name || f.Type != w.Type || f.Tag != w.Tag {
			t.Errorf("field %d: %s %s `%s`, the reference has %s %s `%s`", i, f.Name, f.Type, f.Tag, w.Name, w.Type, w.Tag)
		}
	}
}

// checkRenderings holds every way the server writes r to the reference:
// the unary writer, MarshalJSON (the batch and SSE route), a batch document
// around it, and — when the shape can be kept — the kept bytes, first with
// the numbers they were cut from and then with three others.
func checkRenderings(t *testing.T, name string, r *OptimizeResponse) {
	t.Helper()
	want := reference(t, r)

	rec := httptest.NewRecorder()
	writeResponse(rec, r)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("%s: writeResponse wrote %d\n%s\nwant\n%s", name, rec.Code, rec.Body, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
		t.Errorf("%s: Content-Length %s for %d bytes", name, cl, len(want))
	}
	got, err := json.Marshal(r)
	if err != nil || !bytes.Equal(got, bytes.TrimSuffix(want, []byte("\n"))) {
		t.Errorf("%s: json.Marshal wrote (%v)\n%s\nwant\n%s", name, err, got, want)
	}
	batch, err := json.Marshal(BatchResponse{Results: []BatchItem{{Index: 3, Response: r}}})
	if wantBatch := `{"results":[{"index":3,"response":` + strings.TrimSuffix(string(want), "\n") + `}]}`; err != nil || string(batch) != wantBatch {
		t.Errorf("%s: batch document (%v)\n%s\nwant\n%s", name, err, batch, wantBatch)
	}

	kept := keepResponse(r, cache.EntryID{}, 1<<20)
	if r.Result == nil {
		if kept.body != nil {
			t.Errorf("%s: a response without a result was kept", name)
		}
		return
	}
	if kept.body == nil {
		t.Errorf("%s: not kept", name)
		return
	}
	if keepResponse(r, cache.EntryID{}, len(want)-2).body != nil {
		t.Errorf("%s: kept although one byte over the bound", name)
	}
	res := *r.Result
	again := *r
	again.Result, again.kept = &res, kept
	for _, numbers := range [][3]float64{
		{r.Result.Elapsed.Seconds(), r.QueueMillis, r.TotalMillis},
		{4.2e-8, 0, 1234567.125},
		{0.5, 2.5e-7, 1e21},
	} {
		again.Result.Elapsed = time.Duration(numbers[0] * float64(time.Second))
		again.QueueMillis, again.TotalMillis = numbers[1], numbers[2]
		fresh := again
		fresh.kept = nil
		rec := httptest.NewRecorder()
		writeResponse(rec, &again)
		if want := reference(t, &fresh); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: kept bytes with %v wrote\n%s\nwant\n%s", name, numbers, rec.Body, want)
		}
	}
}

// TestResponseBytesMatchEncodingJSON renders every response shape the
// server produces through every path it writes them on, and compares with
// what encoding/json wrote for the same value before the renderer existed.
func TestResponseBytesMatchEncodingJSON(t *testing.T) {
	ctx := context.Background()
	solve := func(shape workload.GraphShape, tables int, opts joinorder.Options) *joinorder.Result {
		t.Helper()
		opts.Budget.TimeLimit = 20 * time.Second
		res, err := joinorder.Optimize(ctx, workload.Generate(shape, tables, int64(tables), workload.Config{}), opts)
		if err != nil {
			t.Fatalf("%s on %d tables: %v", opts.Strategy, tables, err)
		}
		return res
	}
	shapes := map[string]*joinorder.Result{
		"no result": nil,
		"milp with stats": solve(workload.Star, 6, joinorder.Options{
			Strategy: "milp", Metric: joinorder.OperatorCost, Op: joinorder.HashJoin, ChooseOperators: true, CardCap: 1e8,
		}),
		"auto with a winner": solve(workload.Cycle, 7, joinorder.Options{Strategy: "auto", Portfolio: []string{"greedy", "dp-leftdeep"}}),
		"bushy tree":         solve(workload.Cycle, 6, joinorder.Options{Strategy: "dp-bushy"}),
		"every scalar unusual": {
			Strategy: "a<b>&c \"\\é", Status: joinorder.StatusCanceled, Plan: fakePlan(3),
			Cost: 1.02e300, Objective: 9.99e-7, Bound: math.Inf(-1), Gap: math.Inf(1), Nodes: 12345,
			Elapsed: 1500 * time.Nanosecond, MIPStart: "plan", Winner: "milp",
		},
	}
	for n := 2; n <= 30; n++ {
		// Exact DP (bound = cost, gap 0) while it is quick, the heuristic
		// (no bound: -Inf and +Inf, both null on the wire) for all sizes.
		if n <= 12 {
			shapes[fmt.Sprintf("dp-leftdeep, %d tables", n)] = solve(workload.Chain, n, joinorder.Options{Strategy: "dp-leftdeep"})
		}
		shapes[fmt.Sprintf("greedy, %d tables", n)] = solve(workload.Star, n, joinorder.Options{Strategy: "greedy"})
	}
	if res := shapes["milp with stats"]; res.Stats == nil || res.MIPStart == "" || res.Plan.Operators == nil {
		t.Fatalf("the milp shape lacks stats, a MIP start or operators: %+v", res)
	}
	if shapes["auto with a winner"].Winner == "" || shapes["bushy tree"].Tree == nil {
		t.Fatal("the auto shape names no winner, or the bushy one has no tree")
	}
	for name, nodes := range map[string]int{"milp, nodes zero": 0, "milp, nodes non-zero": 977} {
		res := *shapes["milp with stats"]
		res.Nodes = nodes
		shapes[name] = &res
	}

	for name, res := range shapes {
		for flags := 0; flags < 8; flags++ {
			r := &OptimizeResponse{
				Result:   res,
				Degraded: flags&1 != 0, CacheHit: flags&2 != 0, Coalesced: flags&4 != 0,
				QueueMillis: 0.012875, TotalMillis: 0.0613,
			}
			checkRenderings(t, fmt.Sprintf("%s, flags %03b", name, flags), r)
		}
	}
}

// TestKeptBytesAreCutByStructure: strings of the result that spell the three
// keys, quotes and all, are not where the numbers go; and a document the
// cutter cannot walk is declined, never guessed at.
func TestKeptBytesAreCutByStructure(t *testing.T) {
	r := &OptimizeResponse{
		Result: &joinorder.Result{
			Strategy: `x","elapsed_sec":1,"queue_ms":2,"total_ms":3,"y":"`,
			Status:   joinorder.StatusOptimal, Plan: fakePlan(4), Cost: 10, Objective: 10, Bound: 10,
			MIPStart: `"elapsed_sec":`, Winner: `\"queue_ms":7}`, Elapsed: 3 * time.Microsecond,
		},
		CacheHit: true, QueueMillis: 0.25, TotalMillis: 0.5,
	}
	checkRenderings(t, "keys spelled inside strings", r)

	// End to end: the entry arrives from a peer, the text is answered three
	// times, and the third answer — written from kept bytes — still decodes
	// to the strings as imported and to its own numbers.
	s := mustServer(t, Config{})
	q := workload.Generate(workload.Chain, 4, 1, workload.Config{})
	body, err := json.Marshal(&OptimizeRequest{Query: q, Strategy: "dp-leftdeep"})
	if err != nil {
		t.Fatal(err)
	}
	rv := resolveBody(t, s, body)
	val, err := json.Marshal(r.Result)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.co.ImportRecord(persist.KindExact, rv.ekey, val); err != nil {
		t.Fatal(err)
	}
	var last OptimizeResponse
	for i := 0; i < 3; i++ {
		rec := post(s, "/v1/optimize", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%d %s", rec.Code, rec.Body)
		}
		last = OptimizeResponse{}
		decodeInto(t, rec.Body.Bytes(), &last)
	}
	if snap := s.Snapshot(); snap.ResponseTemplateHits != 2 || snap.ResponseTemplateRenders != 1 {
		t.Fatalf("template hits/renders = %d/%d, want 2/1", snap.ResponseTemplateHits, snap.ResponseTemplateRenders)
	}
	if got := last.Result; got.Strategy != r.Result.Strategy || got.MIPStart != r.Result.MIPStart || got.Winner != r.Result.Winner ||
		got.Cost != 10 || !last.CacheHit || last.TotalMillis <= 0 || last.TotalMillis < last.QueueMillis {
		t.Errorf("kept bytes decoded to %+v (result %+v)", last, got)
	}

	for name, doc := range map[string]string{
		"not an object":       `[1,2]`,
		"whitespace":          `{ "elapsed_sec": 1}`,
		"key only in a value": `{"a":"\"elapsed_sec\":1","b":{"elapsed_sec":2}}`,
		"unterminated string": `{"elapsed_sec`,
		"unterminated value":  `{"a":[1,2`,
		"empty":               ``,
	} {
		if vs, ve, ok := memberValue([]byte(doc), "elapsed_sec"); ok {
			t.Errorf("%s: found a value at [%d,%d) of %s", name, vs, ve, doc)
		}
	}
	if vs, ve, ok := memberValue([]byte(`{"a":"elapsed_sec","b":{"elapsed_sec":[1]},"elapsed_sec":7.5,"c":1}`), "elapsed_sec"); !ok || vs != 57 || ve != 60 {
		t.Errorf("top-level member found at [%d,%d) ok=%v, want [57,60)", vs, ve, ok)
	}
}

// resolveBody decodes and resolves a request body as the gate would,
// without sending it.
func resolveBody(t testing.TB, s *Server, body []byte) *resolved {
	t.Helper()
	var req OptimizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	rv, herr := s.resolve(&req)
	if herr != nil {
		t.Fatal(herr.msg)
	}
	return rv
}

// FuzzJSONFloat holds the float appender to json.Marshal over raw bit
// patterns: the same bytes for every finite value, an error exactly where
// encoding/json has one.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // zeros and subnormals
		9.99e-7, 1e-6, 1.0000000000000002e-6, -9.99e-7, 1e-7, 1.5e-10, // around the 'e' threshold below
		1e21, 9.999999999999999e20, -1e21, 1e22, 1.7976931348623157e308, // and above
		1 << 53, 1<<53 + 2, 1 << 62, -(1 << 53), // integers past exact range
		0.1, 1.0 / 3, 123456.789, 0.000013, 58.3e-3,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want, wantErr := json.Marshal(v)
		got, err := appendJSONFloat([]byte("x"), v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%x (%g): error %v, encoding/json %v", bits, v, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() || string(got) != "x" {
				t.Fatalf("%x: error %q leaving %q, encoding/json %q", bits, err, got, wantErr)
			}
			return
		}
		if string(got) != "x"+string(want) {
			t.Fatalf("%x: appended %q, encoding/json %q", bits, got[1:], want)
		}
	})
}

// TestOversizedResponseIsDeclinedOnce: a response longer than its request
// text plus the slack is answered by the ordinary render on every hit, and
// the text remembers the refusal per entry instead of rendering for the cut
// again each time.
func TestOversizedResponseIsDeclinedOnce(t *testing.T) {
	s := mustServer(t, Config{})
	q := workload.Generate(workload.Chain, 4, 1, workload.Config{})
	body, err := json.Marshal(&OptimizeRequest{Query: q, Strategy: "dp-leftdeep"})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("w", len(body)+memoKeptSlack)
	val, err := json.Marshal(&joinorder.Result{
		Strategy: "dp-leftdeep", Status: joinorder.StatusOptimal, Plan: fakePlan(4), Cost: 10, Objective: 10, Bound: 10, Winner: long,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.co.ImportRecord(persist.KindExact, resolveBody(t, s, body).ekey, val); err != nil {
		t.Fatal(err)
	}
	var declined *keptResponse
	for i := 0; i < 3; i++ {
		rec := post(s, "/v1/optimize", body)
		var resp OptimizeResponse
		decodeInto(t, rec.Body.Bytes(), &resp)
		if rec.Code != http.StatusOK || !resp.CacheHit || resp.Result.Winner != long {
			t.Fatalf("answer %d: %d %.200s", i, rec.Code, rec.Body)
		}
		rv, _ := s.memo.Get(body)
		if k := rv.kept.Load(); k == nil || k.body != nil || (declined != nil && k != declined) {
			t.Fatalf("answer %d: kept = %+v, want the one refusal recorded at the first hit", i, k)
		} else {
			declined = k
		}
	}
	if snap := s.Snapshot(); snap.ResponseTemplateHits != 0 || snap.ResponseTemplateRenders != 3 {
		t.Errorf("template hits/renders = %d/%d, want 0/3", snap.ResponseTemplateHits, snap.ResponseTemplateRenders)
	}
}
