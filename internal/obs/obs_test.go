package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilEmitterIsSafe(t *testing.T) {
	var e *Emitter
	e.Emit(Event{Kind: KindIncumbent}) // must not panic
	if e.Count() != 0 {
		t.Fatalf("nil emitter Count = %d", e.Count())
	}
	if NewEmitter(time.Now(), nil) != nil {
		t.Fatal("NewEmitter with nil sink should return nil")
	}
}

func TestEmitterAssignsSequenceAndElapsed(t *testing.T) {
	var got []Event
	e := NewEmitter(time.Now().Add(-time.Second), func(ev Event) { got = append(got, ev) })
	e.Emit(Event{Kind: KindCutRound})
	e.Emit(Event{Kind: KindIncumbent})
	e.Emit(Event{Kind: KindBound, Elapsed: 42 * time.Millisecond})
	if len(got) != 3 || e.Count() != 3 {
		t.Fatalf("emitted %d events, Count %d", len(got), e.Count())
	}
	for i, ev := range got {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	if got[0].Elapsed < time.Second {
		t.Errorf("auto-stamped elapsed %v, want >= 1s", got[0].Elapsed)
	}
	if got[2].Elapsed != 42*time.Millisecond {
		t.Errorf("explicit elapsed overwritten: %v", got[2].Elapsed)
	}
}

func TestEmitterSerialisesConcurrentEmits(t *testing.T) {
	var seqs []int
	e := NewEmitter(time.Now(), func(ev Event) { seqs = append(seqs, ev.Seq) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e.Emit(Event{Kind: KindNodeBatch})
			}
		}()
	}
	wg.Wait()
	if len(seqs) != 400 {
		t.Fatalf("got %d events, want 400", len(seqs))
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("seq %d delivered at position %d", s, i)
		}
	}
}

func TestEventJSONMapsInfinitiesToNull(t *testing.T) {
	ev := Event{
		Kind:      KindNodeBatch,
		Worker:    1,
		Incumbent: math.Inf(1),
		Bound:     math.Inf(-1),
		Gap:       math.Inf(1),
		Nodes:     7,
	}
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("event JSON invalid: %v\n%s", err, data)
	}
	if doc["kind"] != "node_batch" {
		t.Errorf("kind = %v", doc["kind"])
	}
	for _, k := range []string{"incumbent", "bound", "gap"} {
		if v, ok := doc[k]; ok && v != nil {
			t.Errorf("%s = %v, want null/omitted", k, v)
		}
	}
	if doc["worker"] != float64(1) {
		t.Errorf("worker = %v", doc["worker"])
	}
}

func TestEventStringPerKind(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Kind: KindLPRelaxation, Worker: 0, Objective: 12.5, Iters: 9}, "obj=12.5"},
		{Event{Kind: KindCutRound, Worker: -1, Rounds: 1, Cuts: 4}, "cuts=4"},
		{Event{Kind: KindNodeBatch, Worker: 1, OpenNodes: 6}, "open=6"},
		{Event{Kind: KindWorkerStart, Worker: 3}, "worker=3"},
	}
	for _, tc := range cases {
		if s := tc.ev.String(); !strings.Contains(s, tc.want) {
			t.Errorf("String() = %q, want substring %q", s, tc.want)
		}
	}
}

func TestRelGap(t *testing.T) {
	cases := []struct {
		inc, bound, want float64
	}{
		{math.Inf(1), -10, math.Inf(1)},
		{100, 100, 0},
		{100, 110, 0}, // bound past incumbent clamps to zero
		{100, 50, 0.5},
		{-50, -100, 1},
	}
	for _, tc := range cases {
		if got := RelGap(tc.inc, tc.bound); got != tc.want {
			t.Errorf("RelGap(%g, %g) = %g, want %g", tc.inc, tc.bound, got, tc.want)
		}
	}
}

func TestStatsReporting(t *testing.T) {
	s := Stats{
		TotalTime:          10 * time.Millisecond,
		Nodes:              12,
		Workers:            2,
		NodesPerWorker:     []int{7, 5},
		SimplexIters:       345,
		PricingScannedCols: 1,
		PricingTotalCols:   4,
	}
	if str := s.String(); !strings.Contains(str, "12 nodes") || !strings.Contains(str, "2 workers") {
		t.Errorf("Stats.String() = %q", str)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["simplex_iters"] != float64(345) {
		t.Errorf("simplex_iters = %v", doc["simplex_iters"])
	}
	if doc["pricing_scan_fraction"] != 0.25 {
		t.Errorf("pricing_scan_fraction = %v", doc["pricing_scan_fraction"])
	}
	if doc["total_sec"] != 0.01 {
		t.Errorf("total_sec = %v", doc["total_sec"])
	}
}

// TestEventJSONRoundTrip checks that an Event survives the SSE wire
// format: marshal → unmarshal restores the anytime state, with nulls
// mapping back to the non-finite sentinels.
func TestEventJSONRoundTrip(t *testing.T) {
	in := Event{
		Kind: KindBound, Seq: 7, Elapsed: 250 * time.Millisecond, Worker: 1,
		Incumbent: 4000, Bound: 1200, Gap: 0.7, HasIncumbent: true,
		Nodes: 42, OpenNodes: 5,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Seq != in.Seq || out.Worker != in.Worker ||
		out.Incumbent != in.Incumbent || out.Bound != in.Bound || out.Gap != in.Gap ||
		!out.HasIncumbent || out.Nodes != in.Nodes || out.OpenNodes != in.OpenNodes {
		t.Errorf("round trip lost fields: %+v", out)
	}
	if out.Elapsed != in.Elapsed {
		t.Errorf("elapsed = %v, want %v", out.Elapsed, in.Elapsed)
	}

	// A pre-incumbent event: sentinels restored from nulls, worker -1
	// restored from absence.
	pre := Event{Kind: KindCutRound, Worker: -1,
		Incumbent: math.Inf(1), Bound: math.Inf(-1), Gap: math.Inf(1), Objective: math.Inf(1)}
	data, err = json.Marshal(pre)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(out.Incumbent, 1) || !math.IsInf(out.Bound, -1) || !math.IsInf(out.Gap, 1) || out.Worker != -1 {
		t.Errorf("sentinels not restored: %+v", out)
	}
}

// TestEventKindJSONRoundTrip walks every kind through its string form.
func TestEventKindJSONRoundTrip(t *testing.T) {
	for _, k := range eventKinds {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var out EventKind
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if out != k {
			t.Errorf("round trip %v → %v", k, out)
		}
	}
	var bad EventKind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &bad); err == nil {
		t.Error("unknown kind accepted")
	}
}
