package joinorder_test

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"milpjoin/joinorder"
)

// eventRecorder collects the event stream of one Optimize call and checks,
// inside the callback, that events arrive serialised: the mutex would not
// protect against concurrent delivery, but the race detector flags it.
type eventRecorder struct {
	mu     sync.Mutex
	events []joinorder.Event
}

func (r *eventRecorder) record(ev joinorder.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

// checkStream asserts the documented event-stream invariants: sequence
// numbers increase by one, elapsed times and bounds never regress, and
// incumbents never worsen.
func checkStream(t *testing.T, events []joinorder.Event) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no events observed")
	}
	inc := math.Inf(1)
	bound := math.Inf(-1)
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, ev.Seq)
		}
		if ev.HasIncumbent {
			if ev.Incumbent > inc+1e-9 {
				t.Fatalf("event %d: incumbent worsened %g -> %g", i, inc, ev.Incumbent)
			}
			inc = ev.Incumbent
		}
		// Cut-round events fire before branch and bound and carry a -Inf
		// bound placeholder; the monotone-bound guarantee covers the
		// search-phase events.
		if ev.Kind == joinorder.KindCutRound {
			continue
		}
		if ev.Bound < bound-1e-9 {
			t.Fatalf("event %d (%v): bound regressed %g -> %g", i, ev.Kind, bound, ev.Bound)
		}
		bound = ev.Bound
	}
}

func TestConcurrentOptimizeEventStreams(t *testing.T) {
	q := smallQuery() // shared across goroutines on purpose
	const runs = 4

	var wg sync.WaitGroup
	recorders := make([]*eventRecorder, runs)
	results := make([]*joinorder.Result, runs)
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		rec := &eventRecorder{}
		recorders[i] = rec
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = joinorder.Optimize(context.Background(), q, joinorder.Options{
				Strategy: "milp",
				Budget:   joinorder.Budget{Threads: 2, TimeLimit: 30 * time.Second},
				OnEvent:  rec.record,
			})
		}(i)
	}
	wg.Wait()

	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		events := recorders[i].events
		checkStream(t, events)

		kinds := make(map[joinorder.EventKind]int)
		for _, ev := range events {
			kinds[ev.Kind]++
		}
		if kinds[joinorder.KindIncumbent] == 0 {
			t.Errorf("run %d: no incumbent event", i)
		}
		if kinds[joinorder.KindWorkerStart] == 0 || kinds[joinorder.KindWorkerStop] == 0 {
			t.Errorf("run %d: missing worker lifecycle events: %v", i, kinds)
		}

		st := results[i].Stats
		if st == nil {
			t.Fatalf("run %d: milp result has nil Stats", i)
		}
		if st.Events != len(events) {
			t.Errorf("run %d: Stats.Events = %d, observed %d", i, st.Events, len(events))
		}
		if st.Workers != 2 || len(st.NodesPerWorker) != 2 {
			t.Errorf("run %d: Stats workers = %d (%v), want 2", i, st.Workers, st.NodesPerWorker)
		}
		if st.TotalTime <= 0 || st.SimplexIters <= 0 {
			t.Errorf("run %d: Stats not populated: %+v", i, st)
		}
	}
}

// TestEventStreamAnytimeTrajectory pins the contract the retired
// OnProgress adapter used to re-export: the incumbent/bound events alone
// reconstruct the anytime trajectory, improvements never worsen, and a
// proven-optimal run ends with a closed gap on the stream.
func TestEventStreamAnytimeTrajectory(t *testing.T) {
	q := smallQuery()
	rec := &eventRecorder{}
	res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
		Strategy: "milp",
		Budget:   joinorder.Budget{TimeLimit: 30 * time.Second},
		OnEvent:  rec.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != joinorder.StatusOptimal {
		t.Fatalf("status %v, want optimal", res.Status)
	}
	var improvements []joinorder.Event
	for _, ev := range rec.events {
		if ev.Kind == joinorder.KindIncumbent || ev.Kind == joinorder.KindBound {
			improvements = append(improvements, ev)
		}
	}
	if len(improvements) == 0 {
		t.Fatal("no incumbent/bound events on the stream")
	}
	prev := math.Inf(1)
	for i, ev := range improvements {
		if !ev.HasIncumbent {
			continue
		}
		if ev.Incumbent > prev+1e-9 {
			t.Fatalf("improvement %d: incumbent worsened (%g after %g)", i, ev.Incumbent, prev)
		}
		prev = ev.Incumbent
	}
	last := improvements[len(improvements)-1]
	if !last.HasIncumbent {
		t.Fatalf("final improvement event has no incumbent: %+v", last)
	}
	if last.Incumbent != res.Objective {
		t.Fatalf("final stream incumbent %g != result objective %g", last.Incumbent, res.Objective)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	q := smallQuery()
	res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
		Strategy: "milp",
		Budget:   joinorder.Budget{TimeLimit: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Strategy string `json:"strategy"`
		Status   string `json:"status"`
		Plan     *struct {
			Order []int  `json:"order"`
			Text  string `json:"text"`
		} `json:"plan"`
		Cost  *float64 `json:"cost"`
		Stats *struct {
			TotalSec     float64 `json:"total_sec"`
			SimplexIters int     `json:"simplex_iters"`
			Workers      int     `json:"workers"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("result JSON does not parse: %v\n%s", err, data)
	}
	if doc.Strategy != "milp" || doc.Status != "optimal" {
		t.Errorf("strategy/status = %q/%q", doc.Strategy, doc.Status)
	}
	if doc.Plan == nil || len(doc.Plan.Order) != q.NumTables() {
		t.Errorf("plan missing or wrong length: %+v", doc.Plan)
	}
	if doc.Cost == nil || *doc.Cost <= 0 {
		t.Errorf("cost missing: %v", doc.Cost)
	}
	if doc.Stats == nil || doc.Stats.SimplexIters <= 0 || doc.Stats.TotalSec <= 0 {
		t.Errorf("stats missing or empty: %+v", doc.Stats)
	}
	if !strings.Contains(res.String(), "milp: optimal") {
		t.Errorf("Result.String() = %q", res.String())
	}
}
