// Package obs is the solver observability layer: a typed event stream and
// per-phase statistics shared by every layer of the MILP stack (simplex,
// branch and bound, and core.Optimize, which drives them) and surfaced
// through the public joinorder API. It is a leaf package — the solver
// layers import it, never the reverse — so one Event type can travel from
// the simplex kernel to the CLI without adapter chains.
//
// Events describe what the solver is doing (an incumbent was found, a cut
// round ran, a worker started); Stats aggregate where the time went. Both
// are designed for machines first: Event and Stats marshal to JSON, so an
// anytime trajectory (the paper's Figure 2) can be reconstructed from the
// stream alone.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// EventKind classifies a solver event.
type EventKind int

const (
	// KindLPRelaxation reports the root LP relaxation solve: its
	// objective (the first lower bound) and simplex iterations.
	KindLPRelaxation EventKind = iota
	// KindIncumbent reports a new best integer solution.
	KindIncumbent
	// KindBound reports an improvement of the proven global lower bound.
	KindBound
	// KindCutRound reports one round of root cut generation.
	KindCutRound
	// KindNodeBatch is a periodic snapshot of the branch-and-bound
	// search: nodes explored, open-node count, current incumbent/bound.
	KindNodeBatch
	// KindWorkerStart marks a branch-and-bound worker starting.
	KindWorkerStart
	// KindWorkerStop marks a worker exiting; per-worker node counts are
	// reported in Stats.NodesPerWorker.
	KindWorkerStop
	// KindCacheHit reports a plan served from the plan cache without a
	// solve; the event carries the cached objective and bound.
	KindCacheHit
	// KindCacheMiss reports a cache lookup that found no reusable entry
	// and is about to fall through to a solve.
	KindCacheMiss
	// KindCacheCoalesced reports a request that joined an identical
	// in-flight solve (singleflight) instead of starting its own.
	KindCacheCoalesced
	// KindWarmStart reports that a cached plan for a structurally
	// similar query was injected as the solver's MIP start.
	KindWarmStart
	// KindDegraded reports that a tight deadline was met with an
	// immediate heuristic plan while the full solve continues in the
	// background.
	KindDegraded
	// KindInjected reports that an incumbent published by a portfolio
	// peer was validated and installed mid-solve, tightening the primal
	// bound of the running branch-and-bound search. It always follows
	// the KindIncumbent event for the same installation.
	KindInjected
	// KindStrategyStart marks a portfolio member strategy starting; the
	// Strategy field names the member.
	KindStrategyStart
	// KindStrategyStop marks a portfolio member exiting (finished,
	// canceled, or failed); the event carries the member's final
	// anytime state.
	KindStrategyStop
	// KindWinner reports the portfolio race outcome: the Strategy field
	// names the member whose plan is returned.
	KindWinner
)

// String names the kind (stable identifiers, used in JSON output).
func (k EventKind) String() string {
	switch k {
	case KindLPRelaxation:
		return "lp_relaxation"
	case KindIncumbent:
		return "incumbent"
	case KindBound:
		return "bound"
	case KindCutRound:
		return "cut_round"
	case KindNodeBatch:
		return "node_batch"
	case KindWorkerStart:
		return "worker_start"
	case KindWorkerStop:
		return "worker_stop"
	case KindCacheHit:
		return "cache_hit"
	case KindCacheMiss:
		return "cache_miss"
	case KindCacheCoalesced:
		return "cache_coalesced"
	case KindWarmStart:
		return "warm_start"
	case KindDegraded:
		return "degraded"
	case KindInjected:
		return "injected"
	case KindStrategyStart:
		return "strategy_start"
	case KindStrategyStop:
		return "strategy_stop"
	case KindWinner:
		return "winner"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// MarshalJSON renders the kind as its string name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// eventKinds lists every kind, for parsing the string form back.
var eventKinds = []EventKind{
	KindLPRelaxation, KindIncumbent, KindBound, KindCutRound,
	KindNodeBatch, KindWorkerStart, KindWorkerStop,
	KindCacheHit, KindCacheMiss, KindCacheCoalesced, KindWarmStart, KindDegraded,
	KindInjected, KindStrategyStart, KindStrategyStop, KindWinner,
}

// UnmarshalJSON parses the string form produced by MarshalJSON.
func (k *EventKind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for _, cand := range eventKinds {
		if cand.String() == name {
			*k = cand
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", name)
}

// Event is one observation from the solver stack. Every event carries the
// anytime state at emission time (incumbent, bound, gap, node count) plus
// kind-specific payload fields; consumers that only care about the
// trajectory can treat all kinds uniformly.
//
// Events are serialised: callbacks never run concurrently, Seq increases
// by one per event, Incumbent never worsens and Bound never regresses
// across the stream of a single solve.
type Event struct {
	Kind    EventKind
	Seq     int           // 0-based emission index within the solve
	Elapsed time.Duration // since the solve started
	Worker  int           // emitting worker ID, -1 when not worker-bound

	// Strategy names the portfolio member the event originated from
	// (empty outside portfolio runs). On a merged portfolio stream the
	// monotonicity guarantees below hold per strategy, not globally:
	// each member's incumbents never worsen within its own sub-stream.
	Strategy string

	// Anytime state at emission time.
	Incumbent    float64 // best integer objective (+Inf while none)
	Bound        float64 // proven global lower bound (-Inf initially)
	Gap          float64 // relative gap (+Inf while no incumbent)
	HasIncumbent bool
	Nodes        int // branch-and-bound nodes explored so far
	OpenNodes    int // open (unexplored) nodes at emission time

	// Kind-specific payload (zero where not applicable).
	Objective float64 // KindLPRelaxation: root LP objective
	Iters     int     // KindLPRelaxation, KindCutRound: simplex iterations
	Rounds    int     // KindCutRound: round index
	Cuts      int     // KindCutRound: cuts added this round
}

// String renders the event as a one-line log entry.
func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%8s] #%-4d %-13s", e.Elapsed.Truncate(time.Millisecond), e.Seq, e.Kind)
	if e.Strategy != "" {
		fmt.Fprintf(&sb, " strategy=%s", e.Strategy)
	}
	if e.Worker >= 0 {
		fmt.Fprintf(&sb, " worker=%d", e.Worker)
	}
	switch e.Kind {
	case KindLPRelaxation:
		fmt.Fprintf(&sb, " obj=%.6g iters=%d", e.Objective, e.Iters)
	case KindCutRound:
		fmt.Fprintf(&sb, " round=%d cuts=%d", e.Rounds, e.Cuts)
	case KindNodeBatch:
		fmt.Fprintf(&sb, " open=%d", e.OpenNodes)
	}
	if e.HasIncumbent {
		fmt.Fprintf(&sb, " incumbent=%.6g", e.Incumbent)
	}
	if !math.IsInf(e.Bound, -1) {
		fmt.Fprintf(&sb, " bound=%.6g gap=%.4f", e.Bound, e.Gap)
	}
	if e.Nodes > 0 {
		fmt.Fprintf(&sb, " nodes=%d", e.Nodes)
	}
	return sb.String()
}

// eventJSON is the wire form of an Event; infinite objective values become
// null so the document stays valid JSON.
type eventJSON struct {
	Kind         EventKind `json:"kind"`
	Seq          int       `json:"seq"`
	ElapsedSec   float64   `json:"elapsed_sec"`
	Strategy     string    `json:"strategy,omitempty"`
	Worker       *int      `json:"worker,omitempty"`
	Incumbent    *float64  `json:"incumbent,omitempty"`
	Bound        *float64  `json:"bound,omitempty"`
	Gap          *float64  `json:"gap,omitempty"`
	HasIncumbent bool      `json:"has_incumbent"`
	Nodes        int       `json:"nodes,omitempty"`
	OpenNodes    int       `json:"open_nodes,omitempty"`
	Objective    *float64  `json:"objective,omitempty"`
	Iters        int       `json:"iters,omitempty"`
	Rounds       int       `json:"rounds,omitempty"`
	Cuts         int       `json:"cuts,omitempty"`
}

// finiteOrNil maps non-finite values to nil for JSON.
func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// MarshalJSON emits the event with non-finite numbers as null and the kind
// as a string.
func (e Event) MarshalJSON() ([]byte, error) {
	out := eventJSON{
		Kind:         e.Kind,
		Seq:          e.Seq,
		ElapsedSec:   e.Elapsed.Seconds(),
		Strategy:     e.Strategy,
		HasIncumbent: e.HasIncumbent,
		Nodes:        e.Nodes,
		OpenNodes:    e.OpenNodes,
		Iters:        e.Iters,
		Rounds:       e.Rounds,
		Cuts:         e.Cuts,
	}
	if e.Worker >= 0 {
		w := e.Worker
		out.Worker = &w
	}
	if e.HasIncumbent {
		out.Incumbent = finiteOrNil(e.Incumbent)
	}
	out.Bound = finiteOrNil(e.Bound)
	out.Gap = finiteOrNil(e.Gap)
	if e.Kind == KindLPRelaxation {
		out.Objective = finiteOrNil(e.Objective)
	}
	return json.Marshal(out)
}

// infOr restores a JSON null to the given non-finite sentinel.
func infOr(v *float64, inf float64) float64 {
	if v == nil {
		return inf
	}
	return *v
}

// UnmarshalJSON parses the document produced by MarshalJSON, so network
// consumers of the event stream (the serving daemon's SSE endpoint) can
// decode events back into the native form. Null or absent numeric fields
// restore their non-finite sentinels.
func (e *Event) UnmarshalJSON(data []byte) error {
	var in eventJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*e = Event{
		Kind:         in.Kind,
		Seq:          in.Seq,
		Elapsed:      time.Duration(in.ElapsedSec * float64(time.Second)),
		Strategy:     in.Strategy,
		Worker:       -1,
		Incumbent:    infOr(in.Incumbent, math.Inf(1)),
		Bound:        infOr(in.Bound, math.Inf(-1)),
		Gap:          infOr(in.Gap, math.Inf(1)),
		HasIncumbent: in.HasIncumbent,
		Nodes:        in.Nodes,
		OpenNodes:    in.OpenNodes,
		Objective:    infOr(in.Objective, math.Inf(1)),
		Iters:        in.Iters,
		Rounds:       in.Rounds,
		Cuts:         in.Cuts,
	}
	if in.Worker != nil {
		e.Worker = *in.Worker
	}
	return nil
}

// RelGap is the relative gap between an incumbent objective and a proven
// lower bound, as reported in events and results: (inc − bound)/|inc|,
// clamped at zero, +Inf while no incumbent exists.
func RelGap(inc, bound float64) float64 {
	if math.IsInf(inc, 1) {
		return math.Inf(1)
	}
	d := inc - bound
	if d <= 0 {
		return 0
	}
	return d / math.Max(1e-9, math.Abs(inc))
}

// Emitter serialises events from concurrent solver layers: it assigns
// sequence numbers, stamps elapsed times against one solve-wide clock, and
// invokes the sink under a lock so callbacks never run concurrently. A nil
// *Emitter is valid and drops everything, so call sites need no guards.
type Emitter struct {
	mu    sync.Mutex
	start time.Time
	seq   int
	sink  func(Event)
}

// NewEmitter builds an emitter over the sink; a nil sink yields a nil
// emitter (all Emit calls no-ops).
func NewEmitter(start time.Time, sink func(Event)) *Emitter {
	if sink == nil {
		return nil
	}
	if start.IsZero() {
		start = time.Now()
	}
	return &Emitter{start: start, sink: sink}
}

// Emit stamps and forwards one event. Safe for concurrent use; events are
// delivered one at a time in emission order.
func (e *Emitter) Emit(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ev.Seq = e.seq
	e.seq++
	if ev.Elapsed == 0 {
		ev.Elapsed = time.Since(e.start)
	}
	e.sink(ev)
}

// Count returns the number of events emitted so far.
func (e *Emitter) Count() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}
