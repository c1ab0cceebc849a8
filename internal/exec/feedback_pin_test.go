package exec

import (
	"math"
	"testing"
)

// feedbackAnswer is what the feedback loop decides from its measurements:
// the learned selectivities, the corrected query handed back to the
// caller, the number of plan replacements and the executed C_out.
type feedbackAnswer struct {
	predSel   map[int]float64
	corrected []float64
	reopts    int
	cout      float64
}

func answerOf(res *AdaptiveResult) feedbackAnswer {
	a := feedbackAnswer{predSel: res.Corrections.PredSel, reopts: res.Reopts, cout: res.Trace.MeasuredCout()}
	for _, p := range res.CorrectedQuery.Predicates {
		a.corrected = append(a.corrected, p.Sel)
	}
	return a
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (a feedbackAnswer) equal(b feedbackAnswer) bool {
	if a.reopts != b.reopts || !sameBits(a.cout, b.cout) ||
		len(a.predSel) != len(b.predSel) || len(a.corrected) != len(b.corrected) {
		return false
	}
	for pi, s := range a.predSel {
		if w, ok := b.predSel[pi]; !ok || !sameBits(s, w) {
			return false
		}
	}
	for i := range a.corrected {
		if !sameBits(a.corrected[i], b.corrected[i]) {
			return false
		}
	}
	return true
}

// checkPinnedAnswer holds one ExecuteAdaptive run of feedback_test.go to
// its pinned answer bit for bit: every learned selectivity, every
// corrected-query selectivity, the re-optimization count and the executed
// C_out, compared by Float64bits. A change to the attribution rule — its
// expected size, its k-th-root split over the applied predicates, its
// clamps — moves at least one.
func checkPinnedAnswer(t *testing.T, scenario string, res *AdaptiveResult) {
	t.Helper()
	g := answerOf(res)
	if w, ok := pinnedAnswers[scenario]; !ok || !g.equal(w) {
		t.Errorf("%q: {predSel: %#v, corrected: %#v, reopts: %d, cout: %v}", scenario, g.predSel, g.corrected, g.reopts, g.cout)
	}
}

// pinnedAnswers are the answers recorded before the attribution rule moved
// into cost.SelectivityCorrections, keyed "<shape>/<trial>" for the
// infinite-threshold runs of TestAdaptiveMatchesStreamWithoutFeedback.
var pinnedAnswers = map[string]feedbackAnswer{
	"chain/0": {
		predSel:   map[int]float64{0: 0.272490221642764, 1: 0.09365079365079365, 2: 0.11492281303602059, 3: 0.15542521994134897},
		corrected: []float64{0.272490221642764, 0.09365079365079365, 0.11492281303602059, 0.15542521994134897},
		cout:      321,
	},
	"chain/1": {
		predSel:   map[int]float64{0: 0.26231844256556336, 1: 0.09365079365079365, 2: 0.11937911223366722, 3: 0.15542521994134897},
		corrected: []float64{0.26231844256556336, 0.09365079365079365, 0.11937911223366722, 0.15542521994134897},
		cout:      1151,
	},
	"chain/2": {
		predSel:   map[int]float64{0: 0.23987029463984907, 1: 0.10156178324878672, 2: 0.10916313220400532, 3: 0.1713986307864726},
		corrected: []float64{0.23987029463984907, 0.10156178324878672, 0.10916313220400532, 0.1713986307864726},
		cout:      5084,
	},
	"cycle/0": {
		predSel:   map[int]float64{0: 0.191025641025641, 1: 0.09523809523809522, 2: 0.09824792971121592, 3: 0.17008797653958943, 4: 0.11071084970087573},
		corrected: []float64{0.191025641025641, 0.09523809523809522, 0.09824792971121592, 0.17008797653958943, 0.11071084970087573},
		cout:      267,
	},
	"cycle/1": {
		predSel:   map[int]float64{0: 0.16662021830894336, 1: 0.09523809523809522, 2: 0.07582758401338852, 3: 0.19742141881027894, 4: 0.14168689568029577},
		corrected: []float64{0.16662021830894336, 0.09523809523809522, 0.07582758401338852, 0.19742141881027894, 0.14168689568029577},
		cout:      587,
	},
	"cycle/2": {
		predSel:   map[int]float64{0: 0.19965476069022234, 1: 0.08453440873224377, 2: 0.09086135100267245, 3: 0.1426627363912863, 4: 0.15384615384615385},
		corrected: []float64{0.19965476069022234, 0.08453440873224377, 0.09086135100267245, 0.1426627363912863, 0.15384615384615385},
		cout:      1333,
	},
	"star/0": {
		predSel:   map[int]float64{0: 0.2134566395435616, 1: 0.09037816454466517, 2: 0.10630594028511464, 3: 0.16691251195766468},
		corrected: []float64{0.2134566395435616, 0.09037816454466517, 0.10630594028511464, 0.16691251195766468},
		cout:      1129,
	},
	"star/1": {
		predSel:   map[int]float64{0: 0.21165900653592604, 1: 0.08961704147956674, 2: 0.12158808933002481, 3: 0.14842300556586271},
		corrected: []float64{0.21165900653592604, 0.08961704147956674, 0.12158808933002481, 0.14842300556586271},
		cout:      759,
	},
	"star/2": {
		predSel:   map[int]float64{0: 0.25927943598342923, 1: 0.08421052631578949, 2: 0.11799608363568077, 3: 0.13286713286713286},
		corrected: []float64{0.25927943598342923, 0.08421052631578949, 0.11799608363568077, 0.13286713286713286},
		cout:      718,
	},
	// README's figures: one re-optimization, executed C_out 20,029,
	// the corrupted selectivity (0.5 believed to be 1e-5) back at 0.501.
	"corrupted-chain": {
		predSel:   map[int]float64{0: 0.5005000000000001, 2: 0.0036000000000000003, 3: 2.222222222222222e-15},
		corrected: []float64{0.5005000000000001, 0.02, 0.0036000000000000003, 2.222222222222222e-15},
		reopts:    1,
		cout:      20029,
	},
	"corrupted-chain/failing-reopt": {
		predSel:   map[int]float64{0: 0.49910000000000004, 1: 0.023278902023642557, 2: 0.002409088952962947, 3: 7.145409074669525e-18},
		corrected: []float64{0.49910000000000004, 0.023278902023642557, 0.002409088952962947, 7.145409074669525e-18},
		cout:      46000,
	},
}
