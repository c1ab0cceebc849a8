package obs

import (
	"context"
	"log/slog"
	"math"
	"time"
)

// SlogHandler adapts the typed event stream to structured log/slog
// records: it returns an event sink, usable as an OnEvent callback, that
// renders each event as one record on logger at level. The event
// vocabulary stays the single source of truth — the record's message is
// the event kind and every populated field becomes an attribute, so a log
// pipeline sees exactly what a programmatic consumer sees.
//
// Extra attrs (a request ID, a tenant) are prepended to every record,
// letting a serving layer correlate solver events with the request that
// triggered them. Non-finite objective values are omitted rather than
// logged, mirroring the JSON encoding.
//
// The sink is as safe for concurrent use as the logger's handler; solver
// streams additionally serialise their callbacks. Like every OnEvent
// callback it runs on solver goroutines, so the handler should not block.
func SlogHandler(logger *slog.Logger, level slog.Level, attrs ...slog.Attr) func(Event) {
	if logger == nil {
		logger = slog.Default()
	}
	return func(ev Event) {
		if !logger.Enabled(context.Background(), level) {
			return
		}
		out := make([]slog.Attr, 0, len(attrs)+12)
		out = append(out, attrs...)
		out = append(out, SlogAttrs(ev)...)
		logger.LogAttrs(context.Background(), level, ev.Kind.String(), out...)
	}
}

// SlogAttrs renders one event as slog attributes: the shared anytime state
// first, then the kind-specific payload, with unset and non-finite fields
// omitted.
func SlogAttrs(ev Event) []slog.Attr {
	out := make([]slog.Attr, 0, 12)
	out = append(out,
		slog.Int("seq", ev.Seq),
		slog.Duration("elapsed", ev.Elapsed.Truncate(time.Microsecond)),
	)
	if ev.Worker >= 0 {
		out = append(out, slog.Int("worker", ev.Worker))
	}
	if ev.HasIncumbent && !math.IsInf(ev.Incumbent, 0) {
		out = append(out, slog.Float64("incumbent", ev.Incumbent))
	}
	if !math.IsInf(ev.Bound, 0) && !math.IsNaN(ev.Bound) {
		out = append(out, slog.Float64("bound", ev.Bound))
		if !math.IsInf(ev.Gap, 0) && !math.IsNaN(ev.Gap) {
			out = append(out, slog.Float64("gap", ev.Gap))
		}
	}
	if ev.Nodes > 0 {
		out = append(out, slog.Int("nodes", ev.Nodes))
	}
	switch ev.Kind {
	case KindLPRelaxation:
		if !math.IsInf(ev.Objective, 0) && !math.IsNaN(ev.Objective) {
			out = append(out, slog.Float64("objective", ev.Objective))
		}
		out = append(out, slog.Int("iters", ev.Iters))
	case KindCutRound:
		out = append(out, slog.Int("round", ev.Rounds), slog.Int("cuts", ev.Cuts))
	case KindNodeBatch:
		out = append(out, slog.Int("open_nodes", ev.OpenNodes))
	}
	return out
}
