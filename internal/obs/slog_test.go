package obs

import (
	"bytes"
	"log/slog"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSlogHandlerRendersEvents(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	sink := SlogHandler(logger, slog.LevelDebug, slog.String("req", "r1"))

	sink(Event{
		Kind: KindIncumbent, Seq: 3, Elapsed: 120 * time.Millisecond, Worker: 1,
		Incumbent: 42.5, Bound: 40, Gap: 0.0588, HasIncumbent: true, Nodes: 17,
	})
	line := buf.String()
	for _, want := range []string{"msg=incumbent", "req=r1", "seq=3", "worker=1", "incumbent=42.5", "bound=40", "nodes=17"} {
		if !strings.Contains(line, want) {
			t.Errorf("record %q missing %q", line, want)
		}
	}

	// Non-finite anytime state is omitted, not rendered as +Inf.
	buf.Reset()
	sink(Event{Kind: KindCacheMiss, Worker: -1, Incumbent: math.Inf(1), Bound: math.Inf(-1), Gap: math.Inf(1)})
	line = buf.String()
	if !strings.Contains(line, "msg=cache_miss") {
		t.Errorf("record %q missing kind", line)
	}
	for _, banned := range []string{"incumbent", "bound", "gap", "worker"} {
		if strings.Contains(line, banned) {
			t.Errorf("record %q should omit %q", line, banned)
		}
	}
}

func TestSlogHandlerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	sink := SlogHandler(logger, slog.LevelDebug)
	sink(Event{Kind: KindBound, Bound: 1, Gap: 0.5})
	if buf.Len() != 0 {
		t.Errorf("debug record emitted through info-level logger: %q", buf.String())
	}
}

func TestSlogAttrsKindPayload(t *testing.T) {
	attrs := SlogAttrs(Event{
		Kind: KindCutRound, Worker: -1, Rounds: 2, Cuts: 7,
		Bound: math.Inf(-1), Gap: math.Inf(1),
	})
	found := map[string]bool{}
	for _, a := range attrs {
		found[a.Key] = true
	}
	for _, want := range []string{"seq", "elapsed", "round", "cuts"} {
		if !found[want] {
			t.Errorf("cut-round attrs missing %q (got %v)", want, attrs)
		}
	}
}
