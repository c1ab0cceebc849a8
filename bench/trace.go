package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Parent is the index of the span that caused it (-1 for an op's
// root span); spans of one op share Op.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced blocks run the same code without the bookkeeping.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNs: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.epoch))
	return float64(s.EndNs-s.StartNs) / 1e9
}

// add records a span whose name is known only once it has ended.
func (t *tracer) add(name string, op int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: -1, StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch))})
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	Count int `json:"count"`
	// TotalSec sums the spans' durations; SelfSec subtracts the part of
	// each span its direct children cover.
	TotalSec float64 `json:"total_sec"`
	SelfSec  float64 `json:"self_sec"`
}

// byLayer aggregates the spans by name.
func (t *tracer) byLayer() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Count++
		lt.TotalSec += float64(s.EndNs-s.StartNs) / 1e9
		lt.SelfSec += float64(s.EndNs-s.StartNs-childNs[i]) / 1e9
		out[s.Name] = lt
	}
	return out
}

// perOp is the layer's mean total and self time per op, in seconds.
func (lt layerTime) perOp(ops int) (total, self float64) {
	return ratio(lt.TotalSec, float64(ops)), ratio(lt.SelfSec, float64(ops))
}

// medianSec is the median duration of the named spans, in seconds: the
// figure for a probe that repeats one small call, where a mean would report
// the garbage collector's pauses.
func (t *tracer) medianSec(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var secs []float64
	for _, s := range t.spans {
		if s.Name == name {
			secs = append(secs, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return median(secs)
}

// traceFile is the layout of trace.json.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Layers   map[string]layerTime `json:"layers"`
	Counts   map[string]float64   `json:"counts"`
	Spans    []span               `json:"spans"`
}

// write stores the spans, their per-layer sums and the run's counts under
// dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64, counts map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Layers: t.byLayer(), Counts: counts, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
