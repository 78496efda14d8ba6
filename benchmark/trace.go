package main

import (
	"fmt"
	"time"
)

// span is one timed call the driver made into a layer. Spans are taken
// from outside the program under test: the benchmark wraps its own
// calls, the simulator is not instrumented.
type span struct {
	Name  string `json:"name"`
	Layer string `json:"layer"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int `json:"parent"`
	// Req identifies the request the span belongs to: the cell index on
	// the closed-loop workloads, the job sequence number on the
	// open-loop ones, -1 when the span serves the whole iteration.
	Req int `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced runs pay one nil check per call.
// It is used from the driving goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(layer, name string, req int) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Req: req,
		Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns each span's duration minus the part its children
// cover, in nanoseconds, indexed like spans.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// checkSpans reports the first way the span list is not a well-formed
// forest: an unclosed span, a child outside its parent, or a negative
// self time (overlapping children).
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s.%s) ends before it starts", i, s.Layer, s.Name)
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s.%s) has parent %d", i, s.Layer, s.Name, s.Parent)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d (%s.%s) leaves its parent %d", i, s.Layer, s.Name, s.Parent)
			}
		}
	}
	for i, ns := range selfTimes(spans) {
		if ns < 0 {
			return fmt.Errorf("span %d (%s.%s) has self time %d ns", i, spans[i].Layer, spans[i].Name, ns)
		}
	}
	return nil
}

// layerSeconds sums self time per "layer.name", in seconds.
func layerSeconds(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Layer+"."+spans[i].Name] += float64(ns) / 1e9
	}
	return out
}
