package main

import (
	"sort"
	"sync"
	"time"
)

// percentile interpolates linearly between closest ranks; p=1 is the
// maximum. An empty sample reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// span is one timed call at a layer boundary. Spans stay in memory and are
// written to the run record when the run ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// Count is the number of work items (events, transactions) one span
	// covers when single items are too small to time on their own.
	Count int `json:"count,omitempty"`
}

func (s span) durMS() float64 { return (s.End - s.Start) / 1e3 }

type tracer struct {
	t0    time.Time
	mu    sync.Mutex // the load phase records from two goroutines
	spans []span
	next  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) micros(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e3 }

// do runs fn inside a span named name under parent (0 for a root); fn gets
// the span's id so it can open children.
func (t *tracer) do(name string, parent, count int, fn func(id int)) {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.micros(start), End: t.micros(end), Count: count})
	t.mu.Unlock()
}

// record adds a span timed by the caller (an HTTP request of the load
// phase).
func (t *tracer) record(name string, start, end time.Time) {
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Name: name, Start: t.micros(start), End: t.micros(end)})
	t.mu.Unlock()
}

// durMS returns the durations of every span named name.
func (t *tracer) durMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.durMS())
		}
	}
	return out
}

// perItemUS is the time per work item over every span named name, in µs.
func (t *tracer) perItemUS(name string) float64 {
	total, items := 0.0, 0
	for _, s := range t.spans {
		if s.Name == name {
			total += s.End - s.Start
			items += s.Count
		}
	}
	if items == 0 {
		return 0
	}
	return total / float64(items)
}
