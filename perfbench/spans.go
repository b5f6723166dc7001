package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: the benchmark's own wrappers
// record it around each call, so the trace needs no hooks inside the
// program. Parent is the ID of the span whose work caused this one (0
// for a root); Start and End are nanoseconds since the tracer began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so call sites need no
// branches.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started but not ended.
type openSpan struct {
	id, parent uint64
	name       string
	start      int64
}

// begin opens a span named name under parent.
func (t *tracer) begin(name string, parent uint64) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return openSpan{id: id, parent: parent, name: name, start: int64(time.Since(t.t0))}
}

// end closes s and returns its ID, for use as a child's parent.
func (t *tracer) end(s openSpan) uint64 {
	if t == nil {
		return 0
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: end})
	t.mu.Unlock()
	return s.id
}

// record adds a span whose start and end were measured elsewhere.
func (t *tracer) record(name string, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// do runs fn inside a span and passes fn the span's ID so nested calls
// can name it as their parent.
func (t *tracer) do(name string, parent uint64, fn func(id uint64)) {
	s := t.begin(name, parent)
	fn(s.id)
	t.end(s)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
// Children that overlap each other (concurrent callers) count once.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans saves the spans as JSON under dir and prints the self-time
// table, largest first, to w.
func writeSpans(dir, file string, spans []span, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintf(w, "spans: %d written to %s; self time per layer:\n", len(spans), path)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %10.3f ms\n", n, float64(self[n])/1e6)
	}
	return nil
}
