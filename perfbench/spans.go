package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. The field names follow the
// OpenTelemetry span model (trace id, span id, parent span id, start and
// end in Unix nanoseconds, numeric attributes), so spans emitted by the
// program itself can later replace the ones written here without changing
// the file format or the per-layer arithmetic.
type Span struct {
	TraceID  string             `json:"trace_id"`
	SpanID   uint64             `json:"span_id"`
	ParentID uint64             `json:"parent_span_id,omitempty"`
	Name     string             `json:"name"`
	Start    int64              `json:"start_unix_nano"`
	End      int64              `json:"end_unix_nano"`
	Attrs    map[string]float64 `json:"attributes,omitempty"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps finished spans in memory until Write. A nil *Tracer is a
// valid no-op tracer, which is what the untraced runs use.
type Tracer struct {
	mu     sync.Mutex
	seed   int64
	nextID uint64
	traces uint64
	spans  []Span
}

// NewTracer returns a tracer whose trace ids are derived from seed.
func NewTracer(seed int64) *Tracer { return &Tracer{seed: seed} }

// Active is a started, unfinished span.
type Active struct {
	t    *Tracer
	span Span
}

// Root starts a span that begins a new trace.
func (t *Tracer) Root(name string) *Active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.traces++
	id := fmt.Sprintf("%08x%08x", uint32(t.seed), uint32(t.traces))
	t.mu.Unlock()
	return t.start(id, 0, name)
}

// Child starts a span under a.
func (a *Active) Child(name string) *Active {
	if a == nil {
		return nil
	}
	return a.t.start(a.span.TraceID, a.span.SpanID, name)
}

func (t *Tracer) start(traceID string, parent uint64, name string) *Active {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Active{t: t, span: Span{TraceID: traceID, SpanID: id, ParentID: parent, Name: name, Start: time.Now().UnixNano()}}
}

// Set records a numeric attribute (a layer counter) on the span.
func (a *Active) Set(key string, v float64) {
	if a == nil {
		return
	}
	if a.span.Attrs == nil {
		a.span.Attrs = map[string]float64{}
	}
	a.span.Attrs[key] = v
}

// Elapsed is the span's wall time so far, or its duration once ended.
func (a *Active) Elapsed() time.Duration {
	if a == nil {
		return 0
	}
	if a.span.End != 0 {
		return time.Duration(a.span.End - a.span.Start)
	}
	return time.Since(time.Unix(0, a.span.Start))
}

// End finishes the span and hands it to the tracer.
func (a *Active) End() {
	if a == nil {
		return
	}
	a.span.End = time.Now().UnixNano()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.span)
	a.t.mu.Unlock()
}

// Spans returns a copy of the finished spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Write stores the finished spans as JSON lines, ordered by start time.
func (t *Tracer) Write(path string) error {
	spans := t.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LayerStats aggregates spans by name.
type LayerStats struct {
	Calls int
	// Self is the summed self time: each span's duration minus the
	// durations of its direct children.
	Self  time.Duration
	Attrs map[string]float64 // attribute sums
}

// Aggregate computes per-name self time, call counts and attribute sums.
func Aggregate(spans []Span) map[string]*LayerStats {
	children := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] += s.Duration()
		}
	}
	out := map[string]*LayerStats{}
	for _, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &LayerStats{Attrs: map[string]float64{}}
			out[s.Name] = ls
		}
		ls.Calls++
		ls.Self += s.Duration() - children[s.SpanID]
		for k, v := range s.Attrs {
			ls.Attrs[k] += v
		}
	}
	return out
}
