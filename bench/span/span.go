// Package span is mavbench's outside-in tracer: the benchmark opens a span
// around each call into a layer's public functions, keeps every span in
// memory, and writes them out when the run ends. Nothing in the program
// under test knows about it.
package span

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one timed call. Layer is the module the time is attributed to;
// spans of one serial pass share Workload and Rep.
type Span struct {
	ID       int
	Parent   int // 0 for a root
	Name     string
	Layer    string
	Workload string
	Rep      int
	Start    time.Time
	End      time.Time
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Recorder collects spans. The traced pass opens and ends every span from
// one goroutine, so it does not lock.
type Recorder struct {
	spans    []Span
	next     int
	workload string
	rep      int
}

// NewRecorder returns a recorder stamping spans with workload and rep.
func NewRecorder(workload string, rep int) *Recorder {
	return &Recorder{workload: workload, rep: rep}
}

// Open is an in-flight span; End records it.
type Open struct {
	r *Recorder
	s Span
}

// Start opens a span named name for layer under parent (nil for a root).
func (r *Recorder) Start(parent *Open, layer, name string) *Open {
	r.next++
	o := &Open{r: r, s: Span{ID: r.next, Name: name, Layer: layer, Workload: r.workload, Rep: r.rep}}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	o.s.Start = time.Now()
	return o
}

// End closes the span, records it and returns its duration.
func (o *Open) End() time.Duration {
	o.s.End = time.Now()
	o.r.spans = append(o.r.spans, o.s)
	return o.s.Duration()
}

// Spans returns the recorded spans in completion order.
func (r *Recorder) Spans() []Span {
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from.Before(cursor) {
				from = cursor
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				cursor = to
			}
		}
		self[s.ID] = s.Duration() - covered
	}
	return self
}

// LayerSelfTimes sums SelfTimes by layer.
func LayerSelfTimes(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// chromeEvent is one complete ("X") event of Chrome's trace-event format,
// the shape the operations plane's /spans endpoint serves.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"` // µs since the earliest span
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes spans as a Chrome trace-event file: one lane, the
// viewer nests spans by time containment; args carry id, parent, workload
// and rep so the tree can be rebuilt without the viewer.
func WriteChrome(w io.Writer, spans []Span) error {
	var base time.Time
	for _, s := range spans {
		if base.IsZero() || s.Start.Before(base) {
			base = s.Start
		}
	}
	// In start order; a parent is opened before its children, so its lower
	// ID puts it first when both start in the same instant.
	spans = append([]Span(nil), spans...)
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].ID < spans[j].ID
	})
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: s.Start.Sub(base).Microseconds(), Dur: s.Duration().Microseconds(),
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload, "rep": s.Rep},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"spanCount": len(spans)},
	})
}
