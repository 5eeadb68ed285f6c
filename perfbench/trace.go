package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records one span per layer boundary crossed by a traced
// iteration. Spans are taken around calls into the program's public
// functions from this package only; nothing inside the program is
// instrumented. A nil *tracer still times the call (every workload needs
// the durations) but records nothing, which is the untraced path.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

// span is one timed call: name is "<layer>.<call>", parent the span that
// caused it (0 = root), op the operation (experiment call or request) it
// belongs to, and lane the Chrome trace row it is drawn on.
type span struct {
	Name       string
	ID, Parent int64
	Op         int64
	Lane       int
	Start, End time.Duration
}

// spanCtx identifies the enclosing span and operation for child spans.
type spanCtx struct{ id, op int64 }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span times f under name as a child of parent and returns the duration
// in seconds.
func (t *tracer) span(name string, parent spanCtx, lane int, f func(spanCtx)) float64 {
	if t == nil {
		start := time.Now()
		f(spanCtx{})
		return time.Since(start).Seconds()
	}
	id := t.nextID.Add(1)
	op := parent.op
	if op == 0 {
		op = id
	}
	start := time.Since(t.t0)
	f(spanCtx{id: id, op: op})
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent.id, Op: op, Lane: lane, Start: start, End: end})
	t.mu.Unlock()
	return (end - start).Seconds()
}

// layer is the part of a span name before its first dot ("flowsim" for
// "flowsim.solve").
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns each layer's self time in seconds: the duration of
// its spans minus the part of each span's interval covered by the span's
// direct children (children running in parallel are merged first, so a
// fan-out never counts the same instant twice).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		curS, curE := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				covered += curE - curS
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		covered += curE - curS
		out[layer(s.Name)] += (s.End - s.Start - covered).Seconds()
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (open in
// Perfetto or chrome://tracing): one complete event per span, with the
// span, parent and operation ids in args.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Cat: layer(s.Name), Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
