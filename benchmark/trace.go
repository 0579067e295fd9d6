package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// setupOp is the op id of spans recorded while a workload sets up; timed
// ops are numbered from 0.
const setupOp = -1

// spanRec is one recorded span. Start and End are nanoseconds since the
// recorder was created; Parent is the ID of the enclosing span, 0 for a
// root. Spans of one op share Op.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run. A nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is a handle on an open span; the zero span (from a nil tracer)
// ignores every call.
type span struct {
	t  *tracer
	id int
	op int
}

// root opens a span with no parent.
func (t *tracer) root(name string, op int) span {
	if t == nil {
		return span{}
	}
	return t.open(name, op, 0)
}

func (t *tracer) open(name string, op, parent int) span {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return span{t: t, id: id, op: op}
}

// child opens a span inside s.
func (s span) child(name string) span {
	if s.t == nil {
		return span{}
	}
	return s.t.open(name, s.op, s.id)
}

// end closes s.
func (s span) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

// traced reports whether s records anything.
func (s span) traced() bool { return s.t != nil }

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanRec, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeFile dumps the closed spans as JSON.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(struct {
		Spans []spanRec `json:"spans"`
	}{t.snapshot()})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children may nest, overlap each other, or run past their parent (a
// concurrent child); only the covered part inside the parent counts.
func selfTimes(spans []spanRec) map[int]int64 {
	kids := make(map[int][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of [start, end) covered by the union of the
// children's intervals.
func covered(start, end int64, children []spanRec) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, start), min(c.End, end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// layerTimes sums self time by span name over the spans whose op keep
// accepts, and counts the calls of each name.
func layerTimes(spans []spanRec, keep func(op int) bool) (self map[string]int64, calls map[string]int) {
	st := selfTimes(spans)
	self, calls = make(map[string]int64), make(map[string]int)
	for _, s := range spans {
		if !keep(s.Op) {
			continue
		}
		self[s.Name] += st[s.ID]
		calls[s.Name]++
	}
	return self, calls
}

// unattributedShare is the share of the timed root spans' wall time that
// no child span covers: the part of an op no layer claims.
func unattributedShare(spans []spanRec) float64 {
	st := selfTimes(spans)
	var wall, un int64
	for _, s := range spans {
		if s.Parent == 0 && s.Op != setupOp {
			wall += s.End - s.Start
			un += st[s.ID]
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(un) / float64(wall)
}
