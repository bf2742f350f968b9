package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span
// that caused it (0 for a root); spans of one round share their round's
// root, and each API read is its own root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check. It is owned by the
// simulation goroutine; the API reader keeps its own spans and hands
// them over with adopt after it has stopped.
type tracer struct {
	origin time.Time
	spans  []span
	next   int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open starts a span and returns its ID (0 when not tracing).
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Start: int64(time.Since(t.origin))})
	return t.next
}

// close ends the span with the given ID. Spans close in LIFO order on
// the owning goroutine, so the open span is found from the end.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].End = now
			return
		}
	}
}

// adopt appends spans recorded elsewhere, renumbering them past the
// tracer's own IDs.
func (t *tracer) adopt(spans []span) {
	if t == nil {
		return
	}
	base := t.next
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		if s.ID > t.next {
			t.next = s.ID
		}
		t.spans = append(t.spans, s)
	}
}

// layerTime is one span name's total and self time: self is the span's
// duration minus the part its child spans cover.
type layerTime struct {
	Name         string
	Count        int
	Total, Child time.Duration
}

func (l layerTime) Self() time.Duration { return l.Total - l.Child }

// selfTimes aggregates spans by name. Children of one span run on the
// same goroutine one after another, so their durations do not overlap
// and sum to the covered part of the parent.
func (t *tracer) selfTimes() []layerTime {
	if t == nil {
		return nil
	}
	byID := make(map[int]int, len(t.spans))
	for i, s := range t.spans {
		byID[s.ID] = i
	}
	agg := map[string]*layerTime{}
	get := func(name string) *layerTime {
		l, ok := agg[name]
		if !ok {
			l = &layerTime{Name: name}
			agg[name] = l
		}
		return l
	}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		l := get(s.Name)
		l.Count++
		l.Total += d
		if i, ok := byID[s.Parent]; ok {
			get(t.spans[i].Name).Child += d
		}
	}
	out := make([]layerTime, 0, len(agg))
	for _, l := range agg {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
