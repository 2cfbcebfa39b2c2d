package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded span. Spans of one sweep share Trace (the
// server's trace ID for remote sweeps); Parent is the causing span's ID,
// 0 for a root.
type spanRec struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent,omitempty"`
	Trace  string            `json:"trace,omitempty"`
	Name   string            `json:"name"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s spanRec) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps spans in memory until the run ends. Server row spans are
// only kept for the first keepSweeps traced sweeps, so a long run writes a
// bounded file; every span still feeds the metrics as it is joined.
type spanLog struct {
	mu      sync.Mutex
	spans   []spanRec
	dropped int
}

const keepSweeps = 32

func (l *spanLog) add(s spanRec) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

func (l *spanLog) drop(n int) {
	l.mu.Lock()
	l.dropped += n
	l.mu.Unlock()
}

// selfTime is one span name's total and self time. A span's self time is
// its duration minus the part of it its children cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (l *spanLog) selfTimes() []selfTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][]spanRec{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range l.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalMS += ms(s.dur())
		st.SelfMS += ms(s.dur() - covered(s, children[s.ID]))
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent spanRec, kids []spanRec) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// write stores the spans, their self times and the run context as one
// JSON document at path.
func (l *spanLog) write(path string, context map[string]any) error {
	self := l.selfTimes()
	l.mu.Lock()
	doc := map[string]any{
		"context":       context,
		"self_time":     self,
		"spans":         l.spans,
		"dropped_spans": l.dropped,
	}
	b, err := json.Marshal(doc)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
