package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one call into a layer. Spans of one replayed query share Query;
// Parent is -1 for the query's root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Query  int32  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. The replay is single-threaded, so open
// spans form a stack and the innermost open span is each new span's
// parent. A tracer that is off records nothing.
type tracer struct {
	on    bool
	epoch time.Time
	query int32
	spans []span
	stack []int32
}

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else {
		t.query++
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: t.query, Name: name, Start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTotals sums the spans of one name.
type layerTotals struct {
	n           int64
	total, self time.Duration
}

// totals sums spans by name. A span's self time is its duration minus the
// part of its interval that its children cover.
func (t *tracer) totals() map[string]*layerTotals {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.n++
		lt.total += time.Duration(dur)
		lt.self += time.Duration(dur - covered(t.spans, children[i], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to [start, end].
func covered(spans []span, kids []int32, start, end int64) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, start), min(spans[k].End, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] > curB:
			sum += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		sum += curB - curA
	}
	return sum
}

// tracingCost measures what recording one span and one allocation-counter
// read cost on this machine, so a run can take its own tracing out of the
// replay walls.
func tracingCost() (perSpanNs, perAllocReadNs float64) {
	const n = 50000
	t := &tracer{on: true, epoch: time.Now()}
	root := t.begin("calibrate")
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x"))
	}
	perSpanNs = float64(time.Since(start)) / n
	t.end(root)
	start = time.Now()
	for i := 0; i < n; i++ {
		heapAllocs()
	}
	return perSpanNs, float64(time.Since(start)) / n
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
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
		return err
	}
	return f.Close()
}
