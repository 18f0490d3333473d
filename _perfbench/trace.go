package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// A span is one timed call at a layer boundary of the in-process replay.
// Spans nest strictly (the replay is single-threaded), so a span's self
// time is its duration minus the durations of its direct children.
type span struct {
	name       string
	parent     int32 // index into tracer.spans; -1 for a request root
	start, end int64 // nanoseconds since the tracer started
	alloc      int64 // heap bytes allocated inside the span; -1 when not measured
}

// tracer records spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, alloc: -1})
	t.stack = append(t.stack, id)
	t.spans[id].start = t.now()
	return id
}

// beginAlloc is begin that also counts the heap bytes allocated inside
// the span. The allocation counter is read outside the timed interval, so
// the span's own duration excludes the (stop-the-world) read.
func (t *tracer) beginAlloc(name string) int32 {
	runtime.ReadMemStats(&t.ms)
	before := int64(t.ms.TotalAlloc)
	id := t.begin(name)
	t.spans[id].alloc = before
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	s := &t.spans[id]
	s.end = t.now()
	if s.alloc >= 0 {
		runtime.ReadMemStats(&t.ms)
		s.alloc = int64(t.ms.TotalAlloc) - s.alloc
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns every span's duration minus its direct children's.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// root returns the request span a span belongs to.
func (t *tracer) root(i int32) int32 {
	for t.spans[i].parent >= 0 {
		i = t.spans[i].parent
	}
	return i
}

// under reports whether span i belongs to a request root named one of
// roots (any root when none are given).
func (t *tracer) under(i int, roots []string) bool {
	if len(roots) == 0 {
		return true
	}
	name := t.spans[t.root(int32(i))].name
	for _, r := range roots {
		if name == r {
			return true
		}
	}
	return false
}

// durations returns the durations (µs) of the spans named name under the
// given request roots.
func (t *tracer) durations(name string, roots ...string) []float64 {
	var out []float64
	for i, s := range t.spans {
		if s.name == name && t.under(i, roots) {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// allocs returns the measured allocations (KiB) of the spans named name
// under the given request roots.
func (t *tracer) allocs(name string, roots ...string) []float64 {
	var out []float64
	for i, s := range t.spans {
		if s.name == name && s.alloc >= 0 && t.under(i, roots) {
			out = append(out, float64(s.alloc)/1024)
		}
	}
	return out
}

// spanRecord is the on-disk form of a span.
type spanRecord struct {
	Pass   string `json:"pass"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Alloc  int64  `json:"alloc_bytes,omitempty"`
}

// writeSpans appends every span of the given tracers to a gzipped JSON
// lines file, one span per line.
func writeSpans(path string, passes map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	names := make([]string, 0, len(passes))
	for name := range passes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, pass := range names {
		t := passes[pass]
		self := t.selfTimes()
		for i, s := range t.spans {
			rec := spanRecord{Pass: pass, ID: int32(i), Parent: s.parent, Req: t.root(int32(i)),
				Name: s.name, Start: s.start, End: s.end, Self: self[i]}
			if s.alloc > 0 {
				rec.Alloc = s.alloc
			}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkSelfTimes reports the first span whose self time is negative.
func checkSelfTimes(pass string, t *tracer) error {
	for i, st := range t.selfTimes() {
		if st < 0 {
			return fmt.Errorf("%s: span %d (%s) has negative self time %dns", pass, i, t.spans[i].name, st)
		}
	}
	return nil
}
