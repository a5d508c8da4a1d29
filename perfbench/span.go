package main

import "time"

// tracer records spans around the benchmark's calls into each layer of the
// program.  Spans nest: ending a span adds its duration to the enclosing
// span's child time, so a span's self time is its duration minus the part
// its children cover.  Spans are folded into per-name sums as they end,
// which keeps the hot per-observation spans of the fault analysis cheap;
// only root (trial) spans keep their individual coverage.
type tracer struct {
	stack  []frame
	sums   map[string]*spanSum
	counts map[string]float64
	// coverage holds, per ended root span, the share of its duration that
	// its direct children cover.
	coverage []float64
}

type frame struct {
	name  string
	start time.Time
	child time.Duration
}

// spanSum accumulates every ended span of one name.
type spanSum struct {
	total, self time.Duration
	n           int
}

func newTracer() *tracer {
	return &tracer{sums: make(map[string]*spanSum), counts: make(map[string]float64)}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	t.stack = append(t.stack, frame{name: name, start: time.Now()})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	s := t.sums[f.name]
	if s == nil {
		s = &spanSum{}
		t.sums[f.name] = s
	}
	s.total += d
	s.self += d - f.child
	s.n++
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	} else if d > 0 {
		t.coverage = append(t.coverage, float64(f.child)/float64(d))
	}
	return d
}

// span runs fn inside a span named name.
func (t *tracer) span(name string, fn func() error) error {
	t.begin(name)
	defer t.end()
	return fn()
}

// add accumulates a count under name.
func (t *tracer) add(name string, v float64) { t.counts[name] += v }

// ms is the total duration of the spans named name, in milliseconds.
func (t *tracer) ms(name string) float64 {
	if s := t.sums[name]; s != nil {
		return float64(s.total) / 1e6
	}
	return 0
}

// selfMS is the total self time of the spans named name, in milliseconds.
func (t *tracer) selfMS(name string) float64 {
	if s := t.sums[name]; s != nil {
		return float64(s.self) / 1e6
	}
	return 0
}
