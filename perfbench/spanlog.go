package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanRecord is one timed call the benchmark made into the program.
type spanRecord struct {
	Iter   int     `json:"iter"`   // iteration the span belongs to (the trace identifier)
	ID     int     `json:"id"`     // index within the iteration
	Parent int     `json:"parent"` // enclosing span's ID, -1 at the top
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // from the iteration's first span
	End    float64 `json:"end_ms"`
}

// spanLog keeps the benchmark's own spans of one iteration in memory.
type spanLog struct {
	iter  int
	t0    time.Time
	spans []spanRecord
	durs  []time.Duration
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span nested in the innermost open one; the returned
// function closes it.
func (l *spanLog) begin(name string) func() {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	idx := len(l.spans)
	start := time.Now()
	l.spans = append(l.spans, spanRecord{ID: idx, Parent: parent, Name: name, Start: ms(start.Sub(l.t0))})
	l.durs = append(l.durs, 0)
	l.open = append(l.open, idx)
	return func() {
		end := time.Now()
		l.spans[idx].End = ms(end.Sub(l.t0))
		l.durs[idx] = end.Sub(start)
		l.open = l.open[:len(l.open)-1]
	}
}

// durations lists the closed spans with the given name, in start order.
func (l *spanLog) durations(name string) []time.Duration {
	var out []time.Duration
	for i, s := range l.spans {
		if s.Name == name {
			out = append(out, l.durs[i])
		}
	}
	return out
}

// total sums the durations of the spans with the given name.
func (l *spanLog) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range l.durations(name) {
		sum += d
	}
	return sum
}

// writeSpans writes every log's spans as JSON lines to path.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, l := range logs {
		for _, s := range l.spans {
			s.Iter = l.iter
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
