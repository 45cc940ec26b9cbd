package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one job or request share Req.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Req    string  `json:"req,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`

	log *spanLog
}

// spanLog keeps every span in memory until the run ends. A nil log
// records nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() float64 { return float64(time.Since(l.t0).Nanoseconds()) / 1e6 }

// start opens a span under parent (nil = a root).
func (l *spanLog) start(name, req string, parent *span) *span {
	if l == nil {
		return nil
	}
	s := &span{Name: name, Req: req, log: l, Start: l.now()}
	if parent != nil {
		s.Parent = parent.ID
	}
	l.mu.Lock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return s
}

// end closes the span; safe on nil.
func (s *span) end() {
	if s == nil {
		return
	}
	t := s.log.now()
	s.log.mu.Lock()
	s.End = t
	s.log.mu.Unlock()
}

// all returns a snapshot of the recorded spans in start order.
func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]span, len(l.spans))
	for i, s := range l.spans {
		out[i] = *s
		out[i].log = nil
	}
	return out
}

// durations groups closed span durations (ms) by name.
func (l *spanLog) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range l.all() {
		if s.End > 0 {
			out[s.Name] = append(out[s.Name], s.End-s.Start)
		}
	}
	return out
}

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-percentile sample that still has at least ten
// samples above it, with its nearest-rank percentile. With ten samples or
// fewer no such sample exists and the maximum is returned at 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	i := n - 11
	if i < 0 {
		return s[n-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailBlock caps the samples one tail is taken over. Longer sample sets
// are cut into consecutive blocks of this size and the median of the
// blocks' tails is reported, so the tail stays at the 99th percentile
// however many requests a run completes, instead of drifting towards the
// single worst hiccup.
const tailBlock = 1000

// latencyStats records a latency sample set's p50 and tail (ms) into the
// outcome's metrics under prefix, with sample count, tail percentile and
// block count in the details.
func (o *outcome) latencyStats(prefix string, ms []float64) {
	var tails []float64
	var pct float64
	for lo := 0; lo < len(ms); lo += tailBlock {
		if len(ms)-lo < tailBlock && lo > 0 {
			break // a short last block would sit at a lower percentile
		}
		tv, tp := tail(ms[lo:min(lo+tailBlock, len(ms))])
		tails = append(tails, tv)
		pct = tp
	}
	o.metrics[prefix+"_p50_ms"] = median(ms)
	o.metrics[prefix+"_tail_ms"] = median(tails)
	o.details[prefix+"_samples"] = len(ms)
	o.details[prefix+"_tail_percentile"] = pct
	o.details[prefix+"_tail_blocks"] = len(tails)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
