package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The toy model behind the barrier oracle: N nodes, each owning a private
// rand stream, fire local events and send messages to other nodes. With
// immediate sends (a ScheduleAt at the send site) it is the reference;
// with sends captured during a barrier window and routed at the flush in
// canonical (time, src, seq) order, delivered with back-dated stamps, it
// must fire the same events at the same cycles — the claim the NoC makes
// for the real machine, reduced to its essentials.

const (
	toyNodes  = 8
	toyWindow = 8 // lookahead: every message latency is >= this
)

type toyMsg struct {
	at   Time
	src  int
	seq  uint64
	dst  int
	late Time
	fn   Event
}

// toyNet is the model's interconnect. With deferred set, sends go to an
// outbox that the engine's barrier flushes.
type toyNet struct {
	e        *Engine
	deferred bool
	outbox   []toyMsg
	seq      []uint64 // per-src send counter, the canonical tiebreak
	last     Time     // cycle of the last fired model event
}

func newToyNet(deferred bool) *toyNet {
	tn := &toyNet{e: NewEngine(), deferred: deferred, seq: make([]uint64, toyNodes)}
	if deferred {
		tn.e.SetBarrier(toyWindow, tn.captured, tn.flush)
	}
	return tn
}

func (tn *toyNet) captured() Time {
	if len(tn.outbox) == 0 {
		return MaxTime
	}
	return tn.outbox[0].at
}

func (tn *toyNet) send(src, dst int, latency Time, fn Event) {
	if !tn.deferred {
		tn.e.ScheduleAt(tn.e.Now()+latency, fn)
		return
	}
	tn.seq[src]++
	tn.outbox = append(tn.outbox, toyMsg{at: tn.e.Now(), src: src, seq: tn.seq[src],
		dst: dst, late: latency, fn: fn})
}

func (tn *toyNet) flush(limit Time) {
	all := tn.outbox
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for _, m := range all {
		if m.at+m.late <= limit {
			panic("toy: delivery inside the window it was sent in")
		}
		tn.e.ScheduleStampedAt(m.at+m.late, m.at, m.fn)
	}
	tn.outbox = all[:0]
}

// runToyModel seeds the node model on tn, drives it with run and returns
// one log of "node t=cycle tag" lines in firing order. With tieFree set,
// local delays are even and message latencies odd (and per-src distinct),
// so no delivery shares an (arrival, send-time) key with a local event or
// another sender's delivery, and immediate and deferred sends must agree
// on the exact total order.
func runToyModel(tn *toyNet, seed int64, tieFree bool, run func(e *Engine)) []string {
	var log []string
	rngs := make([]*rand.Rand, toyNodes)
	counts := make([]int, toyNodes)
	for n := range rngs {
		rngs[n] = rand.New(rand.NewSource(seed + int64(n)))
	}
	e := tn.e

	latency := func(src int, r *rand.Rand) Time {
		base := Time(toyWindow + r.Intn(3)*2*toyNodes)
		if tieFree {
			return base + Time(2*src) + 1 // odd, distinct per src
		}
		return base + Time(r.Intn(5))
	}
	localDelay := func(r *rand.Rand) Time {
		d := Time(r.Intn(6) * 2) // even
		if !tieFree && r.Intn(4) == 0 {
			d++
		}
		if r.Intn(16) == 0 {
			d += wheelSize // exercise the overflow heap too
		}
		return d
	}

	var event func(node int, tag string) Event
	event = func(node int, tag string) Event {
		return func() {
			log = append(log, fmt.Sprintf("%d t=%d %s", node, e.Now(), tag))
			tn.last = e.Now()
			if counts[node] >= 120 {
				return
			}
			counts[node]++
			r := rngs[node]
			for c := r.Intn(3); c > 0; c-- {
				e.Schedule(localDelay(r), event(node, fmt.Sprintf("%s.l%d", tag, c)))
			}
			if r.Intn(2) == 0 {
				dst := r.Intn(toyNodes - 1)
				if dst >= node {
					dst++
				}
				tn.send(node, dst, latency(node, r), event(dst, fmt.Sprintf("%s>%d", tag, dst)))
			}
		}
	}

	for n := 0; n < toyNodes; n++ {
		e.ScheduleAt(Time(n+1), event(n, fmt.Sprintf("seed%d", n)))
	}
	run(e)
	return log
}

func diffLogs(t *testing.T, want, got []string, a, b string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s fired %d events, %s fired %d", a, len(want), b, len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("event %d: %s=%q %s=%q", i, a, want[i], b, got[i])
		}
	}
}

func runAll(e *Engine) { e.Run() }

// TestBarrierMatchesImmediateScheduling is the barrier property oracle:
// on a randomized tie-free workload, deferring every send to the window
// flush (canonical order, back-dated stamps) must fire every event at the
// same cycle in the same order as scheduling it at the send site.
func TestBarrierMatchesImmediateScheduling(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		ref := runToyModel(newToyNet(false), seed, true, runAll)
		got := runToyModel(newToyNet(true), seed, true, runAll)
		diffLogs(t, ref, got, "immediate", "barrier")
	}
}

// TestBarrierRunToMatchesRun checks the sampler contract with a barrier:
// interleaving RunTo(limit) steps at any cadence — including cadences
// that cut barrier windows short — fires the same events at the same
// cycles as one Run, never fires an event past the limit, ends on the
// same clock, and leaves the clock at the limit while work remains.
func TestBarrierRunToMatchesRun(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		var refEnd Time
		ref := runToyModel(newToyNet(true), seed, false, func(e *Engine) { refEnd = e.Run() })
		for _, period := range []Time{1, 3, toyWindow, 50, 1000} {
			var end Time
			tn := newToyNet(true)
			got := runToyModel(tn, seed, false, func(e *Engine) {
				for limit := period; ; limit += period {
					drained := e.RunTo(limit)
					if tn.last > limit {
						t.Fatalf("period %d: RunTo(%d) fired an event at %d", period, limit, tn.last)
					}
					if drained {
						break
					}
					if e.Now() != limit {
						t.Fatalf("period %d: undrained RunTo(%d) left the clock at %d", period, limit, e.Now())
					}
				}
				end = e.Now()
			})
			diffLogs(t, ref, got, "Run", fmt.Sprintf("RunTo/%d", period))
			if end != refEnd {
				t.Fatalf("period %d: stepped run ended at %d, one Run at %d", period, end, refEnd)
			}
		}
	}
}

// TestBarrierWindowPlacement pins where windows open: at the earliest
// pending event (an idle stretch costs no barrier), or earlier when the
// model captured work before it — a send issued before Run, with or
// without events queued — so the captured work is flushed in a window
// that contains its time. Each flush sees its window's last cycle, and
// Reset keeps the barrier but clears the window count.
func TestBarrierWindowPlacement(t *testing.T) {
	e := NewEngine()
	captured := MaxTime
	var limits []Time
	e.SetBarrier(toyWindow, func() Time { return captured }, func(limit Time) {
		limits = append(limits, limit)
		captured = MaxTime
	})
	e.ScheduleAt(3, func() {})
	e.ScheduleAt(5000, func() {})
	if end := e.Run(); end != 5000 {
		t.Fatalf("Run ended at %d, want 5000", end)
	}
	if fmt.Sprint(limits) != "[10 5007]" || e.Windows() != 2 {
		t.Fatalf("flush limits %v (windows %d), want [10 5007]", limits, e.Windows())
	}

	e.Reset()
	if e.Windows() != 0 {
		t.Fatalf("Reset left %d windows", e.Windows())
	}
	for _, queued := range []bool{false, true} {
		limits = nil
		captured = e.Now()
		if queued {
			e.ScheduleAt(e.Now()+5, func() {})
		}
		start := e.Now()
		e.Run()
		if want := fmt.Sprint([]Time{start + toyWindow - 1}); fmt.Sprint(limits) != want {
			t.Fatalf("queued=%v: flush limits %v, want %s (a window opening at the capture)", queued, limits, want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a second barrier must panic")
		}
	}()
	e.SetBarrier(1, func() Time { return MaxTime }, func(Time) {})
}
