package machine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/sim"
)

// driveMachine runs a deterministic access script through a machine's full
// stack — tiles, coherence, NoC, DRAM — and returns the counter snapshot plus
// the final clock. Each tile issues a mix of strided private lines and
// contended shared lines, so the script generates request/response
// messages, invalidation multicasts, writebacks and DRAM bursts.
func driveMachine(t *testing.T, m *Machine) (obs.Snapshot, sim.Time) {
	t.Helper()
	done, want := 0, 0
	for tile := 0; tile < m.Tiles(); tile++ {
		tile := tile
		base := uint64(0x100000 + tile*64*257)
		for k := 0; k < 12; k++ {
			k := k
			addr := base + uint64(k)*64*uint64(1+tile%3)
			if k%5 == 4 {
				addr = 0x400000 + uint64(k%2)*64 // contended lines
			}
			write := (tile+k)%3 == 0
			want++
			m.Engine.ScheduleAt(sim.Time(1+tile+7*k), func() {
				m.Hier.Tile(tile).Access(addr, write, uint64(tile*100+k), func(cache.Level) { done++ })
			})
		}
	}
	m.Run()
	if done != want {
		t.Fatalf("%d/%d accesses completed", done, want)
	}
	return m.CollectStats(), m.Now()
}

// TestResetReplaysRun is the machine-level Reset oracle: the script run
// on a Reset machine reproduces the fresh machine's counters and clock.
func TestResetReplaysRun(t *testing.T) {
	m := New(CI())
	ref, refEnd := driveMachine(t, m)
	m.Reset()
	got, end := driveMachine(t, m)
	if end != refEnd {
		t.Fatalf("clock after Reset %d, fresh %d", end, refEnd)
	}
	for name, v := range ref {
		if got[name] != v {
			t.Errorf("%s = %d after Reset, fresh %d", name, got[name], v)
		}
	}
}

// TestFinishTraceCanonicalOrder checks that FinishTrace leaves the ring
// in (Time, Kind, Tile, A, B, Dur) order and keeps every event.
func TestFinishTraceCanonicalOrder(t *testing.T) {
	m := New(CI())
	tr := obs.NewTracer(0)
	m.SetTracer(tr)
	driveMachine(t, m)
	total := tr.Total()
	m.FinishTrace()
	evs := tr.Events()
	if len(evs) == 0 || tr.Total() != total || tr.Dropped() != 0 {
		t.Fatalf("trace holds %d events (total %d, was %d, dropped %d)", len(evs), tr.Total(), total, tr.Dropped())
	}
	less := func(a, b obs.Event) bool {
		switch {
		case a.Time != b.Time:
			return a.Time < b.Time
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Tile != b.Tile:
			return a.Tile < b.Tile
		case a.A != b.A:
			return a.A < b.A
		case a.B != b.B:
			return a.B < b.B
		}
		return a.Dur < b.Dur
	}
	for i := 1; i < len(evs); i++ {
		if less(evs[i], evs[i-1]) {
			t.Fatalf("event %d %+v sorts before event %d %+v", i, evs[i], i-1, evs[i-1])
		}
	}
}

// TestFinishAttributionFoldsLane checks that the run's charges reach the
// sink only through FinishAttribution, which also empties the lane, and
// that Close detaches every charge site.
func TestFinishAttributionFoldsLane(t *testing.T) {
	m := New(CI())
	sink := obs.NewAttribution()
	m.SetAttribution(sink)
	driveMachine(t, m)
	lane := *m.AttributionLane()
	if *sink != (obs.Attribution{}) {
		t.Fatal("charges reached the sink before FinishAttribution")
	}
	if lane.Hists[obs.HistNoCLinkWait].Count == 0 {
		t.Fatal("the script charged no link waits")
	}
	m.FinishAttribution()
	if *sink != lane {
		t.Fatal("sink does not hold the lane's charges after FinishAttribution")
	}
	if *m.AttributionLane() != (obs.Attribution{}) {
		t.Fatal("FinishAttribution left charges in the lane")
	}
	m.Close()
	if m.AttributionLane() != nil || m.Attrib != nil || m.Tracer != nil {
		t.Fatal("Close left observability attached")
	}
}
