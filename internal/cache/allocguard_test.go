package cache

import (
	"testing"

	"repro/internal/obs"
)

// TestLockHotPathAllocFreeTracingDisabled pins the observability
// zero-cost contract on the cache side: with a tracer attached but
// disabled (the normal production state — nsexp without -trace), the
// line-lock acquire/release fast path must not allocate at all. The
// disabled check is a single branch; anything more shows up here.
func TestLockHotPathAllocFreeTracingDisabled(t *testing.T) {
	_, h := testMachine()
	h.SetTracer(obs.NewTracer(64)) // attached, not enabled
	bank := h.Bank(0)
	grant := func() {}
	for i := 0; i < 64; i++ { // warm the lock pool across the line set
		line := uint64(i) * 64
		bank.AcquireLock(line, 1, true, LockMRSW, grant)
		bank.ReleaseLock(line, 1, true, LockMRSW)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		line := uint64(i%64) * 64
		i++
		bank.AcquireLock(line, 1, true, LockMRSW, grant)
		bank.ReleaseLock(line, 1, true, LockMRSW)
	}); a != 0 {
		t.Errorf("lock acquire/release with disabled tracer: %.1f allocs/op, want 0", a)
	}
}

// TestLockHotPathAllocFreeWithAttribution pins the same contract for
// the cycle-attribution profiler: the uncontended lock fast path must
// not allocate whether attribution is off (nil lane — a single branch
// at the charge site) or on (charges are fixed-array adds). A contended
// acquire must actually charge line_lock; that path parks a retry
// closure by design, so only the uncontended loop is alloc-guarded.
func TestLockHotPathAllocFreeWithAttribution(t *testing.T) {
	for _, tc := range []struct {
		name string
		lane *obs.Attribution
	}{
		{"disabled", nil},
		{"enabled", obs.NewAttribution()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, h := testMachine()
			h.SetAttribution(tc.lane)
			bank := h.Bank(0)
			grant := func() {}
			for i := 0; i < 64; i++ { // warm the lock pool across the line set
				line := uint64(i) * 64
				bank.AcquireLock(line, 1, true, LockMRSW, grant)
				bank.ReleaseLock(line, 1, true, LockMRSW)
			}
			i := 0
			if a := testing.AllocsPerRun(1000, func() {
				line := uint64(i%64) * 64
				i++
				bank.AcquireLock(line, 1, true, LockMRSW, grant)
				bank.ReleaseLock(line, 1, true, LockMRSW)
			}); a != 0 {
				t.Errorf("lock acquire/release with %s attribution: %.1f allocs/op, want 0", tc.name, a)
			}
			// Contended acquire: holder 1 keeps the line, holder 2 blocks.
			bank.AcquireLock(0, 1, true, LockMRSW, grant)
			bank.AcquireLock(0, 2, true, LockMRSW, func() {})
			if tc.lane != nil && tc.lane.Counts[obs.StallLineLock] == 0 {
				t.Error("contended acquire charged no line_lock stall")
			}
			bank.ReleaseLock(0, 1, true, LockMRSW)
		})
	}
}
