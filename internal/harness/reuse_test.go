package harness

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestFigureBytesInvariantUnderReuse pins the reuse-equivalence contract:
// machine pooling, arena-backed workload data and dataset memoization are
// execution knobs, so every figure must render byte-identically with
// reuse on (the default) and off (fresh machine, GC-backed arrays,
// regenerated dataset for every job), at -j 1 and -j 8. The reference
// cell is reuse-off at -j 1 — the pre-pooling fresh-build path. At -j 8
// which job draws a pooled machine (vs building fresh on a pool miss) is
// scheduling-dependent, so this also checks that checkout order never
// leaks into results.
func TestFigureBytesInvariantUnderReuse(t *testing.T) {
	render := func(jobs int, reuse bool) map[string]string {
		cfg := DefaultConfig()
		cfg.Jobs = jobs
		e := NewExp(cfg)
		e.Pool().SetReuse(reuse)
		out := make(map[string]string)
		for _, fc := range []struct {
			id     string
			subset []string
			render func(*Exp, []string) (*Table, error)
		}{
			{"9", []string{"pathfinder", "hash_join"}, (*Exp).Fig9},
			{"16", []string{"bfs_push"}, (*Exp).Fig16},
		} {
			tab, err := fc.render(e, fc.subset)
			if err != nil {
				t.Fatalf("fig %s j=%d reuse=%v: %v", fc.id, jobs, reuse, err)
			}
			out[fc.id] = tab.String()
		}
		if reuse {
			// The cells exist to exercise reuse: Fig 9's seven non-Base
			// systems share one machine config and each workload's eight
			// systems share a dataset, so a cell with zero hits means the
			// pool plumbing silently fell back to fresh builds.
			hits, _ := e.Pool().MachineReuse()
			dh, _, _, _ := e.Pool().DatasetCacheStats()
			if hits == 0 || dh == 0 {
				t.Fatalf("j=%d: machine hits=%d dataset hits=%d, want both > 0",
					jobs, hits, dh)
			}
		}
		return out
	}
	want := render(1, false)
	for _, jobs := range []int{1, 8} {
		got := render(jobs, true)
		for id, tab := range want {
			if got[id] != tab {
				t.Errorf("fig %s differs with reuse at j=%d vs fresh-build serial:\n--- fresh ---\n%s--- reuse ---\n%s",
					id, jobs, tab, got[id])
			}
		}
	}
}

// TestSteadyStateAllocsDropWithReuse is the alloc guard for the reuse
// machinery: once the pool is warm, a job that checks out a pooled
// machine, draws array storage from a recycled arena and copies its
// dataset from the cache must allocate strictly less than the cold job
// that built all three. The two jobs differ only in system (NS vs
// NS_no_sync), so the second is a machine-pool hit AND a dataset-cache
// hit — the steady state of a figure sweep. The margin is deliberately
// loose (second <= 3/4 of first) so runtime-internal allocation noise
// under -race can't flake it; a regression that rebuilds the machine per
// job overshoots it by a wide margin.
func TestSteadyStateAllocsDropWithReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 1
	e := NewExp(cfg)
	p := e.Pool()

	mallocs := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	job := func(system core.System) {
		t.Helper()
		if _, err := p.RunOne(cfg.Job("histogram", system)); err != nil {
			t.Fatalf("%v: %v", system, err)
		}
	}

	cold := mallocs(func() { job(core.NS) })
	warm := mallocs(func() { job(core.NSNoSync) })

	hits, misses := p.MachineReuse()
	if hits != 1 || misses != 1 {
		t.Fatalf("machine pool hits=%d misses=%d, want 1/1", hits, misses)
	}
	dh, dm, _, _ := p.DatasetCacheStats()
	if dh != 1 || dm != 1 {
		t.Fatalf("dataset cache hits=%d misses=%d, want 1/1", dh, dm)
	}
	if warm > cold*3/4 {
		t.Errorf("steady-state job allocated %d objects vs %d cold (want <= 3/4): machine/arena/dataset reuse regressed", warm, cold)
	}
}
