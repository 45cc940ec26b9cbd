package runner

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// TestExecuteRepeatableInProcess pins that re-executing the same Job in
// one process, each time on a freshly built machine (nil env), reproduces
// the exact cycle count — the property memoization and the -j1/-jN
// byte-identity guarantee both rest on. hash_join is the
// regression workload: its pointer chase keeps >64 prefetcher regions
// open, which once made the Bingo generation cap evict by map iteration
// order and the cycle count drift between identical runs.
func TestExecuteRepeatableInProcess(t *testing.T) {
	j := Job{Workload: "hash_join", System: core.Base, Scale: workloads.ScaleCI,
		CoreType: "OOO8", Seed: 1}
	a, err := executeJob(j, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := executeJob(j, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("re-execution diverged:\n%+v\n%+v", a, b)
	}
}
