package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
)

// profiler captures the CPU profile and allocation volume of a traced
// run's measured window (not its set-up, not the replay).
type profiler struct {
	buf         bytes.Buffer
	allocBefore uint64
	allocBytes  uint64
	running     bool
}

// windowStart and windowEnd bracket a workload's measured window. Both
// profile only in traced runs. windowStart always collects set-up's
// garbage and returns it to the OS first, so no window starts with a
// collection already owed, then restarts the peak-RSS count (see
// peakRSSMB) so it covers the window alone.
func (b *bench) windowStart() error {
	debug.FreeOSMemory()
	resetPeakRSS()
	if b.prof == nil || b.prof.running || b.prof.buf.Len() > 0 {
		return nil // untraced, or the window was already captured
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.prof.allocBefore = ms.TotalAlloc
	if err := pprof.StartCPUProfile(&b.prof.buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	b.prof.running = true
	return nil
}

func (b *bench) windowEnd() {
	if b.prof == nil || !b.prof.running {
		return
	}
	pprof.StopCPUProfile()
	b.prof.running = false
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.prof.allocBytes = ms.TotalAlloc - b.prof.allocBefore
}

// spanMetrics maps per-layer metrics to the span whose median duration
// (ms) they report.
var spanMetrics = map[string]string{
	"harness.figure_ms":      "harness.figure",
	"harness.render_warm_ms": "harness.render_warm",
	"workloads.dataset_ms":   "workloads.dataset",
	"compiler.compile_ms":    "compiler.compile",
	"machine.new_ms":         "machine.new",
	"machine.reset_ms":       "machine.reset",
	"machine.collect_ms":     "machine.collect",
	"core.run_ms.base":       "core.run.base",
	"core.run_ms.stream":     "core.run.stream",
	"serve.submit_ms":        "serve.submit",
	"serve.follow_ms":        "serve.follow",
	"serve.result_ms.job":    "serve.result.job",
	"serve.result_ms.figure": "serve.result.figure",
	"runner.store_load_ms":   "runner.store_load",
	"runner.store_put_ms":    "runner.store_put",
}

// traceRun measures the workload with spans and a CPU profile, replays
// every job it executed, checks the replay against the program's results
// and the replayed phases against the pool's job time, and derives the
// per-layer metrics.
func traceRun(b *bench, fn workloadFn) (*outcome, error) {
	b.prof = &profiler{}
	out, err := fn(b, true)
	b.windowEnd()
	if err != nil {
		return nil, err
	}

	prof := b.prof.buf.Bytes()
	if err := os.MkdirAll(filepath.Join(b.work, "traces"), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(b.work, "traces", fmt.Sprintf("%s-seed%d.cpu.pprof", b.name, b.seed)), prof, 0o644); err != nil {
		return nil, err
	}
	self, err := selfByModule(prof)
	if err != nil {
		return nil, err
	}
	for mod, frac := range self {
		out.metrics[mod+".self_frac"] = frac
	}
	jobs, _ := out.details["jobs_resolved"].(int)
	out.metrics["runtime.alloc_mb_per_job"] = ratio(float64(b.prof.allocBytes)/(1<<20), float64(jobs))

	tot := replay(out.replay, out.replayWorkers, b.spans)
	for _, m := range tot.mismatches {
		out.fail("%s", m)
	}
	out.attempted += tot.jobs
	out.details["replayed_jobs"] = tot.jobs
	if tot.poolMs > 0 {
		cov := tot.phaseMs / tot.poolMs
		out.metrics["replay.phase_coverage"] = cov
		out.details["replay_phase_ms"] = tot.phaseMs
		out.details["pool_job_ms"] = tot.poolMs
		if tol := b.spec.PhaseCoverageTol; cov < 1-tol || cov > 1+tol {
			out.fail("replayed phases sum to %.3f of the pool's job time (tolerance ±%.2f)", cov, tol)
		}
	}
	if tot.uops > 0 {
		out.metrics["core.host_ns_per_uop"] = tot.runMs * 1e6 / float64(tot.uops)
		out.metrics["sim.events_per_kuop"] = float64(tot.events) * 1000 / float64(tot.uops)
		out.details["replayed_uops"] = tot.uops
		out.details["replayed_events"] = tot.events
	}
	if tot.events > 0 {
		out.metrics["core.host_ns_per_event"] = tot.runMs * 1e6 / float64(tot.events)
	}

	durs := b.spans.durations()
	for metric, name := range spanMetrics {
		if _, set := out.metrics[metric]; !set && len(durs[name]) > 0 {
			out.metrics[metric] = median(durs[name])
			out.details[metric+"_samples"] = len(durs[name])
		}
	}
	if err := probeLayers(b, out); err != nil {
		return nil, err
	}
	return out, nil
}
