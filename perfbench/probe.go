package main

import (
	"context"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/serve"
)

// probeLayers fills the per-layer time metrics a workload's own traced
// measurement never reached (serve on figures_quick, simulation layers on
// nsd_warm, ...) so that every timing a traced run prints is measured.
// The probe is small and the same on every workload: one Base and one NS
// hash_join job and a figure 1a request through a fresh two-worker fleet,
// the same figure rendered twice in process, Store.Put/Load of the two
// results, and a replay of each job twice (the second on a Reset
// machine). It records into its own span log, and the metrics it filled
// are listed in the details under "probed".
func probeLayers(b *bench, o *outcome) error {
	ctx := context.Background()
	spans := newSpanLog()
	cfg := harness.DefaultConfig()
	var jobs []replayJob
	var latency, overhead, dispatch []float64

	dir, err := b.tempDir("probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rig, err := startFleet(dir)
	if err != nil {
		return err
	}
	c := client(rig.coord.url, "probe", rig.hc)
	for i, sys := range []core.System{core.Base, core.NS} {
		j := cfg.Job("hash_join", sys)
		j.Seed = jobSeed(b.seed, 1<<20+i)
		r, err := do(ctx, c, serve.JobRequestFor(j), "", spans, j.Key())
		if err != nil {
			rig.stop()
			return fmt.Errorf("probe job %s: %w", j.Key(), err)
		}
		jobs = append(jobs, replayJob{job: j, want: r.job.Result})
		latency = append(latency, r.latency)
	}
	if _, err := do(ctx, c, serve.JobRequest{}, "1a", spans, "fig1a"); err != nil {
		rig.stop()
		return fmt.Errorf("probe figure 1a: %w", err)
	}
	coordMs, err := jobWalls(ctx, rig.hc, rig.coord.url)
	if err != nil {
		rig.stop()
		return err
	}
	workerMs := map[string]float64{}
	for _, w := range rig.workers {
		ms, err := jobWalls(ctx, rig.hc, w.url)
		if err != nil {
			rig.stop()
			return err
		}
		for k, v := range ms {
			if v > 0 {
				workerMs[k] = v
			}
		}
	}
	if err := rig.stop(); err != nil {
		return err
	}
	var jobMs []float64
	for i := range jobs {
		k := jobs[i].job.Key()
		jobs[i].poolWall = workerMs[k] / 1e3
		jobMs = append(jobMs, workerMs[k])
		overhead = append(overhead, latency[i]-workerMs[k])
		dispatch = append(dispatch, coordMs[k]-workerMs[k])
	}

	e := harness.NewExp(cfg)
	for _, name := range []string{"harness.figure", "harness.render_warm"} {
		sp := spans.start(name, "fig1a", nil)
		_, err := e.Figure("1a", harness.QuickSet())
		sp.end()
		if err != nil {
			return fmt.Errorf("probe render 1a: %w", err)
		}
	}
	if err := b.storeWrites(spans, jobs); err != nil {
		return err
	}
	tot := replay(append(jobs, jobs...), 1, spans)
	for _, m := range tot.mismatches {
		o.fail("probe: %s", m)
	}

	probed := map[string]float64{
		"serve.overhead_ms":          median(overhead),
		"fleet.dispatch_overhead_ms": median(dispatch),
		"runner.job_wall_ms.p50":     median(jobMs),
		"runner.job_wall_ms.tail":    max(jobMs[0], jobMs[1]),
		"core.host_ns_per_uop":       tot.runMs * 1e6 / float64(tot.uops),
		"core.host_ns_per_event":     tot.runMs * 1e6 / float64(tot.events),
	}
	durs := spans.durations()
	for metric, name := range spanMetrics {
		probed[metric] = median(durs[name])
	}
	var filled []string
	for metric, v := range probed {
		if _, ok := o.metrics[metric]; !ok {
			o.metrics[metric] = v
			filled = append(filled, metric)
		}
	}
	sort.Strings(filled)
	o.details["probed"] = filled
	return nil
}
