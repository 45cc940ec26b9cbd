package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/serve"
)

// runFleetFigure renders the Fig 9 quick matrix through a coordinator
// fronting two -j 1 workers that share a cold store. The figure runs at
// seed 1 whatever the benchmark seed: its job keys decide ring placement,
// so a fixed job set keeps the per-worker load the same in every run. One
// unit is one render on a fresh fleet and store.
func runFleetFigure(b *bench, traced bool) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	want := b.golden["9"]
	cfg := harness.DefaultConfig()
	fig9 := map[string]runner.Job{} // Fig 9's job set: quick workloads × every system
	for _, w := range harness.QuickSet() {
		for _, sys := range core.AllSystems() {
			j := cfg.Job(w, sys)
			fig9[j.Key()] = j
		}
	}

	var setups, walls, lat []float64
	var uops float64
	var jobs int
	for unit := 0; unit == 0 || sum(walls) < b.seconds; unit++ {
		// Set-up: a fresh store and fleet; 31 times before the first unit
		// (median reported, the last fleet kept): it takes under a ms.
		var rig *fleetRig
		var dir string
		for i := 0; i == 0 || (unit == 0 && i < 31); i++ {
			if rig != nil {
				rig.stop()
				os.RemoveAll(dir)
			}
			t := time.Now()
			var err error
			if dir, err = b.tempDir("fleet-"); err != nil {
				return nil, err
			}
			if rig, err = startFleet(dir); err != nil {
				return nil, err
			}
			setups = append(setups, since(t))
		}

		if unit == 0 {
			if err := b.windowStart(); err != nil {
				return nil, err
			}
		}
		c := client(rig.coord.url, "bench", rig.hc)
		o.attempted++
		t := time.Now()
		r, err := do(ctx, c, serve.JobRequest{}, "9", b.spans, fmt.Sprintf("fig9-%d", unit))
		wall := since(t)
		if unit == 0 {
			b.windowEnd()
		}
		o.metrics["peak_rss_mb"] = peakRSSMB()
		walls = append(walls, wall)
		if err != nil {
			o.fail("fig 9 via the fleet: %v", err)
		} else {
			u, err := fleetUnit(ctx, o, b, rig, r, want, fig9, wall, traced)
			if err != nil {
				rig.stop()
				os.RemoveAll(dir)
				return nil, err
			}
			uops += u.uops
			jobs += u.jobs
			lat = append(lat, r.latency)
		}
		if err := rig.stop(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}

	window := sum(walls)
	o.wall = median(walls)
	o.metrics["setup_s"] = median(setups)
	o.metrics["wall_s"] = o.wall
	o.metrics["sim_uops_per_s"] = uops / window
	o.metrics["requests_per_s"] = float64(jobs) / window
	o.latencyStats("latency", lat)
	o.details["units"] = len(walls)
	return o, nil
}

type fleetMeasure struct {
	uops float64
	jobs int
}

// fleetUnit checks one fleet render — the figure equals the seed-1 local
// render's digest, the coordinator simulated nothing, and simulations =
// store puts = distinct jobs across the workers — and gathers its
// per-job numbers.
func fleetUnit(ctx context.Context, o *outcome, b *bench, rig *fleetRig, r *request, want string, jobs map[string]runner.Job, wall float64, traced bool) (*fleetMeasure, error) {
	if r.figure.SHA256 != want || digest(r.figure.Text) != want {
		o.fail("fig 9 via the fleet: sha256 %.12s, want %.12s", r.figure.SHA256, want)
	}
	distinct := map[string]bool{}
	var order []string // distinct keys in progress order
	for _, k := range r.keys {
		if !distinct[k] {
			distinct[k] = true
			order = append(order, k)
		}
	}
	coordPool := rig.coord.srv.Exp().Pool()
	var executed, puts, lockWaits uint64
	for _, w := range rig.workers {
		executed += w.srv.Exp().Pool().Executed()
		_, _, p, _, _ := w.srv.Store().Stats()
		puts += p
		_, waited, _ := w.srv.Store().LockStats()
		lockWaits += waited
	}
	n := uint64(len(distinct))
	if coordPool.Executed() != 0 || coordPool.RemoteJobs() != n || executed != n || puts != n {
		o.fail("exactly-once: coordinator executed %d, dispatched %d; workers simulated %d, stored %d; distinct jobs %d",
			coordPool.Executed(), coordPool.RemoteJobs(), executed, puts, n)
	}

	coordMs, err := jobWalls(ctx, rig.hc, rig.coord.url)
	if err != nil {
		return nil, err
	}
	workerMs := map[string]float64{}
	for _, w := range rig.workers {
		ms, err := jobWalls(ctx, rig.hc, w.url)
		if err != nil {
			return nil, err
		}
		for k, v := range ms {
			if v > 0 {
				workerMs[k] = v
			}
		}
	}
	st, err := runner.OpenStore(rig.dir, 0)
	if err != nil {
		return nil, err
	}
	m := &fleetMeasure{}
	var overhead, dispatch []float64
	for _, k := range order {
		res, ok := st.Load(k)
		if !ok {
			o.fail("fleet job %s missing from the shared store", k)
			continue
		}
		m.uops += float64(res.TotalOps)
		m.jobs++
		dispatch = append(dispatch, coordMs[k])
		overhead = append(overhead, coordMs[k]-workerMs[k])
		if j, ok := jobs[k]; ok && traced {
			o.replay = append(o.replay, replayJob{job: j, want: res, poolWall: workerMs[k] / 1e3})
		}
	}
	o.details["jobs_resolved"] = len(distinct)
	if traced {
		o.replayWorkers = fleetWorkers
		o.metrics["fleet.dispatch_overhead_ms"] = median(overhead)
		o.details["fleet_dispatch_ms_p50"] = median(dispatch)
		top := rig.coord.coord.Snapshot()
		var maxD, total float64
		per := map[string]uint64{}
		for _, w := range top.Workers {
			per[w.URL] = w.Dispatched
			total += float64(w.Dispatched)
			maxD = max(maxD, float64(w.Dispatched))
		}
		o.metrics["fleet.worker_skew"] = ratio(maxD, total/float64(len(top.Workers)))
		o.metrics["runner.store_lock_waits"] = float64(lockWaits)
		o.details["fleet_dispatched_per_worker"] = per
		var jobMs []float64
		for _, v := range workerMs {
			jobMs = append(jobMs, v)
		}
		tv, tp := tail(jobMs)
		o.metrics["runner.job_wall_ms.p50"] = median(jobMs)
		o.metrics["runner.job_wall_ms.tail"] = tv
		o.details["runner.job_wall_ms.tail_percentile"] = tp
		o.metrics["runner.pool_busy_frac"] = ratio(sum(jobMs)/1e3, wall*float64(fleetWorkers))
		o.metrics["runner.jobs_executed"] = float64(executed)
		o.metrics["runner.jobs_requested"] = float64(coordPool.Executed() + coordPool.Hits() + coordPool.RemoteJobs())
	}
	return m, nil
}
