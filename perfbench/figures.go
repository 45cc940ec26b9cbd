package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runner"
)

// runFiguresQuick is `nsexp -all -quick` in process: a fresh experiment
// (the engine behind nearstream.Experiment) with one worker per
// processor and no store renders every figure over the quick workload
// set. One unit is the whole pass; units repeat until --seconds passed.
func runFiguresQuick(b *bench, traced bool) (*outcome, error) {
	o := newOutcome()
	cfg := harness.DefaultConfig()
	cfg.Seed = b.seed
	cfg.Jobs = nproc()
	subset := harness.QuickSet()
	ids := harness.FigureIDs()
	want, err := b.figureDigests(ids)
	if err != nil {
		return nil, err
	}

	var setups, walls, latencies []float64
	var requests, uops float64
	got := map[string]string{}
	// Set-up is building the experiment, about a microsecond: it is timed
	// over 9 batches of 200 (experiments dropped, their garbage included)
	// and setup_s is the median per-experiment time.
	for i := 0; i < 9; i++ {
		t := time.Now()
		for k := 0; k < 200; k++ {
			harness.NewExp(cfg)
		}
		setups = append(setups, since(t)/200)
	}
	for unit := 0; unit == 0 || sum(walls) < b.seconds; unit++ {
		e := harness.NewExp(cfg)

		var col *obs.Collector
		if traced {
			col = obs.NewCollector(0, 0)
			e.Pool().Obs = col
		}
		// A closed batch: the user asks for every figure at once, so a job
		// request's latency runs from the start of the pass to its result.
		var mu sync.Mutex
		var passStart time.Time
		var executed []runner.Job
		e.Pool().OnProgress = func(p runner.Progress) {
			mu.Lock()
			defer mu.Unlock()
			latencies = append(latencies, float64(time.Since(passStart).Nanoseconds())/1e6)
			if !p.Cached && !p.Disk && !p.Remote && p.Err == nil {
				executed = append(executed, p.Job)
			}
		}

		if err := b.windowStart(); err != nil {
			return nil, err
		}
		passStart = time.Now() // before the pool's goroutines exist
		for _, id := range ids {
			o.attempted++
			sp := b.spans.start("harness.figure", "fig"+id, nil)
			tab, err := e.Figure(id, subset)
			sp.end()
			if err != nil {
				o.fail("figure %s: %v", id, err)
				continue
			}
			got[id] = digest(tab.String())
			if w, ok := want[id]; ok && w != got[id] {
				o.fail("figure %s: sha256 %.12s, want %.12s", id, got[id], w)
			}
		}
		wall := since(passStart)
		walls = append(walls, wall)
		o.metrics["peak_rss_mb"] = peakRSSMB()
		pool := e.Pool()
		requests += float64(pool.Executed() + pool.Hits())
		if traced {
			b.windowEnd()
			figuresLayers(o, e, col, wall, ids, subset, got, b.spans)
		}
		for _, j := range executed {
			res, err := pool.RunOne(j) // memo hit: the pass already ran it
			if err != nil {
				return nil, err
			}
			uops += float64(res.TotalOps)
			if traced {
				o.replay = append(o.replay, replayJob{job: j, want: res, poolWall: col.Job(j.Key()).Timing.WallSeconds})
			}
		}
		o.details["jobs_resolved"] = len(executed)
		o.replayWorkers = cfg.Jobs
	}
	if err := b.saveFigureDigests(want, got); err != nil {
		return nil, err
	}

	window := sum(walls)
	o.wall = median(walls)
	o.metrics["setup_s"] = median(setups)
	o.metrics["wall_s"] = o.wall
	o.metrics["sim_uops_per_s"] = uops / window
	o.metrics["requests_per_s"] = requests / window
	o.latencyStats("latency", latencies)
	o.details["units"] = len(walls)
	o.details["job_requests"] = requests
	return o, nil
}

// figuresLayers records the traced pass's harness and runner metrics:
// warm re-renders, the collector's per-job host time and the pool's reuse
// counters, each ratio with its base in the details.
func figuresLayers(o *outcome, e *harness.Exp, col *obs.Collector, wall float64, ids, subset []string, got map[string]string, spans *spanLog) {
	var walls []float64
	for _, r := range col.Records() {
		if r.Timing.WallSeconds > 0 {
			walls = append(walls, r.Timing.WallSeconds*1e3)
		}
	}
	poolStats(o, e.Pool(), walls, wall)
	for _, id := range ids {
		sp := spans.start("harness.render_warm", "fig"+id, nil)
		tab, err := e.Figure(id, subset)
		sp.end()
		if err != nil || digest(tab.String()) != got[id] {
			o.fail("figure %s: warm re-render differs from the first render", id)
		}
	}
}

// poolStats records a runner pool's job-time distribution and reuse
// ratios (and their bases).
func poolStats(o *outcome, pool *runner.Pool, jobWallsMs []float64, wall float64) {
	if len(jobWallsMs) > 0 {
		tv, tp := tail(jobWallsMs)
		o.metrics["runner.job_wall_ms.p50"] = median(jobWallsMs)
		o.metrics["runner.job_wall_ms.tail"] = tv
		o.details["runner.job_wall_ms.tail_percentile"] = tp
		o.details["runner.job_wall_ms.samples"] = len(jobWallsMs)
	}
	o.metrics["runner.pool_busy_frac"] = ratio(sum(jobWallsMs)/1e3, wall*float64(pool.Workers()))
	exec, hits := float64(pool.Executed()), float64(pool.Hits())
	o.metrics["runner.jobs_executed"] = exec
	o.metrics["runner.jobs_requested"] = exec + hits + float64(pool.DiskHits())
	o.metrics["runner.memo_hit_ratio"] = ratio(hits, exec+hits+float64(pool.DiskHits()))
	mh, mm := pool.MachineReuse()
	o.metrics["runner.machine_reuse_ratio"] = ratio(float64(mh), float64(mh+mm))
	dh, dm, _, _ := pool.DatasetCacheStats()
	o.metrics["runner.dataset_hit_ratio"] = ratio(float64(dh), float64(dh+dm))
	o.details["machine_checkouts"] = map[string]uint64{"hits": mh, "misses": mm}
	o.details["dataset_lookups"] = map[string]uint64{"hits": dh, "misses": dm}
}

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// figureDigests returns the digests figures must match at this seed: the
// repository's golden file at seed 1, otherwise the digests an earlier
// run of this benchmark recorded for the seed (none yet = first run).
func (b *bench) figureDigests(ids []string) (map[string]string, error) {
	if b.seed == 1 {
		want := map[string]string{}
		for _, id := range ids {
			if g, ok := b.golden[id]; ok {
				want[id] = g
			}
		}
		return want, nil
	}
	want := map[string]string{}
	buf, err := os.ReadFile(b.digestPath())
	if os.IsNotExist(err) {
		return want, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(buf, &want); err != nil {
		return nil, fmt.Errorf("parse %s: %w", b.digestPath(), err)
	}
	return want, nil
}

// saveFigureDigests records this seed's digests for later runs when none
// were recorded yet.
func (b *bench) saveFigureDigests(want, got map[string]string) error {
	if b.seed == 1 || len(want) > 0 {
		return nil
	}
	return writeJSON(b.digestPath(), got)
}

func (b *bench) digestPath() string {
	return filepath.Join(b.work, "digests", fmt.Sprintf("%s-seed%d.json", b.name, b.seed))
}
