package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
)

// latencySystems are the systems job_latency rotates over, per quick
// workload: the baseline, near-stream, and near-stream with decoupling.
var latencySystems = []core.System{core.Base, core.NS, core.NSDecouple}

// jobSeed derives job i's input seed from the benchmark seed (splitmix64),
// so every job is a distinct measurement nothing can have cached.
func jobSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return 2 + (z^(z>>31))%(1<<31)
}

// latencyPasses is how many times one job_latency unit walks the
// rotation. The latency tail is the 11th-slowest sample, so its
// percentile depends on the sample count; a unit of 24 jobs outlasts the
// run length, keeping that count — and so the tail — the same in every run.
const latencyPasses = 2

// runJobLatency is one user waiting on fresh measurements: a fresh daemon
// over an empty store, one client submitting one job at a time and
// following its SSE feed to the result. One unit is latencyPasses walks
// over the quick workloads × latencySystems, each job with its own seed.
func runJobLatency(b *bench, traced bool) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	hc := newHTTPClient(nil)
	defer hc.CloseIdleConnections()

	// Set-up, three times (median reported, the last daemon kept): a
	// fresh daemon over an empty store, then one warm-up job per system.
	var (
		d      *daemon
		dir    string
		setups []float64
	)
	cleanup := func() {
		if d != nil {
			hc.CloseIdleConnections()
			d.stop()
			os.RemoveAll(dir)
		}
	}
	defer cleanup()
	for i := 0; i < 3; i++ {
		cleanup()
		t := time.Now()
		var err error
		if dir, err = b.tempDir("job_latency-"); err != nil {
			return nil, err
		}
		if d, err = startDaemon(daemonConfig(b.seed, nproc(), dir), nil); err != nil {
			return nil, err
		}
		c := client(d.url, "warmup", hc)
		for k, sys := range latencySystems {
			j := harness.DefaultConfig().Job("hash_join", sys)
			j.Seed = jobSeed(b.seed, -1-k)
			if _, err := do(ctx, c, serve.JobRequestFor(j), "", nil, ""); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", j.Key(), err)
			}
		}
		setups = append(setups, since(t))
	}

	c := client(d.url, "bench", hc)
	var (
		served           []replayJob
		lat, units       []float64
		uops             float64
		rejected, jobIdx int
	)
	if err := b.windowStart(); err != nil {
		return nil, err
	}
	for len(units) == 0 || sum(units) < b.seconds {
		t := time.Now()
		for pass := 0; pass < latencyPasses; pass++ {
			for _, w := range harness.QuickSet() {
				for _, sys := range latencySystems {
					j := harness.DefaultConfig().Job(w, sys)
					j.Seed = jobSeed(b.seed, jobIdx)
					jobIdx++
					o.attempted++
					r, err := do(ctx, c, serve.JobRequestFor(j), "", b.spans, j.Key())
					switch {
					case err != nil:
						if isRejected(err) {
							rejected++
						}
						o.fail("%s: %v", j.Key(), err)
						continue
					case r.job.Key != j.Key() || r.job.Result == nil:
						o.fail("%s: daemon answered for key %q", j.Key(), r.job.Key)
						continue
					case r.job.Source != "sim":
						o.fail("%s: served from %q; every job must simulate", j.Key(), r.job.Source)
					}
					lat = append(lat, r.latency)
					uops += float64(r.job.Result.TotalOps)
					served = append(served, replayJob{job: j, want: r.job.Result})
				}
			}
		}
		units = append(units, since(t))
	}
	b.windowEnd()
	window := sum(units)
	o.metrics["peak_rss_mb"] = peakRSSMB()

	walls, err := jobWalls(ctx, hc, d.url)
	if err != nil {
		return nil, err
	}
	for i := range served {
		served[i].poolWall = walls[served[i].job.Key()] / 1e3
	}
	if traced {
		// The traced run replays (the oracle) serially, as the pool ran.
		o.replay, o.replayWorkers = served, 1
		var jobMs, overhead []float64
		for i, s := range served {
			jobMs = append(jobMs, s.poolWall*1e3)
			overhead = append(overhead, lat[i]-s.poolWall*1e3)
		}
		o.metrics["serve.overhead_ms"] = median(overhead)
		o.metrics["serve.rejected_frac"] = ratio(float64(rejected), float64(o.attempted))
		poolStats(o, d.srv.Exp().Pool(), jobMs, window)
		storeHitRatio(o, d.srv.Store())
		if err := b.storeWrites(b.spans, served); err != nil {
			return nil, err
		}
	} else {
		tot := replay(served, nproc(), nil)
		for _, m := range tot.mismatches {
			o.fail("%s", m)
		}
	}

	o.wall = median(units)
	o.metrics["setup_s"] = median(setups)
	o.metrics["wall_s"] = o.wall
	o.metrics["sim_uops_per_s"] = uops / window
	o.metrics["requests_per_s"] = float64(len(lat)) / window
	o.latencyStats("latency", lat)
	o.details["units"] = len(units)
	o.details["jobs_resolved"] = len(served)
	return o, nil
}

// jobWalls fetches a daemon's run report and returns each job's pool host
// time in ms by key (0 for jobs it did not execute).
func jobWalls(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/report", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer resp.Body.Close()
	var rep obs.RunReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	out := make(map[string]float64, len(rep.Jobs))
	for _, j := range rep.Jobs {
		out[j.Key] = j.Timing.WallSeconds * 1e3
	}
	return out, nil
}

// storeHitRatio records a store's load hit ratio with its base.
func storeHitRatio(o *outcome, st *runner.Store) {
	if st == nil {
		return
	}
	loads, hits, puts, _, _ := st.Stats()
	o.metrics["runner.store_hit_ratio"] = ratio(float64(hits), float64(loads))
	o.details["store"] = map[string]uint64{"loads": loads, "hits": hits, "puts": puts}
}

// storeWrites times Store.Put and then Store.Load of every served result
// against a fresh store: the write path job_latency's daemon took.
func (b *bench) storeWrites(spans *spanLog, jobs []replayJob) error {
	dir, err := b.tempDir("store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := runner.OpenStore(dir, 0)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		key := j.job.Key()
		sp := spans.start("runner.store_put", key, nil)
		err := st.Put(key, j.want)
		sp.end()
		if err != nil {
			return fmt.Errorf("store put %s: %w", key, err)
		}
	}
	for _, j := range jobs {
		sp := spans.start("runner.store_load", j.job.Key(), nil)
		st.Load(j.job.Key())
		sp.end()
	}
	return nil
}
