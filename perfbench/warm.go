package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/serve"
)

// warmOp is one operation of nsd_warm's request mix: a quick figure
// submission, or one (workload, NS) job.
type warmOp struct {
	fig      string
	workload string
}

func (op warmOp) String() string {
	if op.fig != "" {
		return "fig" + op.fig
	}
	return op.workload + "/NS"
}

// warmMix is every client's request sequence. Figures 11, 15 and 16 over
// the quick set need 12 distinct simulations between them, which also
// cover the four single jobs, so the store fill stays cheap.
var warmMix = []warmOp{
	{fig: "11"}, {workload: "pathfinder"}, {fig: "15"}, {workload: "histogram"},
	{fig: "16"}, {workload: "pr_pull"}, {workload: "hash_join"},
}

// runNSDWarm is the serving path with simulation doing nothing. Set-up
// fills a store by running the mix once; each unit (round) then puts a
// fresh daemon (cold memo) over that store behind the listener and lets
// nproc closed-loop clients each issue the whole mix. No round may
// simulate, and every answer must be byte-equal to what set-up produced.
func runNSDWarm(b *bench, traced bool) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	hc := newHTTPClient(nil)
	defer hc.CloseIdleConnections()
	cfg := harness.DefaultConfig()
	cfg.Seed = b.seed

	t := time.Now()
	dir, err := b.tempDir("nsd_warm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	want, keys, err := fillStore(ctx, b, hc, dir)
	if err != nil {
		return nil, err
	}
	st, err := runner.OpenStore(dir, 0)
	if err != nil {
		return nil, err
	}
	var uopsPerRound float64
	for _, k := range keys {
		res, ok := st.Load(k)
		if !ok {
			return nil, fmt.Errorf("store fill lost %s", k)
		}
		uopsPerRound += float64(res.TotalOps)
	}
	setup := since(t)

	var (
		mu       sync.Mutex
		lat      []float64
		rounds   []float64
		rejected int
	)
	// One listener serves every round; each round swaps in a fresh daemon
	// over the store, so clients keep their connections across rounds.
	d, err := startDaemon(daemonConfig(b.seed, nproc(), dir), nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		hc.CloseIdleConnections()
		d.stop()
	}()
	clients := nproc()
	if err := b.windowStart(); err != nil {
		return nil, err
	}
	for len(rounds) == 0 || sum(rounds) < b.seconds {
		t := time.Now()
		if err := d.renew(daemonConfig(b.seed, nproc(), dir)); err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := client(d.url, fmt.Sprintf("client-%d", c), hc)
				for k := range warmMix {
					op := warmMix[(k+c*len(warmMix)/clients)%len(warmMix)]
					req := serve.JobRequestFor(cfg.Job(op.workload, core.NS))
					r, err := do(ctx, cl, req, op.fig, b.spans, fmt.Sprintf("r%d-c%d-%s", len(rounds), c, op))
					mu.Lock()
					o.attempted++
					switch {
					case err != nil:
						if isRejected(err) {
							rejected++
						}
						o.fail("%s: %v", op, err)
					case !bytes.Equal(answer(op, r), want[op]):
						o.fail("%s: answer differs from the one set-up produced", op)
					default:
						lat = append(lat, r.latency)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		if n := d.srv.Exp().Pool().Executed(); n != 0 {
			o.fail("round %d simulated %d jobs; a warm store must serve all", len(rounds), n)
		}
		rounds = append(rounds, since(t))
	}
	b.windowEnd()
	window := sum(rounds)
	o.metrics["peak_rss_mb"] = peakRSSMB()

	if traced {
		// No job executes, so a request's whole latency is serving overhead.
		o.metrics["serve.overhead_ms"] = median(lat)
		o.metrics["serve.rejected_frac"] = ratio(float64(rejected), float64(o.attempted))
		poolStats(o, d.srv.Exp().Pool(), nil, rounds[len(rounds)-1])
		storeHitRatio(o, d.srv.Store())
		if err := b.storeReads(st, keys); err != nil {
			return nil, err
		}
		if err := b.figuresFromStore(st, o, cfg); err != nil {
			return nil, err
		}
	}

	// Every round does the same work, so rates come from the median round:
	// a host hiccup during a few rounds does not move them.
	o.wall = median(rounds)
	o.metrics["setup_s"] = setup
	o.metrics["wall_s"] = o.wall
	o.metrics["sim_uops_per_s"] = uopsPerRound / o.wall
	o.metrics["requests_per_s"] = float64(clients*len(warmMix)) / o.wall
	o.details["window_s"] = window
	o.latencyStats("latency", lat)
	o.details["units"] = len(rounds)
	o.details["clients"] = clients
	o.details["distinct_jobs_per_round"] = len(keys)
	o.details["jobs_resolved"] = len(keys) * len(rounds)
	return o, nil
}

// answer is the byte form of an operation's result that must repeat
// exactly: the job's result JSON, or the figure's text.
func answer(op warmOp, r *request) []byte {
	if op.fig != "" {
		if digest(r.figure.Text) != r.figure.SHA256 {
			return nil
		}
		return []byte(r.figure.Text)
	}
	buf, _ := json.Marshal(r.job.Result)
	return buf
}

// fillStore runs the mix once through a daemon over the empty store in
// dir, returning each operation's answer and every job key the mix
// resolves. At seed 1 the figures must match the golden digests.
func fillStore(ctx context.Context, b *bench, hc *http.Client, dir string) (map[warmOp][]byte, []string, error) {
	d, err := startDaemon(daemonConfig(b.seed, nproc(), dir), nil)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	cfg := harness.DefaultConfig()
	cfg.Seed = b.seed
	c := client(d.url, "fill", hc)
	want := map[warmOp][]byte{}
	seen := map[string]bool{}
	var keys []string
	for _, op := range warmMix {
		r, err := do(ctx, c, serve.JobRequestFor(cfg.Job(op.workload, core.NS)), op.fig, nil, "")
		if err != nil {
			return nil, nil, fmt.Errorf("store fill %s: %w", op, err)
		}
		want[op] = answer(op, r)
		if want[op] == nil {
			return nil, nil, fmt.Errorf("store fill %s: figure text does not match its sha256", op)
		}
		if g, ok := b.golden[op.fig]; ok && b.seed == 1 && g != r.figure.SHA256 {
			return nil, nil, fmt.Errorf("store fill %s: sha256 %.12s, want %.12s", op, r.figure.SHA256, g)
		}
		rk := r.keys
		if op.fig == "" {
			rk = []string{r.job.Key}
		}
		for _, k := range rk {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return want, keys, nil
}

// storeReads times Store.Load of every key the mix reads, 50 times over
// (a load takes tens of microseconds), on the filled store.
func (b *bench) storeReads(st *runner.Store, keys []string) error {
	for i := 0; i < 50; i++ {
		for _, k := range keys {
			sp := b.spans.start("runner.store_load", k, nil)
			_, ok := st.Load(k)
			sp.end()
			if !ok {
				return fmt.Errorf("store lost %s", k)
			}
		}
	}
	return nil
}

// figuresFromStore renders the mix's figures on an experiment over the
// filled store (cold memo, every job a store hit), then again on the warm
// memo: the harness's own share of a figure request.
func (b *bench) figuresFromStore(st *runner.Store, o *outcome, cfg harness.Config) error {
	e := harness.NewExp(cfg)
	e.Pool().Disk = st
	for _, name := range []string{"harness.figure", "harness.render_warm"} {
		for _, op := range warmMix {
			if op.fig == "" {
				continue
			}
			sp := b.spans.start(name, "fig"+op.fig, nil)
			_, err := e.Figure(op.fig, harness.QuickSet())
			sp.end()
			if err != nil {
				return fmt.Errorf("figure %s from store: %w", op.fig, err)
			}
		}
	}
	if n := e.Pool().Executed(); n != 0 {
		o.fail("rendering from the filled store simulated %d jobs", n)
	}
	return nil
}
