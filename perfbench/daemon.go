package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/serve"
)

// daemon is one in-process nsd: a serve.Server behind a real HTTP
// listener on the loopback interface, optionally in fleet coordinator
// mode (wired the way cmd/nsd wires -mode coordinator).
type daemon struct {
	srv     *serve.Server
	coord   *fleet.Coordinator
	handler atomic.Value // http.Handler: srv's, wrapped by coord's
	hs      *http.Server
	url     string
	served  chan error
}

func startDaemon(cfg serve.Config, coordOpt *fleet.Options) (*daemon, error) {
	s, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: s, served: make(chan error, 1)}
	handler := s.Handler()
	if coordOpt != nil {
		d.coord = fleet.New(*coordOpt)
		s.SetRemote(d.coord.Execute)
		s.SetFleetEnv(func() any { return d.coord.Snapshot() })
		s.AddMetrics(d.coord.WriteMetrics)
		d.coord.Start()
		handler = d.coord.Wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if d.coord != nil {
			d.coord.Stop()
		}
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.handler.Store(handler)
	d.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.handler.Load().(http.Handler).ServeHTTP(w, r)
	})}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, then closes its listener and waits for the
// serving goroutine to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if d.coord != nil {
		d.coord.Stop()
	}
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// renew replaces the daemon behind the listener with a fresh one built
// from cfg (cold memo; a store directory is reopened) and drains the old
// one. Clients keep their connections. Not for coordinator daemons.
func (d *daemon) renew(cfg serve.Config) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	old := d.srv
	d.srv = s
	d.handler.Store(s.Handler())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return old.Shutdown(ctx)
}

// daemonConfig is a daemon's base configuration: CI scale, the given
// input seed and concurrency bound, store under dir ("" = memory only).
func daemonConfig(seed uint64, jobs int, dir string) serve.Config {
	h := harness.DefaultConfig()
	h.Seed = seed
	h.Jobs = jobs
	return serve.Config{Harness: h, CacheDir: dir}
}

// newHTTPClient returns a private client whose idle connections the
// caller closes at the end of a run.
func newHTTPClient(dial func(ctx context.Context, network, addr string) (net.Conn, error)) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	if dial != nil {
		tr.DialContext = dial
	}
	return &http.Client{Transport: tr, Timeout: 2 * time.Minute}
}

// client is a benchmark client of one daemon. Attempts is 1, so a 429
// admission refusal surfaces as a failed operation instead of a retry.
func client(base, id string, hc *http.Client) *serve.Client {
	return &serve.Client{Base: base, HTTP: hc, Attempts: 1, ClientID: id}
}

// request is one benchmark operation against a daemon: submit, follow
// the task's SSE feed to its terminal state, fetch the result.
type request struct {
	latency float64  // ms, submit to result
	keys    []string // job keys the task's progress events named
	job     serve.JobResult
	figure  serve.FigureResult
}

// do runs one job (fig == "") or one quick figure through c, with spans
// around each client call when tracing.
func do(ctx context.Context, c *serve.Client, job serve.JobRequest, fig string, spans *spanLog, reqID string) (*request, error) {
	r := &request{}
	t0 := time.Now()
	root := spans.start("serve.request", reqID, nil)
	defer root.end()

	sp := spans.start("serve.submit", reqID, root)
	var st serve.TaskStatus
	var err error
	if fig == "" {
		st, err = c.SubmitJob(ctx, job)
	} else {
		st, err = c.SubmitFigure(ctx, fig, "quick=1")
	}
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}

	sp = spans.start("serve.follow", reqID, root)
	state, err := c.FollowEvents(ctx, st.ID, func(ev serve.Event) {
		if ev.Type == "progress" {
			r.keys = append(r.keys, ev.Key)
		}
	})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("follow %s: %w", st.ID, err)
	}
	if state != serve.StateDone {
		return nil, fmt.Errorf("task %s ended %s", st.ID, state)
	}

	if fig == "" {
		sp = spans.start("serve.result.job", reqID, root)
		r.job, err = c.JobResult(ctx, st.ID)
	} else {
		sp = spans.start("serve.result.figure", reqID, root)
		r.figure, err = c.FigureResult(ctx, st.ID)
	}
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("result %s: %w", st.ID, err)
	}
	r.latency = float64(time.Since(t0).Nanoseconds()) / 1e6
	return r, nil
}

// isRejected reports a 429 admission refusal.
func isRejected(err error) bool { return serve.StatusCode(err) == http.StatusTooManyRequests }

// tempDir makes a fresh directory under the run's temporary area.
func (b *bench) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(b.work+"/tmp", prefix)
}

// fleetRig is one coordinator daemon fronting two worker daemons (-j 1
// each) that share one store directory. Workers are addressed by fixed
// names resolved by the coordinator's dialer, so ring placement — and so
// the per-worker load — is the same in every run. The coordinator
// dispatches up to fleetDispatch jobs at once and each worker admits
// that many from it (nsd -j 32 / -max-client 32), so a figure's whole job
// set is queued on its workers at once: the render's wall time is set by
// placement and simulation, not by which jobs happened to share the
// coordinator's dispatch slots.
type fleetRig struct {
	coord   *daemon
	workers []*daemon
	dir     string
	hc      *http.Client
}

const (
	fleetWorkers  = 2
	fleetDispatch = 32
)

func startFleet(dir string) (*fleetRig, error) {
	rig := &fleetRig{dir: dir}
	addrs := map[string]string{}
	var names []string
	for i := 0; i < fleetWorkers; i++ {
		cfg := daemonConfig(1, 1, dir)
		cfg.MaxPerClient = fleetDispatch
		w, err := startDaemon(cfg, nil)
		if err != nil {
			rig.stop()
			return nil, err
		}
		rig.workers = append(rig.workers, w)
		name := fmt.Sprintf("worker-%d.fleet.invalid", i)
		addrs[name+":80"] = strings.TrimPrefix(w.url, "http://")
		names = append(names, "http://"+name)
	}
	var dialer net.Dialer
	rig.hc = newHTTPClient(func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := addrs[addr]; ok {
			addr = real
		}
		return dialer.DialContext(ctx, network, addr)
	})
	coord, err := startDaemon(daemonConfig(1, fleetDispatch, ""), &fleet.Options{
		Workers:        names,
		HTTP:           rig.hc,
		HeartbeatEvery: 500 * time.Millisecond,
	})
	if err != nil {
		rig.stop()
		return nil, err
	}
	rig.coord = coord
	return rig, nil
}

// stop drains the coordinator first, then the workers.
func (r *fleetRig) stop() error {
	var err error
	if r.coord != nil {
		err = r.coord.stop()
	}
	if r.hc != nil {
		// A dialed-but-unused connection holds http.Server.Shutdown for 5s.
		r.hc.CloseIdleConnections()
	}
	for _, w := range r.workers {
		if werr := w.stop(); err == nil {
			err = werr
		}
	}
	return err
}
