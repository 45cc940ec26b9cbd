package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"

	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/serve"
)

// WorkerInfo is one worker's row in the fleet topology.
type WorkerInfo struct {
	URL        string `json:"url"`
	State      string `json:"state"`
	LastSeen   string `json:"last_seen,omitempty"`
	Inflight   int64  `json:"inflight"`
	Dispatched uint64 `json:"dispatched"`
	Failures   uint64 `json:"failures,omitempty"`
}

// Topology is the coordinator's worker-registry snapshot, served at
// GET /api/v1/fleet and folded into /api/v1/report's Env (execution
// environment only — Canonical strips it, keeping merged reports
// byte-identical to single-daemon ones).
type Topology struct {
	Replicas int          `json:"replicas"`
	Live     int          `json:"live"`
	Workers  []WorkerInfo `json:"workers"`
}

// Snapshot captures the current topology, workers sorted by URL.
func (c *Coordinator) Snapshot() Topology {
	c.mu.Lock()
	ws := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	sort.Slice(ws, func(a, b int) bool { return ws[a].url < ws[b].url })
	top := Topology{Replicas: c.ring.replicas}
	for _, w := range ws {
		w.mu.Lock()
		info := WorkerInfo{
			URL:   w.url,
			State: w.state,
		}
		if !w.lastSeen.IsZero() {
			info.LastSeen = w.lastSeen.UTC().Format(time.RFC3339)
		}
		w.mu.Unlock()
		info.Inflight = w.inflight.Load()
		info.Dispatched = w.dispatched.Load()
		info.Failures = w.failures.Load()
		if info.State == WorkerLive {
			top.Live++
		}
		top.Workers = append(top.Workers, info)
	}
	return top
}

// WriteMetrics renders the nsd_fleet_* families in Prometheus text
// format: the counter/histogram registry plus worker gauges. Installed
// on the daemon via Server.AddMetrics.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	c.met.mu.Lock()
	obs.WritePrometheus(w, c.met.reg)
	c.met.mu.Unlock()
	top := c.Snapshot()
	var inflight int64
	byState := map[string]int{WorkerLive: 0, WorkerDraining: 0, WorkerDead: 0}
	for _, wi := range top.Workers {
		inflight += wi.Inflight
		byState[wi.State]++
	}
	fmt.Fprintf(w, "# HELP nsd_fleet_workers Registered workers by state.\n# TYPE nsd_fleet_workers gauge\n")
	for _, state := range []string{WorkerLive, WorkerDraining, WorkerDead} {
		fmt.Fprintf(w, "nsd_fleet_workers{state=%q} %d\n", state, byState[state])
	}
	fmt.Fprintf(w, "# HELP nsd_fleet_inflight Jobs currently dispatched and unresolved.\n# TYPE nsd_fleet_inflight gauge\nnsd_fleet_inflight %d\n", inflight)
	fmt.Fprintf(w, "# HELP nsd_fleet_worker_inflight Per-worker in-flight dispatches.\n# TYPE nsd_fleet_worker_inflight gauge\n")
	for _, wi := range top.Workers {
		fmt.Fprintf(w, "nsd_fleet_worker_inflight{worker=%q} %d\n", wi.URL, wi.Inflight)
	}
}

// registerRequest is the POST /api/v1/fleet/register payload.
type registerRequest struct {
	URL string `json:"url"`
}

// Wrap layers the coordinator's fleet routes over the daemon handler:
//
//	POST /api/v1/fleet/register  {"url": "http://worker:8081"}
//	GET  /api/v1/fleet           topology snapshot
//
// Everything else falls through to next unchanged — the point of fleet
// mode is that the job/figure API needs no changes.
func (c *Coordinator) Wrap(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", next)
	mux.HandleFunc("POST /api/v1/fleet/register", func(w http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if code, err := serve.DecodeBody(w, r, &req); err != nil || req.URL == "" {
			if code == 0 {
				code = http.StatusBadRequest
			}
			httpError(w, code, "body must be {\"url\": \"http://worker:port\"}")
			return
		}
		if u, err := url.Parse(req.URL); err != nil || u.Scheme == "" || u.Host == "" {
			httpError(w, http.StatusBadRequest, "unusable worker url %q", req.URL)
			return
		}
		c.AddWorker(req.URL)
		writeTopology(w, http.StatusOK, c.Snapshot())
	})
	mux.HandleFunc("GET /api/v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		writeTopology(w, http.StatusOK, c.Snapshot())
	})
	return mux
}

func writeTopology(w http.ResponseWriter, code int, top Topology) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(top)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Register announces a worker to its coordinator, retrying under pol
// until the coordinator accepts or ctx ends. Workers call this on
// startup (and may re-call it after a restart); registration is
// idempotent on the coordinator.
func Register(ctx context.Context, coordinatorURL, selfURL string, pol backoff.Policy) error {
	body, _ := json.Marshal(registerRequest{URL: selfURL})
	hc := &http.Client{Timeout: 10 * time.Second}
	target := coordinatorURL + "/api/v1/fleet/register"
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := pol.Wait(ctx, attempt-1, 0); err != nil {
				return fmt.Errorf("fleet: register with %s: %w (last: %v)", coordinatorURL, err, lastErr)
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			return nil
		case resp.StatusCode == http.StatusBadRequest:
			return fmt.Errorf("fleet: coordinator %s rejected registration of %s", coordinatorURL, selfURL)
		default:
			lastErr = fmt.Errorf("fleet: register got http %d", resp.StatusCode)
		}
	}
}
