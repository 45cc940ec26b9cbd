package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReportSchema tags RunReport JSON so consumers can detect layout changes.
const ReportSchema = "nearstream-run-report/v1"

// JobTiming is the wall-clock side of one job's report. It is deliberately
// a separate struct: everything here varies run to run (host load, worker
// count), while the enclosing JobReport is byte-identical for a given job
// at any parallelism. Determinism tests zero this struct and compare the
// rest.
type JobTiming struct {
	// WallSeconds is the host time the simulation took.
	WallSeconds float64 `json:"wall_seconds"`
	// SimCyclesPerSec is simulated cycles per host second.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

// JobReport is the per-job section of a run report. All fields except
// Timing are deterministic: derived from the single-threaded simulation,
// not from the host.
type JobReport struct {
	// Key is the job's memo digest (workload|system|scale|core|seed[|overrides]).
	Key      string `json:"key"`
	Workload string `json:"workload"`
	System   string `json:"system"`
	// SimCycles is the run's final cycle count.
	SimCycles uint64 `json:"sim_cycles"`
	// Events is the engine's executed-event count.
	Events uint64 `json:"events"`
	// MemoHits counts how many requests for this job were served from the
	// pool's memo cache.
	MemoHits uint64 `json:"memo_hits"`
	// DiskHits counts how many times this job was served from the
	// persistent result store instead of simulating (0 when no store is
	// attached, so pre-store reports are byte-identical).
	DiskHits uint64 `json:"disk_hits,omitempty"`
	// TraceDropped counts events the trace ring overwrote (0 = complete).
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	// Samples is the number of time-series rows recorded.
	Samples int `json:"samples,omitempty"`
	// Err is the job's failure, if any.
	Err string `json:"error,omitempty"`
	// Attribution is the job's cycle-attribution section (nil when
	// attribution was off). Its Stalls/Hists are canonical; its Exec
	// subsection is execution-dependent and stripped by Canonical.
	Attribution *AttributionReport `json:"attribution,omitempty"`
	// Timing isolates every wall-clock-dependent field.
	Timing JobTiming `json:"timing"`
}

// RunEnv is the environment/wall-clock side of a run report — everything
// that legitimately varies between runs of the same job set (host speed,
// worker count, date). Like JobTiming it is isolated so the rest of the
// report can be compared byte-for-byte across worker counts.
type RunEnv struct {
	Command   string `json:"command,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	Date      string `json:"date,omitempty"`
	// Workers is the pool's concurrency bound.
	Workers int `json:"workers,omitempty"`
	// WallSeconds is the whole run's host time.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// PeakRSSBytes is the process's high-water resident set (VmHWM); 0
	// when the platform does not expose it.
	PeakRSSBytes uint64 `json:"peak_rss_bytes,omitempty"`
	// Fleet is the coordinator's worker-topology snapshot (nsd coordinator
	// mode). Like Workers it describes the execution, never a
	// result — Canonical strips the whole Env — so merged fleet reports
	// stay byte-identical to single-daemon ones.
	Fleet any `json:"fleet,omitempty"`
}

// RunReport is the machine-readable record of one experiment run.
type RunReport struct {
	Schema string `json:"schema"`
	// Executed and CacheHits are the pool's simulation counts for the run.
	Executed  uint64      `json:"executed"`
	CacheHits uint64      `json:"cache_hits"`
	Jobs      []JobReport `json:"jobs"`
	Env       RunEnv      `json:"env"`
}

// Canonical returns a copy with every wall-clock/environment field zeroed:
// the part of the report that must be byte-identical at any worker count.
func (r *RunReport) Canonical() *RunReport {
	out := *r
	out.Env = RunEnv{}
	out.Jobs = make([]JobReport, len(r.Jobs))
	for i, j := range r.Jobs {
		j.Timing = JobTiming{}
		if j.Attribution != nil && j.Attribution.Exec != nil {
			// The Exec subsection describes the execution (barrier windows,
			// idle elision) rather than the simulated machine; strip it like
			// Timing, keeping the canonical Stalls/Hists.
			a := *j.Attribution
			a.Exec = nil
			j.Attribution = &a
		}
		out.Jobs[i] = j
	}
	return &out
}

// WriteJSON writes the report as indented JSON. Field order follows the
// struct declarations, so output for identical content is byte-identical.
func (r *RunReport) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// PeakRSSBytes reads the process's peak resident set size from
// /proc/self/status (VmHWM). It returns 0 on platforms without procfs —
// the report field is advisory, never load-bearing.
func PeakRSSBytes() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
