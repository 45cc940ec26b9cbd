// Command nsbench is the repository benchmark. It drives the simulator
// through its public layers — the in-process experiment harness, the
// runner pool and result store, the nsd daemon over HTTP, and the fleet
// coordinator — on one named workload per invocation, checks every output
// against an oracle, and prints the metrics as one JSON line:
//
//	nsbench --workload figures_quick --seed 1 --seconds 12 --trace 0
//	nsbench compare old.json new.json
//
// --trace 0 prints the end-to-end metrics. --trace 1 measures the same
// workload untraced and then traced (spans around every layer call, a CPU
// profile, a replay of each executed job), and prints the per-layer
// metrics plus the tracing overhead. The last line of standard output is
// always the result object; earlier lines are the host stamp and
// per-metric details. Full results, spans and profiles are written under
// .bench_build/ in the working directory.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

//go:embed spec.json
var specJSON []byte

// spec is the part of spec.json nsbench reads. The file also records
// what BENCHMARK.json's fixed keys cannot hold: the default and held-out
// seeds, each workload's rationale, the end-to-end metric definitions and
// the layer → end-to-end map.
type spec struct {
	PhaseCoverageTol float64 `json:"phase_coverage_tolerance"`
}

// metricDef is one BENCHMARK.json metric entry.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest is the part of BENCHMARK.json nsbench reads: which metrics
// to print, with their units.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec() (*spec, *manifest, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, nil, fmt.Errorf("bad spec.json: %w", err)
	}
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return &s, &m, nil
}

// bench is one invocation's context.
type bench struct {
	spec    *spec
	name    string
	seed    uint64
	seconds float64
	work    string // .bench_build under the working directory
	golden  map[string]string
	spans   *spanLog  // nil when tracing is off
	prof    *profiler // nil when tracing is off
}

// outcome is what one measurement of a workload produced.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64 // end-to-end, or per-layer when traced
	details   map[string]any
	// replay holds the executed jobs the traced run replays, with the
	// pool's result and host time for each.
	replay        []replayJob
	replayWorkers int     // concurrency the pool ran those jobs at
	wall          float64 // wall_s of this measurement
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, details: map[string]any{}}
}

// fail records one failed operation or violated oracle.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloadFn measures one workload; traced adds layer instrumentation.
type workloadFn func(b *bench, traced bool) (*outcome, error)

var workloadRuns = map[string]workloadFn{
	"figures_quick": runFiguresQuick,
	"job_latency":   runJobLatency,
	"nsd_warm":      runNSDWarm,
	"fleet_figure":  runFleetFigure,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: figures_quick, job_latency, nsd_warm or fleet_figure")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 12, "minimum measured time; whole units of the workload's fixed work repeat until it has passed")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	fn, ok := workloadRuns[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	sp, man, err := loadSpec()
	if err != nil {
		return err
	}
	golden, err := readGolden()
	if err != nil {
		return err
	}
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	b := &bench{spec: sp, name: name, seed: seed, seconds: seconds,
		work: filepath.Join(wd, ".bench_build"), golden: golden}
	if err := os.MkdirAll(filepath.Join(b.work, "tmp"), 0o755); err != nil {
		return err
	}
	host := hostStamp(wd, seed)
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hostLine))

	var out *outcome
	if traced {
		base, err := fn(b, false)
		if err != nil {
			return err
		}
		b.spans = newSpanLog()
		out, err = traceRun(b, fn)
		if err != nil {
			return err
		}
		out.metrics["trace.overhead_s"] = out.wall - base.wall
		out.details["untraced_wall_s"] = base.wall
		out.attempted += base.attempted
		out.failed += base.failed
		out.problems = append(out.problems, base.problems...)
	} else {
		out, err = fn(b, false)
		if err != nil {
			return err
		}
	}
	defs := man.EndToEnd
	if traced {
		defs = man.PerLayer
	}
	return emit(b, host, out, defs, traced)
}

// emit checks the metric set against the spec, writes the full result
// file and prints the details and the result line.
func emit(b *bench, host map[string]any, out *outcome, defs []metricDef, traced bool) error {
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		n := d.Name
		v, ok := out.metrics[n]
		if !ok && !traced {
			return fmt.Errorf("workload %s did not measure %s", b.name, n)
		}
		// A per-layer metric the workload never reaches reads 0: that
		// layer did no work.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s: metric %s is %v", b.name, n, v)
		}
		if !traced && v == 0 {
			out.fail("end-to-end metric %s measured 0", n)
		}
		metrics[n] = map[string]any{"value": v, "unit": d.Unit}
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	det, _ := json.Marshal(map[string]any{"details": out.details})
	fmt.Println(string(det))

	tag := "e2e"
	if traced {
		tag = "layers"
	}
	record := map[string]any{
		"workload": b.name, "seed": b.seed, "seconds": b.seconds, "traced": traced,
		"host": host, "metrics": metrics, "details": out.details,
		"attempted": out.attempted, "failed": out.failed, "problems": out.problems,
	}
	if err := writeJSON(filepath.Join(b.work, "results", fmt.Sprintf("%s-seed%d-%s.json", b.name, b.seed, tag)), record); err != nil {
		return err
	}
	if b.spans != nil {
		if err := writeJSON(filepath.Join(b.work, "traces", fmt.Sprintf("%s-seed%d.spans.json", b.name, b.seed)), b.spans.all()); err != nil {
			return err
		}
	}

	attempted := max(out.attempted, 1)
	line, err := json.Marshal(map[string]any{
		"correct": out.failed == 0, "attempted": attempted, "failed": out.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		return errors.New("oracle failed; see the problems above")
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// readGolden loads the recorded seed-1 figure digests over the quick set.
func readGolden() (map[string]string, error) {
	buf, err := os.ReadFile(filepath.Join("internal", "harness", "testdata", "figure_digests.json"))
	if err != nil {
		return nil, fmt.Errorf("read golden figure digests: %w", err)
	}
	g := map[string]string{}
	if err := json.Unmarshal(buf, &g); err != nil {
		return nil, fmt.Errorf("parse golden figure digests: %w", err)
	}
	return g, nil
}

// nproc is the host's usable processor count (the pool default).
func nproc() int { return runtime.GOMAXPROCS(0) }

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
