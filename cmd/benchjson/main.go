// Command benchjson turns `go test -bench` output into the tracked
// bench/BENCH_sim.json performance baseline, and compares two baselines.
//
// Usage:
//
//	benchjson -o bench/BENCH_sim.json macro.txt micro.txt -- ./bin/nsexp -all -quick
//	benchjson -compare old.json new.json
//
// Positional arguments before "--" are files of `go test -bench -benchmem`
// output (use "-" for stdin). The optional command after "--" is executed
// with stdout captured; its wall-clock seconds and output sha256 are
// recorded, so the baseline tracks end-to-end figure-regeneration time and
// byte-level determinism alongside the micro-benchmarks.
//
// With -compare, the two positional arguments are an old and a new report;
// per-benchmark ns/op and allocs/op deltas are printed and the exit status
// is non-zero when any benchmark regresses past -threshold (ratio of new
// to old) or the recorded figure digests differ — `make benchcmp` wires
// this as the local performance gate.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Wallclock records one timed end-to-end command run.
type Wallclock struct {
	Command      string  `json:"command"`
	Seconds      float64 `json:"seconds"`
	OutputSHA256 string  `json:"output_sha256"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Date       string      `json:"date"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Wallclock  *Wallclock  `json:"wallclock,omitempty"`
}

func main() {
	out := flag.String("o", "bench/BENCH_sim.json", "output file")
	compare := flag.Bool("compare", false, "compare two reports (old.json new.json) instead of generating one")
	threshold := flag.Float64("threshold", 1.10, "with -compare: max tolerated new/old ratio per benchmark")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two arguments: old.json new.json"))
		}
		if !compareReports(flag.Arg(0), flag.Arg(1), *threshold) {
			os.Exit(1)
		}
		return
	}

	files, cmdline := splitArgs(flag.Args())
	rep := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Date:      time.Now().UTC().Format(time.RFC3339),
	}
	for _, f := range files {
		benches, err := parseFile(f)
		if err != nil {
			fatal(err)
		}
		rep.Benchmarks = append(rep.Benchmarks, benches...)
	}
	if len(cmdline) > 0 {
		if flagged := obsFlags(cmdline); len(flagged) > 0 {
			// Observability exports cost I/O the baseline should not
			// absorb: keep the previous untainted wall-clock entry.
			rep.Wallclock = previousWallclock(*out)
			if rep.Wallclock != nil {
				fmt.Fprintf(os.Stderr,
					"benchjson: command uses %s; keeping previous wall-clock entry\n",
					strings.Join(flagged, " "))
			} else {
				fmt.Fprintf(os.Stderr,
					"benchjson: command uses %s and no prior baseline exists; omitting wall-clock entry\n",
					strings.Join(flagged, " "))
			}
		} else {
			wc, err := timeCommand(cmdline)
			if err != nil {
				fatal(err)
			}
			rep.Wallclock = wc
		}
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// splitArgs separates input files from the optional timed command after "--".
func splitArgs(args []string) (files, cmdline []string) {
	for i, a := range args {
		if a == "--" {
			return args[:i], args[i+1:]
		}
	}
	return args, nil
}

func parseFile(path string) ([]Benchmark, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return parseBench(r)
}

// parseBench scans `go test -bench` output: "pkg:" lines set the current
// package; "BenchmarkX-N  iters  v unit  v unit ..." lines yield results.
func parseBench(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX --- SKIP"
		}
		b := Benchmark{
			Package:    pkg,
			Name:       trimProcSuffix(fields[0]),
			Iterations: iters,
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				b.NsPerOp, _ = strconv.ParseFloat(v, 64)
			case "B/op":
				b.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
			case "allocs/op":
				b.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// trimProcSuffix drops the trailing -GOMAXPROCS from a benchmark name.
func trimProcSuffix(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// obsFlags reports which observability flags appear in cmdline. Runs with
// -trace/-report/-sample spend wall-clock on exports the baseline should
// not count, so their timing must not overwrite a clean measurement.
func obsFlags(cmdline []string) []string {
	var hits []string
	for _, a := range cmdline[1:] {
		name := strings.TrimLeft(a, "-")
		if i := strings.IndexByte(name, '='); i >= 0 {
			name = name[:i]
		}
		switch name {
		case "trace", "report", "sample", "sample-every", "trace-events":
			if strings.HasPrefix(a, "-") {
				hits = append(hits, "-"+name)
			}
		}
	}
	return hits
}

// previousWallclock loads the wall-clock entry of an existing baseline
// file, or nil if there is none.
func previousWallclock(path string) *Wallclock {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var prev Report
	if err := json.Unmarshal(buf, &prev); err != nil {
		return nil
	}
	return prev.Wallclock
}

// loadReport reads one BENCH_sim.json file.
func loadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints per-benchmark deltas between two baselines and
// reports whether the new one passes: every shared benchmark's ns/op and
// allocs/op must stay within threshold× the old value, and the recorded
// figure digests must match byte-for-byte when both runs have one (a
// report without a wall-clock run, like `make benchcmp`'s, skips the
// digest comparison and says so).
// Improvements never fail, and benchmarks present in only one report are
// listed but not gated — a renamed benchmark should not block a change.
func compareReports(oldPath, newPath string, threshold float64) bool {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fatal(err)
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fatal(err)
	}
	key := func(b Benchmark) string { return b.Package + " " + b.Name }
	olds := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		olds[key(b)] = b
	}
	ratio := func(new, old float64) float64 {
		if old <= 0 {
			if new <= 0 {
				return 1
			}
			return math.Inf(1)
		}
		return new / old
	}
	fail := 0
	fmt.Printf("%-60s %14s %14s %8s %8s\n", "benchmark", "old ns/op", "new ns/op", "ns", "allocs")
	for _, nb := range newRep.Benchmarks {
		ob, ok := olds[key(nb)]
		if !ok {
			fmt.Printf("%-60s %14s %14.0f %8s %8s  (new)\n", key(nb), "-", nb.NsPerOp, "-", "-")
			continue
		}
		delete(olds, key(nb))
		rNs := ratio(nb.NsPerOp, ob.NsPerOp)
		rAl := ratio(float64(nb.AllocsPerOp), float64(ob.AllocsPerOp))
		mark := ""
		if rNs > threshold || rAl > threshold {
			mark = "  REGRESSION"
			fail++
		}
		fmt.Printf("%-60s %14.0f %14.0f %+7.1f%% %+7.1f%%%s\n",
			key(nb), ob.NsPerOp, nb.NsPerOp, (rNs-1)*100, (rAl-1)*100, mark)
	}
	for k := range olds {
		fmt.Printf("%-60s  (only in %s)\n", k, oldPath)
	}
	if ow, nw := oldRep.Wallclock, newRep.Wallclock; ow != nil && nw != nil {
		fmt.Printf("%-60s %13.1fs %13.1fs %+7.1f%%\n",
			"wallclock: "+nw.Command, ow.Seconds, nw.Seconds, (ratio(nw.Seconds, ow.Seconds)-1)*100)
		if ow.OutputSHA256 != nw.OutputSHA256 {
			fmt.Printf("DIGEST MISMATCH: output sha256 %s -> %s\n", ow.OutputSHA256, nw.OutputSHA256)
			fail++
		}
	} else {
		fmt.Println("benchjson: figure digest not compared (a report has no wall-clock run)")
	}
	if fail > 0 {
		fmt.Printf("benchjson: %d regression(s) past the %.2fx threshold\n", fail, threshold)
		return false
	}
	fmt.Println("benchjson: within threshold")
	return true
}

// timeCommand runs cmdline, hashing stdout, and reports elapsed seconds.
func timeCommand(cmdline []string) (*Wallclock, error) {
	h := sha256.New()
	cmd := exec.Command(cmdline[0], cmdline[1:]...)
	cmd.Stdout = h
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(cmdline, " "), err)
	}
	return &Wallclock{
		Command:      strings.Join(cmdline, " "),
		Seconds:      time.Since(start).Seconds(),
		OutputSHA256: hex.EncodeToString(h.Sum(nil)),
	}, nil
}
