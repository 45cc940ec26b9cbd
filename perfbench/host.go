package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/obs"
)

// hostStamp describes where and on what a result was measured. compare
// refuses to set results from different hosts side by side.
func hostStamp(root string, seed uint64) map[string]any {
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu_model":   cpuModel(),
		"go_version":  runtime.Version(),
		"commit":      gitCommit(root),
		"source_sha":  sourceDigest(root),
		"seed":        seed,
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// hostKeys are the stamp fields that must match for two results to be
// comparable.
var hostKeys = []string{"nproc", "gomaxprocs", "cpu_model", "go_version", "goos_goarch"}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD without running git; checkouts without .git
// report "none" and are identified by source_sha instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout
// (outside .bench_build and .git), in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\n", rel)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB:
// since the last resetPeakRSS, or since start where that is unsupported.
func peakRSSMB() float64 { return float64(obs.PeakRSSBytes()) / (1 << 20) }

// resetPeakRSS restarts VmHWM at the current resident set (Linux
// clear_refs "5"); elsewhere it does nothing.
func resetPeakRSS() {
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		f.WriteString("5")
		f.Close()
	}
}

// compare prints the ratio new/old of every metric two result files
// (written under .bench_build/results) share. It refuses results from
// different hosts or workloads: exit status 2.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: nsbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]struct {
		Workload string         `json:"workload"`
		Host     map[string]any `json:"host"`
		Metrics  map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	for i, p := range args {
		buf, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(buf, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %s: %v\n", p, err)
			return 2
		}
	}
	if recs[0].Workload != recs[1].Workload {
		fmt.Fprintf(os.Stderr, "compare: refusing: workloads differ (%s vs %s)\n", recs[0].Workload, recs[1].Workload)
		return 2
	}
	for _, k := range hostKeys {
		a, b := fmt.Sprint(recs[0].Host[k]), fmt.Sprint(recs[1].Host[k])
		if a != b {
			fmt.Fprintf(os.Stderr, "compare: refusing: host %s differs (%s vs %s)\n", k, a, b)
			return 2
		}
	}
	names := make([]string, 0, len(recs[0].Metrics))
	for n := range recs[0].Metrics {
		if _, ok := recs[1].Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := recs[0].Metrics[n].Value, recs[1].Metrics[n].Value
		fmt.Printf("%-32s %14.4f %14.4f  x%.3f\n", n, a, b, ratio(b, a))
	}
	return 0
}
