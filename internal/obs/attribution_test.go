package obs

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"strings"
	"testing"
)

func TestHistBucketPlacement(t *testing.T) {
	var h Hist
	// Bucket i's inclusive range is [2^(i-1), 2^i-1] (bucket 0 = exact
	// zeros); spot-check edges on both sides of every power of two used.
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1<<63 - 1, 63}, {1 << 63, 64}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := bits.Len64(c.v); got != c.bucket {
			t.Fatalf("value %d: bucket %d, want %d", c.v, got, c.bucket)
		}
		h.Observe(c.v)
	}
	for _, c := range cases {
		if h.Buckets[c.bucket] == 0 {
			t.Errorf("value %d landed outside bucket %d", c.v, c.bucket)
		}
	}
	if h.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count, len(cases))
	}
	if upper := BucketUpper(3); upper != 7 {
		t.Fatalf("BucketUpper(3) = %d, want 7", upper)
	}
}

func TestHistMergeEqualsInterleavedObserve(t *testing.T) {
	// Merging two lanes must equal observing the union in any order —
	// the property FinishAttribution's lane-to-sink merge depends on.
	var whole, a, b Hist
	vals := []uint64{0, 1, 5, 64, 64, 1000, 1 << 40}
	for i, v := range vals {
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	var merged Hist
	merged.Merge(&b)
	merged.Merge(&a)
	if merged != whole {
		t.Fatalf("merged = %+v, want %+v", merged, whole)
	}
}

func TestAttributionChargeMergeAndReset(t *testing.T) {
	a, b := NewAttribution(), NewAttribution()
	a.Charge(StallMSHRMerge, 0)
	a.Charge(StallDRAMQueue, 12)
	a.Observe(HistDRAMQueueWait, 12)
	b.Charge(StallDRAMQueue, 8)
	b.Observe(HistDRAMQueueWait, 8)
	a.Merge(b)
	if a.Counts[StallDRAMQueue] != 2 || a.Cycles[StallDRAMQueue] != 20 {
		t.Fatalf("dram_queue = %d/%d, want 2/20", a.Counts[StallDRAMQueue], a.Cycles[StallDRAMQueue])
	}
	if a.Hists[HistDRAMQueueWait].Count != 2 || a.Hists[HistDRAMQueueWait].Sum != 20 {
		t.Fatalf("dram hist = %+v", a.Hists[HistDRAMQueueWait])
	}
	b.Reset()
	if *b != (Attribution{}) {
		t.Fatal("Reset left residue")
	}
}

func TestAttributionNilReceiverIsSafeAndFree(t *testing.T) {
	var a *Attribution
	if a.Enabled() {
		t.Fatal("nil lane reports enabled")
	}
	if a.Report() != nil {
		t.Fatal("nil lane produced a report")
	}
	a.Merge(NewAttribution()) // must not panic
	a.Reset()
	// The off switch is the whole point: a disabled charge site must be
	// a branch, never an allocation.
	if allocs := testing.AllocsPerRun(1000, func() {
		a.Charge(StallLinkBackpressure, 3)
		a.Observe(HistNoCLinkWait, 3)
	}); allocs != 0 {
		t.Fatalf("disabled charge allocates %v/op", allocs)
	}
}

func TestAttributionEnabledChargeIsAllocationFree(t *testing.T) {
	a := NewAttribution()
	i := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		i++
		a.Charge(StallBankConflict, 0)
		a.Observe(HistNoCLinkWait, i)
	}); allocs != 0 {
		t.Fatalf("enabled charge allocates %v/op", allocs)
	}
}

func TestAttributionReportSkipsZerosAndKeepsEnumOrder(t *testing.T) {
	a := NewAttribution()
	a.Charge(StallDRAMQueue, 5) // later enum value charged first
	a.Charge(StallROBFull, 0)
	a.Observe(HistNoCLinkWait, 2)
	rep := a.Report()
	if rep.Schema != AttributionSchema {
		t.Fatalf("schema = %d", rep.Schema)
	}
	if len(rep.Stalls) != 2 || rep.Stalls[0].Reason != "rob_full" || rep.Stalls[1].Reason != "dram_queue" {
		t.Fatalf("stalls = %+v, want rob_full then dram_queue (enum order, zeros skipped)", rep.Stalls)
	}
	if rep.Stalls[0].Component != "cpu" || rep.Stalls[1].Component != "mem" {
		t.Fatalf("components = %s/%s", rep.Stalls[0].Component, rep.Stalls[1].Component)
	}
	if len(rep.Hists) != 1 || rep.Hists[0].Name != "noc_link_wait_cycles" {
		t.Fatalf("hists = %+v", rep.Hists)
	}
}

func TestReportHistEmitsOnlyNonEmptyBuckets(t *testing.T) {
	var h Hist
	h.Observe(0)
	h.Observe(6)
	h.Observe(6)
	rep := ReportHist("x", &h)
	want := []HistogramBucket{{Le: 0, Count: 1}, {Le: 7, Count: 2}}
	if len(rep.Buckets) != 2 || rep.Buckets[0] != want[0] || rep.Buckets[1] != want[1] {
		t.Fatalf("buckets = %+v, want %+v", rep.Buckets, want)
	}
}

func TestRunReportCanonicalStripsExec(t *testing.T) {
	rep := &RunReport{
		Schema: ReportSchema,
		Jobs: []JobReport{{
			Key: "a",
			Attribution: &AttributionReport{
				Schema: AttributionSchema,
				Stalls: []StallEntry{{Reason: "mshr_merge", Component: "cache", Count: 3}},
				Exec:   &ExecReport{Windows: 9, IdleElidedCycles: 120},
			},
		}},
	}
	canon := rep.Canonical()
	if canon.Jobs[0].Attribution.Exec != nil {
		t.Fatal("Canonical kept the exec section")
	}
	if len(canon.Jobs[0].Attribution.Stalls) != 1 {
		t.Fatal("Canonical dropped the canonical stalls")
	}
	if rep.Jobs[0].Attribution.Exec == nil {
		t.Fatal("Canonical mutated the original report")
	}
}

func TestWriteStallTableRendersChargesAndExec(t *testing.T) {
	rep := &RunReport{Jobs: []JobReport{{
		Key: "histogram|NS",
		Attribution: &AttributionReport{
			Schema: AttributionSchema,
			Stalls: []StallEntry{
				{Reason: "mshr_merge", Component: "cache", Count: 7},
				{Reason: "dram_queue", Component: "mem", Count: 2, Cycles: 40},
			},
			Hists: []HistogramReport{{Name: "dram_queue_wait_cycles", Count: 2, Sum: 40}},
			Exec:  &ExecReport{Windows: 5, IdleElidedCycles: 17},
		},
	}, {Key: "no-attrib"}}}
	var buf bytes.Buffer
	if err := WriteStallTable(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"histogram|NS",
		"dram_queue", "100.0", // all cycles on one reason
		"hist dram_queue_wait_cycles", "mean=20.0",
		"exec: windows=5 idle_elided_cycles=17",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stall table missing %q:\n%s", want, out)
		}
	}
	// Cycle-bearing reasons sort above count-only ones.
	if strings.Index(out, "dram_queue") > strings.Index(out, "mshr_merge") {
		t.Errorf("stall table not sorted by cycles:\n%s", out)
	}

	var empty bytes.Buffer
	if err := WriteStallTable(&empty, &RunReport{Jobs: []JobReport{{Key: "x"}}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no attribution data") {
		t.Errorf("empty table = %q", empty.String())
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("task.wall_ms")
	r.SetHelp("task.wall_ms", "task wall time")
	h.Observe(0)
	h.Observe(3)
	h.Observe(3)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	want := "# HELP task_wall_ms task wall time\n" +
		"# TYPE task_wall_ms histogram\n" +
		"task_wall_ms_bucket{le=\"0\"} 1\n" +
		"task_wall_ms_bucket{le=\"1\"} 1\n" +
		"task_wall_ms_bucket{le=\"3\"} 3\n" +
		"task_wall_ms_bucket{le=\"+Inf\"} 3\n" +
		"task_wall_ms_sum 6\n" +
		"task_wall_ms_count 3\n"
	if buf.String() != want {
		t.Fatalf("prometheus histogram:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestAttributionReportJSONRoundTrips(t *testing.T) {
	a := NewAttribution()
	a.Charge(StallLineLock, 0)
	a.Observe(HistNoCLinkWait, 9)
	rep := &RunReport{Schema: ReportSchema, Jobs: []JobReport{{Key: "k", Attribution: a.Report()}}}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	got := back.Jobs[0].Attribution
	if got == nil || got.Schema != AttributionSchema || len(got.Stalls) != 1 || len(got.Hists) != 1 {
		t.Fatalf("round-tripped attribution = %+v", got)
	}
}
