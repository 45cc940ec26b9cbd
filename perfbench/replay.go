package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// replayJob is one job the program executed, with what the program
// returned for it and the pool's host time for it (seconds; 0 = unknown).
type replayJob struct {
	job      runner.Job
	want     *runner.Result
	poolWall float64
}

// replayTotals sums what a replay measured.
type replayTotals struct {
	jobs       int
	mismatches []string
	phaseMs    float64 // machine acquire + dataset + core.Run + collect
	poolMs     float64 // the pool's host time for the same jobs
	runMs      float64 // core.Run only
	uops       uint64
	events     uint64
}

// replay re-executes each job outside the pool by calling the layers'
// public functions in the order runner's job execution does — machine
// checkout (New, or Reset of a machine this worker already built for the
// same config), dataset (workloads.Get, ir.NewData/AllocArrays, Init
// behind a runner.DatasetCache), core.Run per iteration, then
// CollectStats and energy.Estimate — with a span around each call. Its
// Result must equal the program's. compiler.Compile is timed as a
// separate call; core.Run compiles again inside, so the compile span is
// not added to the phase sum.
func replay(jobs []replayJob, workers int, spans *spanLog) replayTotals {
	var (
		mu  sync.Mutex
		tot replayTotals
		wg  sync.WaitGroup
	)
	datasets := runner.NewDatasetCache(runner.DefaultDatasetCacheBytes)
	next := make(chan replayJob)
	for i := 0; i < max(workers, 1); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			machines := &machineCache{byCfg: map[machine.Config]*machine.Machine{}}
			defer machines.close()
			for rj := range next {
				got, ph, err := replayOne(rj.job, machines, datasets, spans)
				mu.Lock()
				tot.jobs++
				switch {
				case err != nil:
					tot.mismatches = append(tot.mismatches, fmt.Sprintf("%s: replay failed: %v", rj.job.Key(), err))
				case !reflect.DeepEqual(got, rj.want):
					tot.mismatches = append(tot.mismatches, fmt.Sprintf("%s: replay result differs from the program's", rj.job.Key()))
				default:
					tot.uops += got.TotalOps
					tot.events += got.Events
				}
				if rj.poolWall > 0 {
					tot.phaseMs += ph.total
					tot.poolMs += rj.poolWall * 1e3
				}
				tot.runMs += ph.run
				mu.Unlock()
			}
		}()
	}
	for _, rj := range jobs {
		next <- rj
	}
	close(next)
	wg.Wait()
	return tot
}

type phases struct{ total, run float64 }

// machineCache keeps the few machines a replay worker built most
// recently, by normalized config, for reuse through Reset. It holds at
// most replayMachines: jobs with distinct seeds never share a config.
type machineCache struct {
	byCfg map[machine.Config]*machine.Machine
	order []machine.Config // oldest first
}

const replayMachines = 4

func (c *machineCache) get(cfg machine.Config) *machine.Machine { return c.byCfg[cfg] }

func (c *machineCache) put(cfg machine.Config, m *machine.Machine) {
	c.byCfg[cfg] = m
	c.order = append(c.order, cfg)
	if len(c.order) > replayMachines {
		old := c.order[0]
		c.order = c.order[1:]
		c.byCfg[old].Close()
		delete(c.byCfg, old)
	}
}

// drop forgets a machine whose run failed: it no longer satisfies the
// Reset contract.
func (c *machineCache) drop(cfg machine.Config) {
	for i, k := range c.order {
		if k == cfg {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	delete(c.byCfg, cfg)
}

func (c *machineCache) close() {
	for _, m := range c.byCfg {
		m.Close()
	}
}

func replayOne(j runner.Job, machines *machineCache, datasets *runner.DatasetCache, spans *spanLog) (*runner.Result, phases, error) {
	var ph phases
	req := j.Key()
	root := spans.start("replay.job", req, nil)
	defer root.end()
	timed := func(name string, fn func()) float64 {
		sp := spans.start(name, req, root)
		t := time.Now()
		fn()
		sp.end()
		return float64(time.Since(t).Nanoseconds()) / 1e6
	}

	mc := runner.MachineConfig(j, j.System == core.Base)
	key := machine.Normalize(mc)
	m := machines.get(key)
	if m != nil {
		ph.total += timed("machine.reset", m.Reset)
	} else {
		ph.total += timed("machine.new", func() { m = machine.New(mc) })
		machines.put(key, m)
	}

	var (
		w *workloads.Workload
		d *ir.Data
	)
	ph.total += timed("workloads.dataset", func() {
		w = workloads.Get(j.Workload, j.Scale)
		d = ir.NewData(m.AS)
		d.AllocArrays(w.Kernel)
		datasets.Materialize(fmt.Sprintf("%s|%s|seed=%d", j.Workload, j.Scale, j.Seed), w, d,
			func() { w.Init(d, sim.NewRand(j.Seed^0x9e37)) })
	})
	if j.System != core.Base {
		var err error
		timed("compiler.compile", func() { _, err = compiler.Compile(w.Kernel) })
		if err != nil {
			return nil, ph, err
		}
	}

	params := core.DefaultParams(m.Tiles())
	j.Overrides.Apply(&params)
	out := &runner.Result{Workload: j.Workload, System: j.System}
	runSpan := "core.run.stream"
	if j.System == core.Base {
		runSpan = "core.run.base"
	}
	for it := 0; it < w.Iters; it++ {
		var res *core.RunResult
		var err error
		ms := timed(runSpan, func() { res, err = core.Run(m, w.Kernel, j.System, params, w.Params, d) })
		ph.total += ms
		ph.run += ms
		if err != nil {
			machines.drop(key)
			m.Close()
			return nil, ph, err
		}
		for _, n := range res.DynOps {
			out.TotalOps += n
		}
		out.StreamableOps += res.DynOps[1] + res.DynOps[2] // mem + compute
		out.OffloadedOps += res.OffloadedOps
	}

	ph.total += timed("machine.collect", func() {
		m.FinishTrace()
		m.FinishAttribution()
		out.Cycles = uint64(m.Now())
		out.Events = m.ExecutedEvents()
		s := m.CollectStats()
		out.TrafficData = s.Get("noc.bytehops.data")
		out.TrafficControl = s.Get("noc.bytehops.control")
		out.TrafficOffload = s.Get("noc.bytehops.offloaded")
		out.LockAcquires = s.Get("lock.acquires")
		out.LockConflicts = s.Get("lock.conflicts")
		coreName := j.CoreType
		if coreName != "IO4" && coreName != "OOO4" {
			coreName = "OOO8"
		}
		out.Energy = energy.Estimate(energy.ForCore(coreName), s, out.TotalOps, out.Cycles)
	})
	m.Close()
	return out, ph, nil
}
