// Package machine assembles the full simulated system of Table V: the
// event engine, the W×H mesh, the DRAM controllers, the three-level cache
// hierarchy with directory coherence, the address space with huge-page
// support, and the one counter registry every component counts into. The
// near-stream runtime (internal/core) and the experiment harness build on
// a Machine.
package machine

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/tlb"
)

// Config sizes a machine.
type Config struct {
	// MeshWidth/MeshHeight give the tile grid (8×8 in the paper; tests
	// and CI-scale experiments use 4×4).
	MeshWidth, MeshHeight int
	// Cores is how many tiles run worker threads (≤ tiles; the rest only
	// contribute L3 banks). 0 means all.
	Cores int
	// CoreType selects the core model.
	CoreType cpu.Config
	// Cache configures the hierarchy (DefaultConfig for Table V).
	Cache cache.Config
	// NoC configures the mesh.
	NoC noc.Config
	// Mem configures DRAM.
	Mem mem.Config
	// UseHugePages backs allocations with physically contiguous huge
	// pages (the §IV-A assumption range-sync relies on).
	UseHugePages bool
	// EnablePrefetchers turns on the Bingo + stride prefetchers (the
	// Base system only, §VI).
	EnablePrefetchers bool
	// Seed feeds every deterministic RNG.
	Seed uint64
}

// Default returns the paper's 8×8 OOO8 machine.
func Default() Config {
	ncfg := noc.DefaultConfig()
	return Config{
		MeshWidth: 8, MeshHeight: 8,
		CoreType:     cpu.OOO8(),
		Cache:        cache.DefaultConfig(),
		NoC:          ncfg,
		Mem:          mem.DefaultConfig(),
		UseHugePages: true,
		Seed:         1,
	}
}

// CI returns a reduced 4×4 machine for tests and CI-scale experiments.
func CI() Config {
	cfg := Default()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.NoC.Width, cfg.NoC.Height = 4, 4
	return cfg
}

// Machine is an assembled system.
//
// Every clocked component hangs off one sim.Engine and follows its
// eventless-idle contract: cores park their pipeline ticker when
// stalled, cache banks and the NoC schedule work only when traffic is
// in flight, and DRAM is pure state between bursts. Idle tiles
// therefore cost nothing — the engine's time wheel pops only cycles
// that actually hold events. The NoC registers its window barrier on the
// engine (see noc.Network.flush), so the machine runs in Lookahead-cycle
// windows with cross-node messages routed at each window's end.
type Machine struct {
	Cfg     Config
	Engine  *sim.Engine
	Net     *noc.Network
	Dram    *mem.Memory
	Hier    *cache.Hierarchy
	AS      *tlb.AddressSpace
	PFUnits []*prefetch.Unit
	// Obs is the machine's only counter registry: the NoC, DRAM, caches
	// and the core layer all intern their counters in it. Tracer and
	// Sampler are the machine-wide observability hooks, nil unless a run
	// opts in via SetTracer / an attached sampler.
	Obs     *obs.Registry
	Tracer  *obs.Tracer
	Sampler *obs.Sampler
	// Attrib is the run's cycle-attribution sink, nil unless a run opts in
	// via SetAttribution; lane is the lane every charge site writes during
	// the run, folded into Attrib by FinishAttribution.
	Attrib *obs.Attribution
	lane   *obs.Attribution
}

// Normalize canonicalizes a config the way New does: NoC dimensions
// follow the mesh and zero Cores means every tile. Two configs that
// normalize equal build byte-identical machines, so the normalized value
// (a comparable struct) is the digest the runner's machine pool keys its
// free lists by.
func Normalize(cfg Config) Config {
	if cfg.MeshWidth <= 0 || cfg.MeshHeight <= 0 {
		panic("machine: bad mesh")
	}
	cfg.NoC.Width, cfg.NoC.Height = cfg.MeshWidth, cfg.MeshHeight
	if cfg.Cores == 0 {
		cfg.Cores = cfg.MeshWidth * cfg.MeshHeight
	}
	return cfg
}

// New assembles a machine.
func New(cfg Config) *Machine {
	cfg = Normalize(cfg)
	engine := sim.NewEngine()
	reg := obs.NewRegistry()
	net := noc.New(engine, cfg.NoC, reg)
	dram := mem.New(engine, cfg.Mem, reg)
	hier := cache.New(engine, net, dram, cfg.Cache, reg)
	m := &Machine{
		Cfg:    cfg,
		Engine: engine,
		Net:    net,
		Dram:   dram,
		Hier:   hier,
		AS:     tlb.NewAddressSpace(cfg.UseHugePages, cfg.Seed),
		Obs:    reg,
	}
	if cfg.EnablePrefetchers {
		for i := 0; i < net.Nodes(); i++ {
			m.PFUnits = append(m.PFUnits, prefetch.NewUnit(hier.Tile(i)))
		}
		hier.PrefetchHook = func(tile int, addr uint64, pc uint64, hit bool) {
			m.PFUnits[tile].Observe(addr, pc)
		}
	}
	return m
}

// Reset returns the machine to its just-built state so a pooled machine
// can run another job: engines rewound, links and buses idle, caches
// cold with their replacement rngs replaying from the seed, the address
// space forgetting every mapping, the registry's counters zeroed, tracers
// and sampler detached. The Reset contract is observational equivalence
// to New(m.Cfg) — a job run on a Reset machine must produce bit-identical
// results — which holds because every piece of run state is either
// cleared here or rebuilt per run (cores and SE state live in core.Run,
// not on the Machine). Precomputed routes, the NoC barrier and interned
// counter ids survive: they are functions of Cfg alone.
func (m *Machine) Reset() {
	m.Close()
	m.Engine.Reset()
	m.Net.Reset()
	m.Dram.Reset()
	m.Hier.Reset()
	m.AS.Reset()
	m.Obs.Reset()
	for _, u := range m.PFUnits {
		u.Reset()
	}
	if m.Cfg.EnablePrefetchers {
		// Hier.Reset clears the hook along with the rest of the run state.
		m.Hier.PrefetchHook = func(tile int, addr uint64, pc uint64, hit bool) {
			m.PFUnits[tile].Observe(addr, pc)
		}
	}
}

// SetTracer attaches one event tracer to every traced component (nil
// detaches). The components keep their own pointers so the hot-path guard
// is a single field load + nil check.
func (m *Machine) SetTracer(tr *obs.Tracer) {
	m.Tracer = tr
	m.Hier.SetTracer(tr)
	m.Net.SetTracer(tr)
	m.Dram.SetTracer(tr)
}

// FinishTrace puts the run's trace into the canonical (Time, Kind, Tile,
// A, B, Dur) order, so it does not depend on which component's event
// happened to fire first within a cycle. Call it once, after the run;
// runner.executeJob does.
func (m *Machine) FinishTrace() {
	if m.Tracer != nil {
		m.Tracer.SortCanonical()
	}
}

// SetAttribution attaches a cycle-attribution sink (nil detaches). Every
// charge site — caches, NoC, DRAM, and the cores and stream engines a run
// builds (see AttributionLane) — charges one fresh lane, which
// FinishAttribution folds into a.
func (m *Machine) SetAttribution(a *obs.Attribution) {
	m.Attrib = a
	m.lane = nil
	if a != nil {
		m.lane = obs.NewAttribution()
	}
	m.Hier.SetAttribution(m.lane)
	m.Net.SetAttribution(m.lane)
	m.Dram.SetAttribution(m.lane)
}

// AttributionLane returns the lane charge sites write during a run (nil
// while attribution is detached). Cores and stream state built per run
// charge into it.
func (m *Machine) AttributionLane() *obs.Attribution { return m.lane }

// FinishAttribution folds the run's lane into the attached sink and
// empties the lane. Call it once, after the run; runner.executeJob does.
func (m *Machine) FinishAttribution() {
	if m.Attrib == nil {
		return
	}
	m.Attrib.Merge(m.lane)
	m.lane.Reset()
}

// ExecProfile snapshots the execution-dependent side of a run's profile:
// barrier windows, idle-cycle elision and wheel occupancy. None of it
// describes the simulated machine, so it belongs in the report's
// non-canonical Exec section, never in canonical output.
func (m *Machine) ExecProfile() *obs.ExecReport {
	e := m.Engine
	rep := &obs.ExecReport{Windows: e.Windows(), IdleElidedCycles: e.IdleElided}
	buckets, count, sum := e.WheelOccupancy()
	if count > 0 {
		occ := obs.Hist{Buckets: buckets, Count: count, Sum: sum}
		h := obs.ReportHist("wheel_occupancy", &occ)
		rep.WheelOccupancy = &h
	}
	return rep
}

// Run drains the machine and returns the final time (the last event's
// cycle).
func (m *Machine) Run() sim.Time { return m.Engine.Run() }

// RunTo runs events with timestamps <= limit (the sampler's stepping
// primitive); it reports whether the machine drained.
func (m *Machine) RunTo(limit sim.Time) bool { return m.Engine.RunTo(limit) }

// Now returns the machine clock.
func (m *Machine) Now() sim.Time { return m.Engine.Now() }

// ExecutedEvents counts fired events.
func (m *Machine) ExecutedEvents() uint64 { return m.Engine.Executed }

// Stopped reports whether the engine was stopped (deadlock bail-out).
func (m *Machine) Stopped() bool { return m.Engine.Stopped() }

// Close detaches the run's tracer, attribution sink and sampler, so an
// idle or pooled machine holds no reference to a finished job's
// observability records. Call FinishTrace and FinishAttribution first.
func (m *Machine) Close() {
	m.SetTracer(nil)
	m.SetAttribution(nil)
	m.Sampler = nil
}

// Tiles returns the mesh node count.
func (m *Machine) Tiles() int { return m.Net.Nodes() }

// Cores returns the worker-core count.
func (m *Machine) Cores() int { return m.Cfg.Cores }

// Translate maps a virtual to a physical address (functional: core-side
// TLB latency is not modelled; the SE_L3 charges its own page-cache
// misses).
func (m *Machine) Translate(va uint64) uint64 { return m.AS.Translate(va) }

// HomeBank returns the L3 bank of a virtual address.
func (m *Machine) HomeBank(va uint64) int { return m.Hier.HomeBank(m.Translate(va)) }

// CollectStats returns a frozen snapshot of the machine's counters; the
// machine's next run or Reset does not change it.
func (m *Machine) CollectStats() obs.Snapshot { return m.Obs.Snapshot() }
