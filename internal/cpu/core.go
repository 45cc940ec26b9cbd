package cpu

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// MemRef describes the memory side of a Load/Store/Atomic micro-op.
type MemRef struct {
	Addr  uint64
	Write bool
	PC    uint64
}

// MicroOp is one dynamic micro-operation. Deps name earlier ops by their
// sequence number (the value Core assigns in fetch order, starting at 0);
// dependences on ops older than the window are treated as ready.
type MicroOp struct {
	Class OpClass
	Deps  []uint64
	Mem   *MemRef
	// ExtraLatency is added to the class latency (e.g. an SE FIFO access).
	ExtraLatency sim.Time
	// OnRetire, if set, runs when the op retires (in order), with the
	// retirement time. The stream runtime uses this for s_step/commit.
	OnRetire func(at sim.Time)
	// OnIssue, if set, runs when the op's issue time is decided. For
	// memory ops the hierarchy access starts at this time.
	OnIssue func(at sim.Time)
}

// FetchResult is the source's answer to a fetch request.
type FetchResult int

const (
	// FetchOp delivered an op.
	FetchOp FetchResult = iota
	// FetchStall means no op is available yet; the source must call
	// Core.Wake when that changes.
	FetchStall
	// FetchDone means the instruction stream ended.
	FetchDone
)

// OpSource supplies the dynamic micro-op stream.
type OpSource interface {
	Next() (*MicroOp, FetchResult)
}

// OpRecycler is optionally implemented by an OpSource: the core hands each
// op back once it has finished reading it (at issue), so the source can
// pool op objects instead of allocating one per dynamic instruction. A
// recycled op may be returned again from a later Next.
type OpRecycler interface {
	Recycle(*MicroOp)
}

// SetMem fills the op's MemRef, reusing an existing allocation (pooled ops
// keep theirs across reuse).
func (op *MicroOp) SetMem(ref MemRef) {
	if op.Mem == nil {
		op.Mem = new(MemRef)
	}
	*op.Mem = ref
}

// MemFunc issues a memory access for op seq at time at; done must be called
// exactly once when the access completes.
type MemFunc func(seq uint64, ref MemRef, at sim.Time, done func())

// robEntry tracks one in-flight op.
type robEntry struct {
	seq      uint64
	complete sim.Time
	resolved bool
	onRetire func(at sim.Time)
}

// waitOp is a dispatched-but-unissued op parked in the issue queue until
// its dependences resolve.
type waitOp struct {
	op        *MicroOp
	seq       uint64
	loadSlot  int // -1 when none
	storeSlot int
}

// Core is one hardware context (a full core or an SCC thread).
type Core struct {
	cfg    Config
	engine *sim.Engine
	source OpSource
	mem    MemFunc

	// Window state. The rings are sized to the next power of two above
	// ROB so the per-dependence seq->slot mapping is a mask, not a
	// divide; capacity checks still use cfg.ROB. A ring larger than the
	// window is harmless: at most ROB entries are in flight, and a
	// doneTimes shadow is overwritten only ring-size retirements later.
	robMask    uint64
	rob        []robEntry // ring, indexed by seq & robMask
	fetched    uint64     // ops fetched (next seq)
	retired    uint64     // ops retired
	lastRetire sim.Time
	doneTimes  []sim.Time // shadow completions of recently retired ops

	// Issue-queue: ops dispatched but waiting on unresolved deps (OOO).
	// resolveVer counts resolved-bit transitions; drainWaiting skips its
	// scan when nothing resolved since the last drain (issue eligibility
	// only changes when a dependency resolves, so the skip is exact).
	waiting      []waitOp
	resolveVer   uint64
	lastDrainVer uint64

	// Issue bandwidth bookkeeping.
	issueCycle sim.Time
	issueUsed  int
	lastIssue  sim.Time

	// Functional units: next-free time per unit.
	fu [numFUKinds][]sim.Time

	// Load/store queue occupancy rings (completion time or MaxTime while
	// the slot's op is still in flight).
	loadRing  []sim.Time
	loadIdx   int
	storeRing []sim.Time
	storeIdx  int

	fetchDone bool
	stalled   bool // waiting on source Wake
	// ticker drives the pipeline: one pump per active cycle. The pump
	// parks it (by returning false) whenever forward progress needs an
	// outside event — a fetch stall, a blocked dispatch, an unresolved
	// ROB head — so an idle core consumes no engine events at all; memory
	// completions and source wakeups re-arm it idempotently.
	ticker  *sim.Recurring
	retryOp *MicroOp
	onIdle  func()
	// recycle returns issued ops to an OpRecycler source for pooling.
	recycle func(*MicroOp)

	// Stats.
	OpsRetired uint64
	MemOps     uint64

	// attrib is the core's cycle-attribution lane (nil = off). Every
	// pipeline park charges its blocking cause; charges are count-only
	// (the park's duration is decided by the event that re-pumps).
	attrib *obs.Attribution
}

// NewCore builds a core. mem may be nil when the source never produces
// memory ops with a MemRef.
func NewCore(engine *sim.Engine, cfg Config, source OpSource, mem MemFunc) *Core {
	if cfg.IssueWidth <= 0 || cfg.ROB <= 0 {
		panic("cpu: bad core config")
	}
	ring := 1
	for ring < cfg.ROB {
		ring <<= 1
	}
	c := &Core{
		cfg:       cfg,
		engine:    engine,
		source:    source,
		mem:       mem,
		robMask:   uint64(ring - 1),
		rob:       make([]robEntry, ring),
		doneTimes: make([]sim.Time, ring),
		loadRing:  make([]sim.Time, maxInt(cfg.LQ, 1)),
		storeRing: make([]sim.Time, maxInt(cfg.SQ, 1)),
	}
	for k := range c.fu {
		c.fu[k] = make([]sim.Time, cfg.FUCount[k])
	}
	c.ticker = engine.NewRecurring(1, c.pump)
	if r, ok := source.(OpRecycler); ok {
		c.recycle = r.Recycle
	}
	return c
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Start begins execution.
func (c *Core) Start() { c.ticker.Wake() }

// Wake tells a stalled core that its source has ops again.
func (c *Core) Wake() {
	if c.stalled {
		c.stalled = false
		c.ticker.Wake()
	}
}

// Done reports whether the core has retired its whole stream.
func (c *Core) Done() bool { return c.fetchDone && c.retired == c.fetched }

// FinishTime returns the retirement time of the last op.
func (c *Core) FinishTime() sim.Time { return c.lastRetire }

// SetOnIdle registers a callback fired once when the stream completes.
func (c *Core) SetOnIdle(fn func()) { c.onIdle = fn }

// SetAttribution attaches a cycle-attribution lane (nil detaches).
func (c *Core) SetAttribution(a *obs.Attribution) { c.attrib = a }

// completionOf returns the completion time of dependency seq, or ok=false
// while it is unresolved.
func (c *Core) completionOf(seq uint64) (sim.Time, bool) {
	if seq >= c.fetched {
		panic(fmt.Sprintf("cpu: dependence on future op %d (fetched %d)", seq, c.fetched))
	}
	if seq < c.retired {
		if c.retired-seq <= uint64(c.cfg.ROB) {
			return c.doneTimes[seq&c.robMask], true
		}
		return 0, true
	}
	e := &c.rob[seq&c.robMask]
	if !e.resolved {
		return 0, false
	}
	return e.complete, true
}

// tryRetire advances retirement over resolved heads.
func (c *Core) tryRetire() {
	for c.retired < c.fetched {
		e := &c.rob[c.retired&c.robMask]
		if !e.resolved {
			return
		}
		if e.complete > c.lastRetire {
			c.lastRetire = e.complete
		}
		c.doneTimes[c.retired&c.robMask] = e.complete
		if e.onRetire != nil {
			fn, at := e.onRetire, c.lastRetire
			e.onRetire = nil
			fn(at)
		}
		c.retired++
		c.OpsRetired++
	}
	if c.fetchDone && c.Done() && c.onIdle != nil {
		fn := c.onIdle
		c.onIdle = nil
		fn()
	}
}

// maxPumpOps bounds run-ahead per pump so event interleaving with the
// memory system stays fine-grained.
const maxPumpOps = 64

// pump advances the pipeline for one cycle of work. It reports whether
// the ticker should fire again next cycle; returning false parks the core
// until a completion event or source wakeup calls ticker.Wake.
func (c *Core) pump() bool {
	c.drainWaiting()
	c.tryRetire()
	for n := 0; n < maxPumpOps; n++ {
		if c.fetched-c.retired >= uint64(c.cfg.ROB) {
			if c.rob[c.retired&c.robMask].resolved {
				c.tryRetire()
				continue
			}
			c.attrib.Charge(obs.StallROBFull, 0)
			return false // head unresolved; completion event re-pumps
		}
		op := c.retryOp
		if op != nil {
			c.retryOp = nil
		} else {
			var res FetchResult
			op, res = c.source.Next()
			switch res {
			case FetchStall:
				c.stalled = true
				c.attrib.Charge(obs.StallFetchStarved, 0)
				return false
			case FetchDone:
				c.fetchDone = true
				c.tryRetire()
				return false
			}
		}
		if !c.dispatch(op) {
			c.retryOp = op
			return false // blocked; a completion event re-pumps
		}
	}
	return true
}

// dispatch admits one op into the window. It returns false when dispatch
// must stall (LSQ slot or IQ full, or in-order with unresolved deps).
func (c *Core) dispatch(op *MicroOp) bool {
	// Reserve LSQ slots at dispatch (allocation-time semantics).
	isLoad := op.Class == Load || op.Class == Atomic
	isStore := op.Class == Store || op.Class == Atomic
	loadSlot, storeSlot := -1, -1
	ready := c.engine.Now()
	if isLoad {
		if c.loadRing[c.loadIdx] == sim.MaxTime {
			c.attrib.Charge(obs.StallLSQFull, 0)
			return false // LQ full
		}
		if t := c.loadRing[c.loadIdx]; t > ready {
			ready = t
		}
	}
	if isStore {
		if c.storeRing[c.storeIdx] == sim.MaxTime {
			c.attrib.Charge(obs.StallLSQFull, 0)
			return false // SQ full
		}
		if t := c.storeRing[c.storeIdx]; t > ready {
			ready = t
		}
	}
	// Resolve dependences.
	unresolved := false
	for _, d := range op.Deps {
		t, ok := c.completionOf(d)
		if !ok {
			unresolved = true
			continue
		}
		if t > ready {
			ready = t
		}
	}
	if unresolved {
		if c.cfg.InOrder {
			// The front op blocks on unresolved work, the in-order analogue
			// of an unresolved ROB head.
			c.attrib.Charge(obs.StallROBFull, 0)
			return false // in-order issue stalls at the front
		}
		if len(c.waiting) >= c.cfg.IQ {
			c.attrib.Charge(obs.StallIQFull, 0)
			return false // issue queue full
		}
	}
	// Claim LSQ slots now that we will definitely dispatch.
	if isLoad {
		loadSlot = c.loadIdx
		c.loadRing[loadSlot] = sim.MaxTime
		c.loadIdx = (c.loadIdx + 1) % len(c.loadRing)
	}
	if isStore {
		storeSlot = c.storeIdx
		c.storeRing[storeSlot] = sim.MaxTime
		c.storeIdx = (c.storeIdx + 1) % len(c.storeRing)
	}
	seq := c.fetched
	c.fetched++
	c.rob[seq&c.robMask] = robEntry{seq: seq, onRetire: op.OnRetire}
	if unresolved {
		c.waiting = append(c.waiting, waitOp{op: op, seq: seq, loadSlot: loadSlot, storeSlot: storeSlot})
		return true
	}
	c.issueOp(op, seq, ready, loadSlot, storeSlot)
	if c.recycle != nil {
		c.recycle(op)
	}
	return true
}

// drainWaiting re-checks parked ops after completions; runs to fixpoint so
// chains of non-memory ops resolve in one pass.
func (c *Core) drainWaiting() {
	if c.resolveVer == c.lastDrainVer {
		return
	}
	if len(c.waiting) == 0 {
		c.lastDrainVer = c.resolveVer
		return
	}
	for {
		progressed := false
		remaining := c.waiting[:0]
		for _, w := range c.waiting {
			ready := c.engine.Now()
			ok := true
			for _, d := range w.op.Deps {
				t, resolved := c.completionOf(d)
				if !resolved {
					ok = false
					break
				}
				if t > ready {
					ready = t
				}
			}
			if !ok {
				remaining = append(remaining, w)
				continue
			}
			c.issueOp(w.op, w.seq, ready, w.loadSlot, w.storeSlot)
			if c.recycle != nil {
				c.recycle(w.op)
			}
			progressed = true
		}
		c.waiting = remaining
		if !progressed {
			c.lastDrainVer = c.resolveVer
			return
		}
	}
}

// issueOp assigns an issue time respecting bandwidth and functional units,
// then starts execution (memory ops go to the hierarchy).
func (c *Core) issueOp(op *MicroOp, seq uint64, ready sim.Time, loadSlot, storeSlot int) {
	if c.cfg.InOrder && c.lastIssue > ready {
		ready = c.lastIssue
	}
	issue := ready
	if issue < c.issueCycle {
		issue = c.issueCycle
	}
	if issue == c.issueCycle && c.issueUsed >= c.cfg.IssueWidth {
		issue++
	}
	kind := fuFor(op.Class)
	units := c.fu[kind]
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	if units[best] > issue {
		issue = units[best]
	}
	if issue != c.issueCycle {
		c.issueCycle = issue
		c.issueUsed = 0
	}
	c.issueUsed++
	occupancy := sim.Time(1)
	if op.Class == IntDiv || op.Class == FPDiv {
		occupancy = c.cfg.Latency[op.Class] // unpipelined
	}
	units[best] = issue + occupancy
	c.lastIssue = issue

	if op.OnIssue != nil {
		op.OnIssue(issue)
	}

	e := &c.rob[seq&c.robMask]
	if op.Class.IsMem() && op.Mem != nil {
		c.MemOps++
		extra := op.ExtraLatency
		ref := *op.Mem
		c.mem(seq, ref, issue, func() {
			at := c.engine.Now() + extra
			c.resolveMem(seq, at, loadSlot, storeSlot)
		})
		if op.Class == Store {
			// Stores complete into the store buffer; the SQ slot stays
			// busy until memory acknowledges.
			e.resolved = true
			e.complete = issue + c.cfg.Latency[Store] + op.ExtraLatency
			c.resolveVer++
		}
	} else {
		lat := c.cfg.Latency[op.Class] + op.ExtraLatency
		if op.Class.IsMem() {
			// Mem-class op without a MemRef (SE FIFO access).
			lat = c.cfg.Latency[IntAlu] + op.ExtraLatency
		}
		e.resolved = true
		e.complete = issue + lat
		c.resolveVer++
		if loadSlot >= 0 {
			c.loadRing[loadSlot] = e.complete
		}
		if storeSlot >= 0 {
			c.storeRing[storeSlot] = e.complete
		}
	}
	c.tryRetire()
}

// resolveMem records a memory op's completion, frees its queue slots, and
// restarts the pipeline.
func (c *Core) resolveMem(seq uint64, at sim.Time, loadSlot, storeSlot int) {
	if c.fetched > seq && c.fetched-seq <= uint64(c.cfg.ROB) {
		e := &c.rob[seq&c.robMask]
		if e.seq == seq && !e.resolved {
			e.resolved = true
			e.complete = at
			c.resolveVer++
		}
	}
	if loadSlot >= 0 {
		c.loadRing[loadSlot] = at
	}
	if storeSlot >= 0 {
		c.storeRing[storeSlot] = at
	}
	c.drainWaiting()
	c.tryRetire()
	if !c.Done() {
		c.ticker.Wake()
	}
}

func fuFor(class OpClass) fuKind {
	switch class {
	case IntAlu:
		return fuIntAlu
	case IntMult, IntDiv:
		return fuIntMult
	case FPAlu, SIMD:
		return fuFPAlu
	case FPDiv:
		return fuFPDiv
	case Load, Store, Atomic:
		return fuMemPort
	default:
		panic("cpu: unknown op class")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
