// Package noc models the on-chip interconnect: a W×H mesh with X-Y
// dimension-order routing, 256-bit single-cycle links, a multi-stage router
// pipeline, link contention, and multicast — matching the Garnet
// configuration of Table V. Every delivered message is charged bytes×hops
// to its class's noc.bytehops.* counter, the unit Figures 1b, 12 and 15
// report.
package noc

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Config describes a mesh network.
type Config struct {
	// Width and Height give the mesh dimensions (8×8 in the paper).
	Width, Height int
	// LinkBytesPerCycle is the link width; Table V uses 256-bit links,
	// i.e. 32 bytes per cycle.
	LinkBytesPerCycle int
	// LinkLatency is the cycles to traverse one link.
	LinkLatency sim.Time
	// RouterLatency is the pipeline depth of each router (5 in Table V).
	RouterLatency sim.Time
	// HeaderBytes is added to every message's payload for flit headers.
	HeaderBytes int
	// ModelContention enables per-link serialization and queueing; when
	// false the mesh is a pure latency model (used by the ideal-system
	// studies of Figure 1b).
	ModelContention bool
}

// DefaultConfig returns the Table V mesh: 8×8, 256-bit 1-cycle links,
// 5-stage routers.
func DefaultConfig() Config {
	return Config{
		Width:             8,
		Height:            8,
		LinkBytesPerCycle: 32,
		LinkLatency:       1,
		RouterLatency:     5,
		HeaderBytes:       8,
		ModelContention:   true,
	}
}

// Message is one network transfer. The zero Dst/Src is node 0; callers set
// all fields.
type Message struct {
	Src, Dst int
	// Bytes is the payload size; the network adds Config.HeaderBytes.
	Bytes int
	Class TrafficClass
	// OnDeliver runs at the destination when the message arrives. It may
	// be nil for fire-and-forget accounting.
	OnDeliver func()
}

// TrafficClass labels messages for the Figure 12 breakdown.
type TrafficClass int

const (
	// TrafficData is non-offloaded data accesses and writebacks.
	TrafficData TrafficClass = iota
	// TrafficControl is coherence and prefetch control messages.
	TrafficControl
	// TrafficOffload is near-data data+coordination traffic (credits,
	// ranges, commits, forwarded stream data, migrations).
	TrafficOffload
	numTrafficClasses
)

// String names the class like the paper's Figure 12 legend; it is also
// the suffix of the class's noc.bytehops.* counter.
func (c TrafficClass) String() string {
	switch c {
	case TrafficData:
		return "data"
	case TrafficControl:
		return "control"
	case TrafficOffload:
		return "offloaded"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Directed links get dense ids: node*4 + direction. Up to four outgoing
// links per node; edge nodes leave some ids unused, which costs a few
// array slots and saves every hot-path map operation.
const (
	dirEast  = iota // +x
	dirWest         // -x
	dirSouth        // +y
	dirNorth        // -y
	dirCount
)

// Network is the mesh interconnect.
//
// All per-link state is held in dense arrays indexed by link id, and the
// X-Y route between every (src, dst) pair is precomputed as a link-id list
// at construction: routing a message is a slice walk with no allocation
// and no map lookups.
type Network struct {
	cfg    Config
	engine *sim.Engine
	// nextFree tracks when each directed link can accept the next
	// message (message-granularity wormhole approximation).
	nextFree []sim.Time
	// busyCycles accumulates per-link occupancy for the utilization
	// metric of Figure 12.
	busyCycles []uint64
	// routeIDs/routeOff store every pair's route: the link ids of
	// (src, dst) are routeIDs[routeOff[src*nodes+dst]:routeOff[src*nodes+dst+1]].
	routeIDs []int32
	routeOff []int32
	// linkSeen/epoch dedupe links during multicast without a per-message
	// set: a link is counted when its stamp differs from the current epoch.
	linkSeen []uint32
	epoch    uint32
	// drainAt is the latest arrival time of any fire-and-forget message.
	// Instead of one nop event per silent delivery, a single horizon
	// event (horizonEv, queued while horizonQd) chases this running
	// maximum: it fires, and if deliveries have pushed the horizon out it
	// re-enqueues itself at the new time, so a run's drain time still
	// covers every delivery while idle routers schedule nothing.
	drainAt   sim.Time
	horizonQd bool
	horizonEv sim.Event
	// Delivered counts total messages for sanity checks.
	Delivered uint64
	// ctrSends/ctrMulticasts/ctrByteHops are interned in the machine's
	// registry; tracer (usually nil) receives per-message events behind an
	// Enabled() branch.
	ctrSends, ctrMulticasts obs.Counter
	ctrByteHops             [numTrafficClasses]obs.Counter
	tracer                  *obs.Tracer
	// attrib (usually nil) receives link-backpressure charges from
	// deliveryTimeAt.
	attrib *obs.Attribution
	// outbox holds the current window's sends, routed at the engine's
	// window barrier (see flush); sendSeq is the per-src-node send
	// counter, the canonical tiebreak for same-cycle sends.
	outbox  []pendingSend
	sendSeq []uint64
}

// pendingSend is one captured Send or Multicast awaiting barrier routing.
type pendingSend struct {
	at       sim.Time // send time
	seq      uint64   // per-src sequence at the send
	src, dst int32
	bytes    int32
	class    TrafficClass
	// local marks a same-node message already scheduled at capture: the
	// barrier only does its accounting.
	local bool
	fn    func()
	// dsts/mfn describe a multicast (dst is unused); same-node members
	// were already scheduled at capture, like local above.
	dsts []int32
	mfn  func(dst int)
}

// New builds a network on the given engine, interns its counters in reg,
// and registers the network's window barrier on the engine (see flush):
// the engine then runs in windows of Lookahead(cfg) cycles.
func New(engine *sim.Engine, cfg Config, reg *obs.Registry) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	if cfg.LinkBytesPerCycle <= 0 {
		panic("noc: link width must be positive")
	}
	n := &Network{cfg: cfg, engine: engine}
	n.ctrSends = reg.Counter("noc.sends")
	n.ctrMulticasts = reg.Counter("noc.multicasts")
	for c := range n.ctrByteHops {
		n.ctrByteHops[c] = reg.Counter("noc.bytehops." + TrafficClass(c).String())
	}
	nodes := n.Nodes()
	n.nextFree = make([]sim.Time, nodes*dirCount)
	n.busyCycles = make([]uint64, nodes*dirCount)
	n.linkSeen = make([]uint32, nodes*dirCount)
	n.horizonEv = func() {
		if n.drainAt > n.engine.Now() {
			n.engine.ScheduleAt(n.drainAt, n.horizonEv)
			return
		}
		n.horizonQd = false
	}
	n.sendSeq = make([]uint64, nodes)
	n.buildRoutes()
	engine.SetBarrier(Lookahead(cfg), n.captured, n.flush)
	return n
}

// SetTracer attaches (or with nil detaches) an event tracer. Every Send
// and multicast delivery emits a KindNoCMsg spanning injection to arrival.
func (n *Network) SetTracer(tr *obs.Tracer) { n.tracer = tr }

// SetAttribution attaches (or with nil detaches) a cycle-attribution
// lane. Every link traversal charges its queueing wait — the cycles a
// message sat behind earlier traffic on a link — and feeds the link-wait
// histogram.
func (n *Network) SetAttribution(a *obs.Attribution) { n.attrib = a }

// Lookahead returns the network's barrier window: the minimum latency of
// any cross-node message, two router traversals plus one link hop
// (serialization contributes at least one further cycle, absorbed by the
// -1 in the delivery-time formula), so a message routed at the end of the
// window it was sent in still arrives after that window. A degenerate
// zero-latency configuration clamps to one cycle.
func Lookahead(cfg Config) sim.Time {
	la := 2*cfg.RouterLatency + cfg.LinkLatency
	if la < 1 {
		la = 1
	}
	return la
}

// Reset returns the network to its just-built state: idle links, no
// pending drain horizon. Its counters live in the machine's registry,
// which the machine zeroes. Precomputed routes and the barrier
// registration survive — they are functions of the configuration, not of
// any run. The outbox is normally drained by the final barrier; clearing
// it here is defensive (an aborted run must not leak sends into the next
// job).
func (n *Network) Reset() {
	clear(n.nextFree)
	clear(n.busyCycles)
	clear(n.linkSeen)
	n.epoch = 0
	n.drainAt = 0
	n.horizonQd = false
	n.Delivered = 0
	n.tracer = nil
	n.attrib = nil
	clear(n.sendSeq)
	clear(n.outbox)
	n.outbox = n.outbox[:0]
}

// buildRoutes precomputes the X-Y link-id route of every (src, dst) pair
// into one flat array. An 8×8 mesh needs ~30k int32s; the largest sweeps
// stay well under a megabyte.
func (n *Network) buildRoutes() {
	nodes := n.Nodes()
	n.routeOff = make([]int32, nodes*nodes+1)
	var total int
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			total += n.HopCount(src, dst)
		}
	}
	n.routeIDs = make([]int32, 0, total)
	for src := 0; src < nodes; src++ {
		sx, sy := n.Coord(src)
		for dst := 0; dst < nodes; dst++ {
			dx, dy := n.Coord(dst)
			x, y := sx, sy
			for x != dx {
				u := y*n.cfg.Width + x
				if x < dx {
					n.routeIDs = append(n.routeIDs, int32(u*dirCount+dirEast))
					x++
				} else {
					n.routeIDs = append(n.routeIDs, int32(u*dirCount+dirWest))
					x--
				}
			}
			for y != dy {
				u := y*n.cfg.Width + x
				if y < dy {
					n.routeIDs = append(n.routeIDs, int32(u*dirCount+dirSouth))
					y++
				} else {
					n.routeIDs = append(n.routeIDs, int32(u*dirCount+dirNorth))
					y--
				}
			}
			n.routeOff[src*nodes+dst+1] = int32(len(n.routeIDs))
		}
	}
}

// routeLinks returns the precomputed link ids of the (src, dst) X-Y route
// (shared backing array: callers must not retain or mutate it).
func (n *Network) routeLinks(src, dst int) []int32 {
	p := src*n.Nodes() + dst
	return n.routeIDs[n.routeOff[p]:n.routeOff[p+1]]
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Nodes returns the number of mesh nodes.
func (n *Network) Nodes() int { return n.cfg.Width * n.cfg.Height }

// Coord converts a node id to (x, y).
func (n *Network) Coord(id int) (x, y int) {
	n.check(id)
	return id % n.cfg.Width, id / n.cfg.Width
}

// NodeAt converts (x, y) to a node id.
func (n *Network) NodeAt(x, y int) int {
	if x < 0 || x >= n.cfg.Width || y < 0 || y >= n.cfg.Height {
		panic(fmt.Sprintf("noc: coordinate (%d,%d) outside %dx%d mesh", x, y, n.cfg.Width, n.cfg.Height))
	}
	return y*n.cfg.Width + x
}

func (n *Network) check(id int) {
	if id < 0 || id >= n.Nodes() {
		panic(fmt.Sprintf("noc: node %d outside %dx%d mesh", id, n.cfg.Width, n.cfg.Height))
	}
}

// HopCount returns the X-Y route length between two nodes.
func (n *Network) HopCount(src, dst int) int {
	sx, sy := n.Coord(src)
	dx, dy := n.Coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// route returns the X-Y path of node ids from src to dst inclusive.
func (n *Network) route(src, dst int) []int {
	sx, sy := n.Coord(src)
	dx, dy := n.Coord(dst)
	path := []int{src}
	x, y := sx, sy
	for x != dx {
		if x < dx {
			x++
		} else {
			x--
		}
		path = append(path, n.NodeAt(x, y))
	}
	for y != dy {
		if y < dy {
			y++
		} else {
			y--
		}
		path = append(path, n.NodeAt(x, y))
	}
	return path
}

// serializationCycles returns the cycles to push a message through one link.
func (n *Network) serializationCycles(bytes int) sim.Time {
	total := bytes + n.cfg.HeaderBytes
	c := (total + n.cfg.LinkBytesPerCycle - 1) / n.cfg.LinkBytesPerCycle
	if c < 1 {
		c = 1
	}
	return sim.Time(c)
}

// Send captures a message for routing at the window barrier, which
// charges its traffic and schedules OnDeliver at the arrival time (see
// flush). A local (src==dst) message uses no link and its router-only
// latency may undercut the window, so OnDeliver is scheduled here, after
// the router latency; only its accounting waits for the barrier.
func (n *Network) Send(m *Message) {
	n.check(m.Src)
	n.check(m.Dst)
	now := n.engine.Now()
	n.sendSeq[m.Src]++
	p := pendingSend{at: now, seq: n.sendSeq[m.Src],
		src: int32(m.Src), dst: int32(m.Dst), bytes: int32(m.Bytes),
		class: m.Class, fn: m.OnDeliver}
	if m.Src == m.Dst {
		p.local = true
		if m.OnDeliver != nil {
			n.engine.ScheduleAt(now+n.cfg.RouterLatency, m.OnDeliver)
		}
	}
	n.outbox = append(n.outbox, p)
}

// deliveryTimeAt computes the arrival time of a message sent at now,
// advancing link reservations when contention modelling is on.
func (n *Network) deliveryTimeAt(now sim.Time, src, dst, bytes int) sim.Time {
	if src == dst {
		return now + n.cfg.RouterLatency
	}
	ser := n.serializationCycles(bytes)
	t := now + n.cfg.RouterLatency // injection router
	if !n.cfg.ModelContention {
		hops := sim.Time(n.HopCount(src, dst))
		return t + hops*(n.cfg.LinkLatency+n.cfg.RouterLatency) + ser - 1
	}
	for _, l := range n.routeLinks(src, dst) {
		start := t
		if free := n.nextFree[l]; free > start {
			start = free
		}
		if a := n.attrib; a != nil {
			wait := uint64(start - t)
			if wait > 0 {
				a.Charge(obs.StallLinkBackpressure, wait)
			}
			a.Observe(obs.HistNoCLinkWait, wait)
		}
		n.nextFree[l] = start + ser
		n.busyCycles[l] += uint64(ser)
		t = start + ser - 1 + n.cfg.LinkLatency + n.cfg.RouterLatency
	}
	return t
}

// LinkCount returns the number of directed mesh links: horizontal
// 2*(W-1)*H plus vertical 2*(H-1)*W.
func (n *Network) LinkCount() int {
	return 2*(n.cfg.Width-1)*n.cfg.Height + 2*(n.cfg.Height-1)*n.cfg.Width
}

// BusyLinkCycles returns the total link-cycles occupied so far, summed
// over all links (the sampler's utilization numerator).
func (n *Network) BusyLinkCycles() uint64 {
	var busy uint64
	for _, c := range n.busyCycles {
		busy += c
	}
	return busy
}

// Utilization returns the average fraction of link-cycles occupied so far
// (Figure 12's companion metric). Zero before any traffic or time.
func (n *Network) Utilization() float64 {
	now := uint64(n.engine.Now())
	if now == 0 {
		return 0
	}
	links := n.LinkCount()
	if links == 0 {
		return 0
	}
	return float64(n.BusyLinkCycles()) / float64(uint64(links)*now)
}

// Multicast sends one payload to several destinations along a shared X-Y
// tree: links common to multiple destinations are charged once, modelling
// the router multicast support of Table V. OnDeliver (if non-nil) runs once
// per destination. Routing is deferred to the window barrier like Send's,
// and a same-node member is delivered like a local Send.
func (n *Network) Multicast(src int, dsts []int, bytes int, class TrafficClass, onDeliver func(dst int)) {
	n.check(src)
	if len(dsts) == 0 {
		return
	}
	now := n.engine.Now()
	n.sendSeq[src]++
	p := pendingSend{at: now, seq: n.sendSeq[src], src: int32(src),
		bytes: int32(bytes), class: class, mfn: onDeliver,
		dsts: make([]int32, len(dsts))}
	for i, d := range dsts {
		n.check(d)
		p.dsts[i] = int32(d)
		if d == src && onDeliver != nil {
			d := d
			n.engine.ScheduleAt(now+n.cfg.RouterLatency, func() { onDeliver(d) })
		}
	}
	n.outbox = append(n.outbox, p)
}

// multicastTraffic charges a multicast tree's traffic: links shared by
// several destinations count once, stamping the scratch array with a
// fresh epoch instead of building a per-message set.
func (n *Network) multicastTraffic(src int, dsts []int32, bytes int, class TrafficClass) {
	n.epoch++
	if n.epoch == 0 { // wrapped: old stamps are ambiguous, clear them
		clear(n.linkSeen)
		n.epoch = 1
	}
	unique := 0
	for _, d := range dsts {
		for _, l := range n.routeLinks(src, int(d)) {
			if n.linkSeen[l] != n.epoch {
				n.linkSeen[l] = n.epoch
				unique++
			}
		}
	}
	n.ctrByteHops[class].Add(uint64(bytes+n.cfg.HeaderBytes) * uint64(unique))
	n.ctrMulticasts.Inc()
}

// captured reports the send time of the oldest message awaiting the
// barrier (the outbox fills in clock order), or MaxTime.
func (n *Network) captured() sim.Time {
	if len(n.outbox) == 0 {
		return sim.MaxTime
	}
	return n.outbox[0].at
}

// flush is the network's window barrier. Link reservation
// (deliveryTimeAt) is non-causal state — a send from any node advances
// nextFree on every link of its route — so the routing order decides who
// wins a contended link. Routing a window's sends together, ordered by
// (send time, src node, per-src sequence), makes that order a function of
// the model alone, not of which component's event happened to fire first
// within a cycle. Each delivery is scheduled stamped with its send time,
// which restores the intra-cycle position an immediate schedule would
// have had (see sim.Engine.ScheduleStampedAt). The order is part of the
// figure-byte contract: the golden digests pin it.
func (n *Network) flush(limit sim.Time) {
	buf := n.outbox
	// The outbox fills in clock order, so only the sends of one cycle can
	// be out of (src, seq) order: an insertion sort is linear in practice.
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && routesBefore(&buf[j], &buf[j-1]); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	for i := range buf {
		n.routeCaptured(&buf[i], limit)
		buf[i] = pendingSend{} // release closure/dsts references
	}
	n.outbox = buf[:0]
}

// routesBefore is the canonical routing order: (send time, src node,
// per-src sequence).
func routesBefore(a, b *pendingSend) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// routeCaptured charges one captured message's traffic, reserves its links and
// schedules its deliveries.
func (n *Network) routeCaptured(p *pendingSend, limit sim.Time) {
	if p.dsts != nil { // multicast
		n.multicastTraffic(int(p.src), p.dsts, int(p.bytes), p.class)
		for _, d := range p.dsts {
			arrive := n.deliveryTimeAt(p.at, int(p.src), int(d), int(p.bytes))
			if tr := n.tracer; tr.Enabled() {
				tr.Emit(obs.Event{Time: uint64(p.at), Dur: uint64(arrive - p.at),
					Kind: obs.KindNoCMsg, Tile: p.src, A: uint64(d), B: uint64(p.bytes)})
			}
			n.Delivered++
			switch {
			case p.mfn == nil:
				n.deferHorizon(arrive, limit)
			case d == p.src:
				// Delivered at capture time; accounted here.
			default:
				d := int(d)
				mfn := p.mfn
				n.engine.ScheduleStampedAt(arrive, p.at, func() { mfn(d) })
			}
		}
		return
	}
	n.ctrSends.Inc()
	hops := n.HopCount(int(p.src), int(p.dst))
	n.ctrByteHops[p.class].Add(uint64(int(p.bytes)+n.cfg.HeaderBytes) * uint64(hops))
	arrive := n.deliveryTimeAt(p.at, int(p.src), int(p.dst), int(p.bytes))
	if tr := n.tracer; tr.Enabled() {
		tr.Emit(obs.Event{Time: uint64(p.at), Dur: uint64(arrive - p.at),
			Kind: obs.KindNoCMsg, Tile: p.src, A: uint64(p.dst), B: uint64(p.bytes)})
	}
	n.Delivered++
	switch {
	case p.fn == nil:
		n.deferHorizon(arrive, limit)
	case p.local:
		// Delivered at capture time; accounted here.
	default:
		n.engine.ScheduleStampedAt(arrive, p.at, p.fn)
	}
}

// deferHorizon extends the drain horizon for a fire-and-forget delivery
// routed at a barrier: the chasing horizon event keeps the run's clock
// open through the latest such arrival. A run's drain time (and so its
// cycle count) must cover fire-and-forget deliveries, but a nop event per
// message only to hold the clock open would waste an engine event each.
// The horizon is never queued inside the window just closed.
func (n *Network) deferHorizon(arrive, limit sim.Time) {
	if arrive > n.drainAt {
		n.drainAt = arrive
	}
	if !n.horizonQd {
		n.horizonQd = true
		at := n.drainAt
		if min := limit + 1; at < min {
			at = min
		}
		n.engine.ScheduleAt(at, n.horizonEv)
	}
}

// Latency estimates (without sending) the uncontended latency between two
// nodes for a message of the given payload size.
func (n *Network) Latency(src, dst, bytes int) sim.Time {
	hops := sim.Time(n.HopCount(src, dst))
	if hops == 0 {
		return n.cfg.RouterLatency
	}
	return n.cfg.RouterLatency + hops*(n.cfg.LinkLatency+n.cfg.RouterLatency) + n.serializationCycles(bytes) - 1
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
