// Package noc is a from-scratch flit-level, cycle-driven network-on-chip
// simulator in the spirit of the tools the paper's Section VI uses for its
// simulation studies: a 2-D mesh with dimension-ordered (XY) wormhole
// routing, credit-based flow control, and either round-robin or globally
// fair age-based output arbitration. On top of the mesh it builds the
// many-to-few-to-many GPU traffic pattern with a request network, memory
// controllers, and a reply network, reproducing the reply-interface
// bottleneck of Fig. 21 and the bandwidth unfairness of Fig. 23.
package noc

import (
	"fmt"

	"gpunoc/internal/obs"
)

// Arbiter selects among competing packets at a router output.
type Arbiter int

const (
	// RoundRobin rotates priority locally per output port; it is cheap
	// but globally unfair in a multi-hop mesh (Fig. 23a).
	RoundRobin Arbiter = iota
	// AgeBased grants the output to the oldest packet, providing global
	// fairness at the cost of carrying and comparing ages (Fig. 23b).
	// Exact age ties break to the lowest packet ID (the earliest
	// injection), so the winner never depends on the order the arbiter
	// happens to scan input ports or clusters.
	AgeBased
)

// String names the arbiter.
func (a Arbiter) String() string {
	switch a {
	case RoundRobin:
		return "round-robin"
	case AgeBased:
		return "age-based"
	}
	return fmt.Sprintf("arbiter(%d)", int(a))
}

// MeshConfig configures the simulator.
type MeshConfig struct {
	Width, Height int
	// BufferFlits is the per-input-port FIFO depth.
	BufferFlits int
	// Arbiter picks the output arbitration policy.
	Arbiter Arbiter
}

// Validate checks the configuration.
func (c MeshConfig) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("noc: mesh %dx%d invalid", c.Width, c.Height)
	}
	if c.BufferFlits <= 0 {
		return fmt.Errorf("noc: buffer depth %d invalid", c.BufferFlits)
	}
	if c.Arbiter != RoundRobin && c.Arbiter != AgeBased {
		return fmt.Errorf("noc: unknown arbiter %d", int(c.Arbiter))
	}
	return nil
}

// Packet is a multi-flit message.
type Packet struct {
	ID        uint64
	Src, Dst  int
	Flits     int
	CreatedAt int64
}

// flit is one flow-control unit of a packet in the network.
type flit struct {
	pkt  *Packet
	head bool // the packet's first flit, the one that is routed and arbitrated
	tail bool
}

// Port indices of a router.
const (
	portLocal = iota
	portNorth
	portEast
	portSouth
	portWest
	numPorts
)

// Sink consumes flits ejected at a node. Accept returns false to refuse
// delivery this cycle (modelling a busy endpoint); the flit then stays in
// the router and backpressure builds, which is exactly the congestion
// mechanism of Sec. VI-A.
type Sink interface {
	Accept(f *Packet, lastFlit bool, cycle int64) bool
}

// countingSink accepts everything and counts packets; the default.
type countingSink struct{ packets int64 }

func (s *countingSink) Accept(_ *Packet, lastFlit bool, _ int64) bool {
	if lastFlit {
		s.packets++
	}
	return true
}

type router struct {
	node int
	// in holds the input-port buffers, each bounded at BufferFlits.
	in [numPorts]queue[flit]
	// outOwner is the input port currently holding each output via
	// wormhole allocation, or -1.
	outOwner [numPorts]int
	// rr is the round-robin pointer per output.
	rr [numPorts]int
}

// Mesh is the simulator instance.
type Mesh struct {
	cfg     MeshConfig
	routers []*router
	sinks   []Sink
	// injectQ holds flits awaiting entry into each node's local input.
	injectQ []queue[flit]
	cycle   int64
	nextID  uint64

	// AcceptedPackets counts packets delivered per source node.
	AcceptedPackets []int64
	// AcceptedFlits counts flits delivered per destination node.
	AcceptedFlits []int64

	// move/push scratch buffers reused each cycle, built at their
	// bound (one move per router output).
	moves  []move
	pushes []pendingPush

	// obs is the optional instrument set; see Observe. All instruments
	// are nil-safe no-ops while unobserved, so the hooks below cost a
	// nil check and zero allocations in the disabled default (guarded
	// by TestStepSteadyStateDoesNotAllocate and perfbench's mesh_step).
	obs meshObs
}

// meshObs gathers the mesh's instruments. buffered tracks the running
// router-FIFO occupancy in flits: injection pushes and ejection pops are
// the only net changes per cycle (internal hops pop and push the same
// flit), so two touch points keep an exact count without walking FIFOs.
type meshObs struct {
	// linkFlits[node*numPorts+out] counts flits forwarded over each
	// inter-router link; nil while unobserved (and for edge/local ports).
	linkFlits   []*obs.Counter
	ejectFlits  *obs.Counter
	ejectPkts   *obs.Counter
	stallSink   *obs.Counter
	stallCredit *obs.Counter
	occupancy   *obs.Histogram
	tracer      *obs.Tracer
	buffered    int64
}

// portNames names router ports for instrument naming.
var portNames = [numPorts]string{"local", "north", "east", "south", "west"}

// Observe attaches the mesh's instruments to a registry scope: per-link
// forwarded-flit counters, ejected flit/packet counters, stall-cause
// counters (sink refusal vs. exhausted downstream credit), a per-cycle
// buffer-occupancy histogram, and per-packet delivery spans on the
// scope's tracer. Call it once before running; Observe(nil) leaves the
// mesh unobserved (the zero-cost default).
func (m *Mesh) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.obs.ejectFlits = reg.Counter("eject/flits")
	m.obs.ejectPkts = reg.Counter("eject/packets")
	m.obs.stallSink = reg.Counter("stall/sink")
	m.obs.stallCredit = reg.Counter("stall/credit")
	m.obs.occupancy = reg.Histogram("buffer_occupancy", obs.DepthBounds())
	m.obs.tracer = reg.Tracer()
	m.obs.linkFlits = make([]*obs.Counter, m.Nodes()*numPorts)
	for node := 0; node < m.Nodes(); node++ {
		for out := portNorth; out <= portWest; out++ {
			if _, _, ok := m.neighbor(node, out); !ok {
				continue
			}
			m.obs.linkFlits[node*numPorts+out] = reg.Counter(
				fmt.Sprintf("link/n%03d/%s/flits", node, portNames[out]))
		}
	}
}

type move struct {
	from *queue[flit]
	to   *queue[flit] // nil means ejection
	r    *router
	out  int
}

// pendingPush defers a flit's arrival until all pops of the cycle have
// freed buffer space.
type pendingPush struct {
	to *queue[flit]
	f  flit
}

// NewMesh builds a mesh simulator.
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Width * cfg.Height
	m := &Mesh{
		cfg:             cfg,
		routers:         make([]*router, n),
		sinks:           make([]Sink, n),
		injectQ:         make([]queue[flit], n),
		AcceptedPackets: make([]int64, n),
		AcceptedFlits:   make([]int64, n),
		moves:           make([]move, 0, n*numPorts),
		pushes:          make([]pendingPush, 0, n*numPorts),
	}
	for i := range m.routers {
		r := &router{node: i}
		for p := range r.in {
			r.in[p] = newQueue[flit](cfg.BufferFlits)
		}
		for p := range r.outOwner {
			r.outOwner[p] = -1
		}
		m.routers[i] = r
		m.sinks[i] = &countingSink{}
	}
	return m, nil
}

// Nodes returns the node count.
func (m *Mesh) Nodes() int { return m.cfg.Width * m.cfg.Height }

// Config returns the mesh's configuration (for audit tooling).
func (m *Mesh) Config() MeshConfig { return m.cfg }

// VisitFIFOs calls fn for every router input FIFO with its current
// occupancy and capacity. It is an audit tap for invariant checkers
// (internal/simcheck) and is not called on the simulation hot path.
func (m *Mesh) VisitFIFOs(fn func(node, port, occupancy, capacity int)) {
	for node, r := range m.routers {
		for p := 0; p < numPorts; p++ {
			fn(node, p, r.in[p].len(), m.cfg.BufferFlits)
		}
	}
}

// Cycle returns the current simulation cycle.
func (m *Mesh) Cycle() int64 { return m.cycle }

// SetSink installs a custom ejection sink at a node.
func (m *Mesh) SetSink(node int, s Sink) {
	m.sinks[node] = s
}

// coord maps a node index to mesh coordinates.
func (m *Mesh) coord(node int) (x, y int) {
	return node % m.cfg.Width, node / m.cfg.Width
}

// NodeAt maps coordinates to a node index.
func (m *Mesh) NodeAt(x, y int) int { return y*m.cfg.Width + x }

// route returns the output port a packet takes at node toward dst using
// dimension-ordered (X then Y) routing.
func (m *Mesh) route(node, dst int) int {
	x, y := m.coord(node)
	dx, dy := m.coord(dst)
	switch {
	case dx > x:
		return portEast
	case dx < x:
		return portWest
	case dy > y:
		return portSouth
	case dy < y:
		return portNorth
	default:
		return portLocal
	}
}

// neighbor returns the node on the other side of an output port and the
// input port the flit arrives on there.
func (m *Mesh) neighbor(node, out int) (next int, inPort int, ok bool) {
	x, y := m.coord(node)
	switch out {
	case portNorth:
		if y == 0 {
			return 0, 0, false
		}
		return m.NodeAt(x, y-1), portSouth, true
	case portSouth:
		if y == m.cfg.Height-1 {
			return 0, 0, false
		}
		return m.NodeAt(x, y+1), portNorth, true
	case portEast:
		if x == m.cfg.Width-1 {
			return 0, 0, false
		}
		return m.NodeAt(x+1, y), portWest, true
	case portWest:
		if x == 0 {
			return 0, 0, false
		}
		return m.NodeAt(x-1, y), portEast, true
	}
	return 0, 0, false
}

// Inject queues a packet for injection at its source node. It returns the
// packet for convenience.
func (m *Mesh) Inject(src, dst, flits int) (*Packet, error) {
	n := m.Nodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("noc: inject %d->%d outside %d-node mesh", src, dst, n)
	}
	if flits <= 0 {
		return nil, fmt.Errorf("noc: packet needs at least one flit")
	}
	m.nextID++
	p := &Packet{ID: m.nextID, Src: src, Dst: dst, Flits: flits, CreatedAt: m.cycle}
	pushPacket(&m.injectQ[src], p)
	return p, nil
}

// PendingInjection returns the number of flits queued for injection at a
// node (source-queue occupancy).
func (m *Mesh) PendingInjection(node int) int { return m.injectQ[node].len() }

// Step advances the simulation by one cycle: output arbitration and flit
// movement across every router, then source-queue injection.
func (m *Mesh) Step() {
	m.moves = m.moves[:0]

	// Phase 1: decide moves using pre-cycle state.
	for _, r := range m.routers {
		for out := 0; out < numPorts; out++ {
			in := m.pickInput(r, out)
			if in < 0 {
				continue
			}
			f := r.in[in].head()
			if out == portLocal {
				// Ejection: ask the sink.
				if !m.sinks[r.node].Accept(f.pkt, f.tail, m.cycle) {
					m.obs.stallSink.Inc()
					continue
				}
				m.commitGrant(r, out, in, f)
				m.moves = append(m.moves, move{from: &r.in[in], to: nil, r: r, out: out})
				continue
			}
			next, inPort, ok := m.neighbor(r.node, out)
			if !ok {
				continue
			}
			df := &m.routers[next].in[inPort]
			if df.len() >= m.cfg.BufferFlits {
				m.obs.stallCredit.Inc()
				continue
			}
			m.commitGrant(r, out, in, f)
			m.moves = append(m.moves, move{from: &r.in[in], to: df, r: r, out: out})
		}
	}

	// Phase 2: apply moves (pops before pushes keep capacity sound).
	m.pushes = m.pushes[:0]
	for _, mv := range m.moves {
		f := mv.from.pop()
		if mv.to == nil {
			m.AcceptedFlits[mv.r.node]++
			m.obs.ejectFlits.Inc()
			m.obs.buffered--
			if f.tail {
				m.AcceptedPackets[f.pkt.Src]++
				m.obs.ejectPkts.Inc()
				m.obs.tracer.Span("noc", "pkt",
					f.pkt.CreatedAt, m.cycle-f.pkt.CreatedAt, int64(f.pkt.Src), int64(f.pkt.ID))
			}
		} else {
			m.pushes = append(m.pushes, pendingPush{to: mv.to, f: f})
			if m.obs.linkFlits != nil {
				m.obs.linkFlits[mv.r.node*numPorts+mv.out].Inc()
			}
		}
		if f.tail {
			mv.r.outOwner[mv.out] = -1
		}
	}
	for _, p := range m.pushes {
		p.to.push(p.f)
	}

	// Phase 3: source-queue injection into the local input port.
	for node := range m.injectQ {
		q := &m.injectQ[node]
		if q.len() == 0 {
			continue
		}
		in := &m.routers[node].in[portLocal]
		if in.len() >= m.cfg.BufferFlits {
			continue
		}
		in.push(q.pop())
		m.obs.buffered++
	}
	m.obs.occupancy.Observe(m.obs.buffered)
	m.cycle++
}

// commitGrant records wormhole ownership of an output by an input. A
// head-flit grant is where the round-robin pointer moves, not
// pickInput (see Arbiter.commit).
func (m *Mesh) commitGrant(r *router, out, in int, f *flit) {
	if f.head {
		r.outOwner[out] = in
		m.cfg.Arbiter.commit(&r.rr[out], in)
	}
}

// pickInput returns the input port granted output out this cycle, or -1.
func (m *Mesh) pickInput(r *router, out int) int {
	// An owned output only accepts the owner's next flit, in order.
	if owner := r.outOwner[out]; owner >= 0 {
		if r.in[owner].len() == 0 {
			return -1
		}
		return owner
	}
	// Free output: head flits requesting it compete.
	k := newContest(m.cfg.Arbiter)
	p := r.rr[out]
	for i := 0; i < numPorts; i++ {
		if p++; p == numPorts {
			p = 0
		}
		if r.in[p].len() == 0 {
			continue
		}
		f := r.in[p].head()
		if !f.head || m.route(r.node, f.pkt.Dst) != out {
			continue
		}
		if k.offer(p, f.pkt) {
			break
		}
	}
	return k.best
}

// Run advances the simulation by n cycles.
func (m *Mesh) Run(n int) {
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// Drained reports whether the network and all source queues are empty.
func (m *Mesh) Drained() bool {
	for node := range m.injectQ {
		if m.injectQ[node].len() > 0 {
			return false
		}
		r := m.routers[node]
		for p := 0; p < numPorts; p++ {
			if r.in[p].len() > 0 {
				return false
			}
		}
	}
	return true
}
