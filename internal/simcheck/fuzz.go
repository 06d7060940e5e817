package simcheck

import (
	"fmt"

	"gpunoc/internal/noc"
)

// rng is a splitmix64 stream. The fuzzer cannot draw from math/rand's
// global source (the seedflow analyzer bans ambient entropy inside the
// model, and for good reason: a reproducer must replay bit-for-bit
// from its seed alone), and carrying a rand.Rand would be overkill for
// generating a few hundred integers.
type rng struct{ state uint64 }

func newRNG(seed int64) *rng {
	// Avoid the all-zero state and decorrelate small adjacent seeds.
	return &rng{state: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Injection is one scheduled packet of a fuzz case. For mesh cases Dst
// is a node; for xbar cases it is a memory port.
type Injection struct {
	Cycle, Src, Dst, Flits int
}

// Case is one self-contained fuzz scenario: a topology, a fully
// materialized injection schedule, and a back-pressure profile.
// Everything is plain data so a failing case shrinks mechanically and
// prints as a compilable reproducer (see Shrink and Reproducer).
type Case struct {
	Seed int64
	// Kind is "mesh" or "xbar".
	Kind string
	Mesh noc.MeshConfig
	Xbar noc.XbarConfig
	// Injections are replayed in order; entries must be sorted by
	// Cycle (GenCase guarantees it, Shrink preserves it).
	Injections []Injection
	// RefusePct is the percentage of (node, cycle) pairs whose sink
	// refuses delivery, hashed deterministically from Seed (mesh only;
	// the crossbar's ports have no refusal hook).
	RefusePct int
	// DrainCycles bounds how long RunCase waits for the network to
	// drain after the last scheduled injection before declaring a
	// deadlock violation.
	DrainCycles int
	// Sabotage arms a deliberate audit-bookkeeping corruption (see the
	// Sabotage constants); "" audits honestly.
	Sabotage string
}

// Report is one executed case's outcome.
type Report struct {
	Case       Case
	Violations []Violation
	Cycles     int64
	Drained    bool
}

// Ok reports whether the case ran clean.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// GenCase derives a fuzz case deterministically from a seed: small
// meshes (and every fourth seed a crossbar), mixed flit counts,
// uniform/transpose/hotspot traffic, and randomized sink back-pressure.
func GenCase(seed int64) Case {
	r := newRNG(seed)
	c := Case{Seed: seed, Kind: "mesh", DrainCycles: 20000}
	if r.intn(4) == 0 {
		c.Kind = "xbar"
		c.Xbar = noc.XbarConfig{
			Clusters:        1 + r.intn(4),
			NodesPerCluster: 1 + r.intn(4),
			MemPorts:        1 + r.intn(4),
			HubCapacity:     1 + r.intn(2),
			PortCapacity:    1 + r.intn(2),
			VOQDepth:        1 + r.intn(8),
			Arbiter:         noc.Arbiter(r.intn(2)),
		}
		nodes, ports := c.Xbar.Clusters*c.Xbar.NodesPerCluster, c.Xbar.MemPorts
		count := 16 + r.intn(145)
		cycle := 0
		for i := 0; i < count; i++ {
			c.Injections = append(c.Injections, Injection{
				Cycle: cycle, Src: r.intn(nodes), Dst: r.intn(ports), Flits: 1 + r.intn(4),
			})
			cycle += r.intn(3)
		}
		return c
	}
	c.Mesh = noc.MeshConfig{
		Width:       2 + r.intn(3),
		Height:      1 + r.intn(4),
		BufferFlits: 1 + r.intn(4),
		Arbiter:     noc.Arbiter(r.intn(2)),
	}
	if r.intn(2) == 0 {
		c.RefusePct = r.intn(61)
	}
	nodes := c.Mesh.Width * c.Mesh.Height
	pattern := r.intn(3)
	hotspot := r.intn(nodes)
	count := 16 + r.intn(145)
	cycle := 0
	for i := 0; i < count; i++ {
		src := r.intn(nodes)
		var dst int
		switch {
		case pattern == 1 && c.Mesh.Width == c.Mesh.Height:
			// Transpose: (x, y) -> (y, x), the classic adversarial
			// pattern for XY routing.
			x, y := src%c.Mesh.Width, src/c.Mesh.Width
			dst = x*c.Mesh.Width + y
		case pattern == 2:
			dst = hotspot
		default:
			dst = r.intn(nodes)
		}
		c.Injections = append(c.Injections, Injection{
			Cycle: cycle, Src: src, Dst: dst, Flits: 1 + r.intn(4),
		})
		cycle += r.intn(3)
	}
	return c
}

// refuseSink models a busy endpoint: it refuses a deterministic,
// seed-derived RefusePct of (node, cycle) slots. The hash varies per
// cycle, so under any pct < 100 every packet is eventually accepted
// and a case that fails to drain is a simulator bug, not a sink
// artifact. Accept is hot-reachable (Sink interface dispatch from
// Mesh.Step), hence pure integer mixing with no allocation.
type refuseSink struct {
	seed uint64
	node int
	pct  int
}

func (s *refuseSink) Accept(_ *noc.Packet, _ bool, cycle int64) bool {
	h := s.seed ^ uint64(cycle)*0x9e3779b97f4a7c15 ^ uint64(s.node)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return int(h%100) >= s.pct
}

// auditor is what RunCase needs from MeshAuditor and XbarAuditor.
type auditor interface {
	RecordInject(p *noc.Packet)
	CheckCycle()
	CheckFinal()
	Violations() []Violation
	InFlightFlits() int64
	violatef(invariant string, cycle int64, format string, args ...any)
}

// RunCase executes one case under full audit: every injection is
// ledgered, every cycle is checked, and the run ends with the final
// reconciliation. The error return is for malformed cases (bad
// config, out-of-range injection); simulator misbehavior lands in the
// report's Violations instead.
func RunCase(c Case) (*Report, error) {
	net, a, err := newAuditedNetwork(c)
	if err != nil {
		return nil, err
	}
	for next := 0; next < len(c.Injections); {
		for next < len(c.Injections) && int64(c.Injections[next].Cycle) <= net.Cycle() {
			inj := c.Injections[next]
			p, err := net.Inject(inj.Src, inj.Dst, inj.Flits)
			if err != nil {
				return nil, err
			}
			a.RecordInject(p)
			next++
		}
		net.Step()
		a.CheckCycle()
	}
	lastCycle := 0
	if n := len(c.Injections); n > 0 {
		lastCycle = c.Injections[n-1].Cycle
	}
	rep := &Report{Case: c}
	// A case still holding flits at cycle lastCycle+DrainCycles+1 has
	// deadlocked.
	rep.Drained = noc.Drain(net, lastCycle+c.DrainCycles-int(net.Cycle())+1, a.CheckCycle)
	if !rep.Drained {
		a.violatef("drained-ledger", net.Cycle(),
			"network failed to drain within %d cycles of the last injection (%d flits still in flight)",
			c.DrainCycles, a.InFlightFlits())
	}
	a.CheckFinal()
	rep.Violations = a.Violations()
	rep.Cycles = net.Cycle()
	return rep, nil
}

// newAuditedNetwork builds the case's network behind its auditor, with
// the mesh's refusal sinks and sabotage armed.
func newAuditedNetwork(c Case) (noc.Network, auditor, error) {
	switch c.Kind {
	case "mesh":
		m, err := noc.NewMesh(c.Mesh)
		if err != nil {
			return nil, nil, err
		}
		a := NewMeshAuditor(m)
		if err := a.SetSabotage(c.Sabotage); err != nil {
			return nil, nil, err
		}
		if c.RefusePct > 0 {
			for node := 0; node < m.Nodes(); node++ {
				a.WrapSink(node, &refuseSink{seed: uint64(c.Seed), node: node, pct: c.RefusePct})
			}
		}
		return m, a, nil
	case "xbar":
		if c.Sabotage != SabotageNone {
			return nil, nil, fmt.Errorf("simcheck: sabotage is mesh-only (the crossbar has no delivery tap)")
		}
		x, err := noc.NewXbar(c.Xbar)
		if err != nil {
			return nil, nil, err
		}
		return x, NewXbarAuditor(x), nil
	}
	return nil, nil, fmt.Errorf("simcheck: unknown case kind %q", c.Kind)
}
