package noc

import (
	"fmt"
	"math/rand"
)

// Network is what a traffic driver needs from a simulator. *Mesh and
// *Xbar both satisfy it, so the open-loop source, the drain loop and
// simcheck's fuzz driver are written once for either topology. For a
// crossbar, dst is a memory port rather than a node.
type Network interface {
	Inject(src, dst, flits int) (*Packet, error)
	PendingInjection(node int) int
	Step()
	Cycle() int64
	Drained() bool
}

var (
	_ Network = (*Mesh)(nil)
	_ Network = (*Xbar)(nil)
)

// SplitMCs returns a mesh's memory-controller nodes, in the given order,
// and the compute nodes left over, in ascending order. An empty mcs
// means the bottom row, matching the paper's "memory controllers on the
// edges". A node outside the mesh, a node listed twice, or a split that
// leaves no compute node is an error: a duplicated MC would be drawn,
// serviced and counted twice.
func SplitMCs(cfg MeshConfig, mcs []int) (mcNodes, compute []int, err error) {
	n := cfg.Width * cfg.Height
	if len(mcs) == 0 {
		mcs = make([]int, cfg.Width)
		for x := range mcs {
			mcs[x] = (cfg.Height-1)*cfg.Width + x
		}
	}
	isMC := make([]bool, n)
	for _, node := range mcs {
		if node < 0 || node >= n {
			return nil, nil, fmt.Errorf("noc: MC node %d out of range", node)
		}
		if isMC[node] {
			return nil, nil, fmt.Errorf("noc: MC node %d listed twice", node)
		}
		isMC[node] = true
	}
	for node := 0; node < n; node++ {
		if !isMC[node] {
			compute = append(compute, node)
		}
	}
	if len(compute) == 0 {
		return nil, nil, fmt.Errorf("noc: no compute nodes left")
	}
	return mcs, compute, nil
}

// source is the open-loop Bernoulli traffic of the saturation
// experiments (Fig. 23 fairness, ext1's crossbar fairness, the
// load-latency sweep): each cycle every source offers a packet with
// probability rate to a uniformly drawn destination. The source queue
// is bounded: a source holding more than 16 packets' worth of flits
// stops generating, like a core whose MSHRs are full.
type source struct {
	net   Network
	srcs  []int
	dsts  []int
	flits int
	rate  float64
	rng   *rand.Rand
}

func newSource(net Network, srcs, dsts []int, flits int, rate float64, seed int64) (*source, error) {
	if flits <= 0 {
		return nil, fmt.Errorf("noc: packet size %d invalid", flits)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("noc: injection rate %v invalid", rate)
	}
	return &source{net: net, srcs: srcs, dsts: dsts, flits: flits, rate: rate,
		rng: rand.New(rand.NewSource(seed))}, nil
}

// tick offers one cycle of traffic, then steps the network. The draw
// order per source (Float64, then the queue cap, then Intn) is part of
// every seeded result.
//
//lint:hotpath per-cycle open-loop injection; runs every simulated cycle
func (s *source) tick() error {
	for _, src := range s.srcs {
		if s.rng.Float64() >= s.rate {
			continue
		}
		if s.net.PendingInjection(src) > 16*s.flits {
			continue
		}
		if _, err := s.net.Inject(src, s.dsts[s.rng.Intn(len(s.dsts))], s.flits); err != nil {
			return err
		}
	}
	s.net.Step()
	return nil
}

// run ticks n cycles.
func (s *source) run(n int) error {
	for c := 0; c < n; c++ {
		if err := s.tick(); err != nil {
			return err
		}
	}
	return nil
}

// Drain steps net until it drains, calling each (when non-nil) after
// every step, and gives up after limit steps. It reports whether the
// network drained.
func Drain(net Network, limit int, each func()) bool {
	for steps := 0; !net.Drained(); steps++ {
		if steps >= limit {
			return false
		}
		net.Step()
		if each != nil {
			each()
		}
	}
	return true
}
