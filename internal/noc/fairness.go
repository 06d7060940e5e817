package noc

import (
	"fmt"
	"math"

	"gpunoc/internal/obs"
)

// FairnessConfig sets up the Fig. 23 experiment: a Width x Height mesh
// whose bottom-row nodes are memory controllers, with random many-to-few
// traffic from every compute node to the MCs under saturation (infinite
// source backlog).
type FairnessConfig struct {
	Mesh MeshConfig
	// MCs lists the memory-controller node indices. Empty means the
	// bottom row, matching the paper's "memory controllers on the edges".
	MCs []int
	// PacketFlits is the packet size in flits.
	PacketFlits int
	// InjectRate is the offered load in packets per cycle per compute
	// node. The interesting regime is just above saturation, where
	// arbitration decides who gets the contested links.
	InjectRate float64
	// Cycles is the measurement length after warmup.
	Cycles int
	// Warmup cycles are simulated but not measured.
	Warmup int
	// Seed drives the random destination choice.
	Seed int64
	// Obs receives the mesh's instruments; nil runs unobserved.
	Obs *obs.Registry
}

// FairnessResult reports per-compute-node accepted throughput.
type FairnessResult struct {
	// Throughput[i] is accepted packets per cycle for compute node
	// ComputeNodes[i].
	Throughput   []float64
	ComputeNodes []int
	MCs          []int
	// MaxMinRatio is max/min over compute-node throughputs, the paper's
	// unfairness figure of merit (~2.4x under round-robin, ~1 under
	// age-based arbitration).
	MaxMinRatio float64
}

// RunFairness executes the experiment.
func RunFairness(cfg FairnessConfig) (*FairnessResult, error) {
	if cfg.Cycles <= 0 {
		return nil, fmt.Errorf("noc: fairness cycles %d invalid", cfg.Cycles)
	}
	m, err := NewMesh(cfg.Mesh)
	if err != nil {
		return nil, err
	}
	m.Observe(cfg.Obs)
	mcs, compute, err := SplitMCs(cfg.Mesh, cfg.MCs)
	if err != nil {
		return nil, err
	}
	s, err := newSource(m, compute, mcs, cfg.PacketFlits, cfg.InjectRate, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return measureFairness(s, m.AcceptedPackets, cfg.Warmup, cfg.Cycles)
}

// measureFairness runs the source through warmup and measurement and
// reports each source's accepted packets per measured cycle. accepted
// is the network's live per-source delivery counter.
func measureFairness(s *source, accepted []int64, warmup, cycles int) (*FairnessResult, error) {
	if err := s.run(warmup); err != nil {
		return nil, err
	}
	base := append([]int64(nil), accepted...)
	if err := s.run(cycles); err != nil {
		return nil, err
	}
	res := &FairnessResult{ComputeNodes: s.srcs, MCs: s.dsts}
	minT, maxT := math.MaxFloat64, 0.0
	for _, src := range s.srcs {
		tp := float64(accepted[src]-base[src]) / float64(cycles)
		res.Throughput = append(res.Throughput, tp)
		if tp < minT {
			minT = tp
		}
		if tp > maxT {
			maxT = tp
		}
	}
	if minT > 0 {
		res.MaxMinRatio = maxT / minT
	} else {
		res.MaxMinRatio = math.Inf(1)
	}
	return res, nil
}

// DefaultFairnessConfig mirrors the paper's footnote-10 setup: a 6x6 mesh,
// 30 compute nodes, 6 memory controllers on the edge, dimension-ordered
// routing and the chosen arbitration.
func DefaultFairnessConfig(arb Arbiter, seed int64) FairnessConfig {
	return FairnessConfig{
		Mesh:        MeshConfig{Width: 6, Height: 6, BufferFlits: 8, Arbiter: arb},
		PacketFlits: 1,
		InjectRate:  0.25,
		Warmup:      2000,
		Cycles:      20000,
		Seed:        seed,
	}
}
