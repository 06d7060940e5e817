package noc

import (
	"fmt"

	"gpunoc/internal/stats"
)

// Trace replay drives the flit-level mesh with an application's memory
// transactions instead of synthetic random traffic. This closes the loop
// on the paper's Section IV-C: when the address mapping load-balances
// transactions across the memory ports (as the GPU's hash does), the NoC
// digests each burst quickly; when it does not - "memory camping" [41] -
// one port's column serializes the burst and the makespan explodes.

// ReplayConfig configures a trace replay.
type ReplayConfig struct {
	Mesh MeshConfig
	// MCs lists the memory-controller nodes; empty means the bottom row.
	MCs []int
	// PortOf maps a transaction's byte address to an index into MCs.
	// This is where an address hash (or the lack of one) plugs in.
	PortOf func(addr uint64) int
	// MaxCyclesPerStep aborts a step that fails to drain (safety for
	// pathological mappings); 0 means 4096 cycles per transaction.
	MaxCyclesPerStep int
}

// ReplayStepStats reports one timestep of the replay.
type ReplayStepStats struct {
	// Transactions injected this step.
	Transactions int
	// Makespan is the cycles from first injection until the network
	// drained.
	Makespan int64
	// AvgLatency is the mean packet latency.
	AvgLatency float64
	// PortCV is the coefficient of variation of per-MC transaction counts
	// (0 = perfectly balanced, the regime Observation #12 reports).
	PortCV float64
	// Drained is false if the step hit MaxCyclesPerStep.
	Drained bool
}

// ReplayTrace injects each timestep's transactions (round-robin across
// the compute nodes) as one-flit request packets toward PortOf(addr) and
// runs the mesh until the step drains, returning per-step statistics.
func ReplayTrace(cfg ReplayConfig, steps [][]uint64) ([]ReplayStepStats, error) {
	if cfg.PortOf == nil {
		return nil, fmt.Errorf("noc: replay needs a PortOf mapping")
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("noc: empty trace")
	}
	m, err := NewMesh(cfg.Mesh)
	if err != nil {
		return nil, err
	}
	mcs, compute, err := SplitMCs(cfg.Mesh, cfg.MCs)
	if err != nil {
		return nil, err
	}
	sinks := installLatencySinks(m, mcs, 0)

	out := make([]ReplayStepStats, 0, len(steps))
	for _, addrs := range steps {
		st := ReplayStepStats{Transactions: len(addrs), Drained: true}
		if len(addrs) == 0 {
			out = append(out, st)
			continue
		}
		portCounts := make([]float64, len(mcs))
		start := m.Cycle()
		basePkts, baseLat := sinks.totals()
		// Queue every transaction; injection drains as buffers allow.
		for i, addr := range addrs {
			port := cfg.PortOf(addr)
			if port < 0 || port >= len(mcs) {
				return nil, fmt.Errorf("noc: PortOf(%#x) = %d outside [0, %d)", addr, port, len(mcs))
			}
			portCounts[port]++
			src := compute[i%len(compute)]
			if _, err := m.Inject(src, mcs[port], 1); err != nil {
				return nil, err
			}
		}
		limit := cfg.MaxCyclesPerStep
		if limit == 0 {
			limit = 4096 * len(addrs)
		}
		st.Drained = Drain(m, limit, nil)
		st.Makespan = m.Cycle() - start
		pkts, lat := sinks.totals()
		pkts -= basePkts
		lat -= baseLat
		if pkts > 0 {
			st.AvgLatency = float64(lat) / float64(pkts)
		}
		if mean := stats.Mean(portCounts); mean > 0 {
			st.PortCV = stats.StdDev(portCounts) / mean
		}
		out = append(out, st)
	}
	return out, nil
}

// HashedPortMapping spreads line addresses across n ports with a mixing
// hash, the anti-camping mapping modern GPUs use.
func HashedPortMapping(n int) func(addr uint64) int {
	return func(addr uint64) int {
		line := addr >> 7
		h := line
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return int(h % uint64(n))
	}
}

// CampedPortMapping sends large contiguous regions to the same port
// (plain address interleaving at a huge granularity), the access pattern
// that produces memory camping.
func CampedPortMapping(n int, regionBytes uint64) func(addr uint64) int {
	return func(addr uint64) int {
		return int((addr / regionBytes) % uint64(n))
	}
}
