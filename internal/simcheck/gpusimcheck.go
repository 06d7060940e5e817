package simcheck

import (
	"math"

	"gpunoc/internal/noc"
)

// CheckGPUSim audits one RunGPUSim configuration: it runs the
// simulation twice and demands bit-identical results (the seeded RNG
// and the deterministic mesh leave no excuse for divergence), then
// checks the result against its physical envelope. The returned
// violations use the invariants "determinism" and "bounds".
func CheckGPUSim(cfg noc.GPUSimConfig) ([]Violation, error) {
	a, err := noc.RunGPUSim(cfg)
	if err != nil {
		return nil, err
	}
	b, err := noc.RunGPUSim(cfg)
	if err != nil {
		return nil, err
	}
	var log violationLog
	checkGPUSimPair(&log, a, b)
	checkGPUSimBounds(&log, cfg, a)
	return log.violations, nil
}

// checkGPUSimPair demands two runs of the same config agree exactly.
func checkGPUSimPair(log *violationLog, a, b *noc.GPUSimResult) {
	if a.RequestsServed != b.RequestsServed {
		log.violatef("determinism", -1,
			"RequestsServed diverged across identical runs: %d vs %d", a.RequestsServed, b.RequestsServed)
	}
	if a.MemUtilization != b.MemUtilization {
		log.violatef("determinism", -1,
			"MemUtilization diverged across identical runs: %v vs %v", a.MemUtilization, b.MemUtilization)
	}
	if a.ReplyInterfaceUtilization != b.ReplyInterfaceUtilization {
		log.violatef("determinism", -1,
			"ReplyInterfaceUtilization diverged across identical runs: %v vs %v",
			a.ReplyInterfaceUtilization, b.ReplyInterfaceUtilization)
	}
	if len(a.UtilSeries) != len(b.UtilSeries) {
		log.violatef("determinism", -1,
			"UtilSeries length diverged across identical runs: %d vs %d", len(a.UtilSeries), len(b.UtilSeries))
		return
	}
	for i := range a.UtilSeries {
		if a.UtilSeries[i] != b.UtilSeries[i] {
			log.violatef("determinism", -1,
				"UtilSeries[%d] diverged across identical runs: %v vs %v", i, a.UtilSeries[i], b.UtilSeries[i])
			return
		}
	}
}

// checkGPUSimBounds checks one result against its physical envelope:
// utilizations are fractions of capacity, the served count cannot
// exceed the channels' peak service rate, and the utilization series
// must average back to the headline number it decomposes.
func checkGPUSimBounds(log *violationLog, cfg noc.GPUSimConfig, r *noc.GPUSimResult) {
	if r.MemUtilization < 0 || r.MemUtilization > 1 {
		log.violatef("bounds", -1, "MemUtilization %v outside [0, 1]", r.MemUtilization)
	}
	// The reply interface injects at most one packet per ReplyFlits
	// cycles in steady state; a small transient overshoot is possible
	// because injection is booked at enqueue time while flits trickle
	// out later, so the bound carries slack.
	if r.ReplyInterfaceUtilization < 0 || r.ReplyInterfaceUtilization > 1.05 {
		log.violatef("bounds", -1, "ReplyInterfaceUtilization %v outside [0, 1.05]", r.ReplyInterfaceUtilization)
	}
	if r.RequestsServed < 0 {
		log.violatef("bounds", -1, "RequestsServed %d negative", r.RequestsServed)
	}
	mcNodes, _, err := noc.SplitMCs(cfg.Mesh, cfg.MCs)
	if err != nil {
		log.violatef("bounds", -1, "%v", err)
		return
	}
	mcs := len(mcNodes)
	svc := cfg.MCServiceCycles
	if svc < 1 {
		svc = 1
	}
	// Served counts the whole run including warmup; each channel
	// completes at most one request per MCServiceCycles (plus one in
	// flight at the end).
	peak := int64(mcs) * (int64(cfg.Warmup+cfg.Cycles)/int64(svc) + 1)
	if r.RequestsServed > peak {
		log.violatef("bounds", -1,
			"RequestsServed %d exceeds the channels' peak %d (%d MCs, %d cycles, %d-cycle service)",
			r.RequestsServed, peak, mcs, cfg.Warmup+cfg.Cycles, svc)
	}
	if cfg.UtilWindow > 0 {
		if want := cfg.Cycles / cfg.UtilWindow; len(r.UtilSeries) != want {
			log.violatef("bounds", -1,
				"UtilSeries has %d windows, want %d (%d cycles / %d window)",
				len(r.UtilSeries), want, cfg.Cycles, cfg.UtilWindow)
		}
	}
	sum := 0.0
	for i, u := range r.UtilSeries {
		if u < 0 || u > 1 {
			log.violatef("bounds", -1, "UtilSeries[%d] = %v outside [0, 1]", i, u)
		}
		sum += u
	}
	// When the windows tile the measurement exactly, their mean IS the
	// headline utilization (both divide the same busy-cycle total).
	if len(r.UtilSeries) > 0 && cfg.UtilWindow > 0 && cfg.Cycles%cfg.UtilWindow == 0 {
		mean := sum / float64(len(r.UtilSeries))
		if math.Abs(mean-r.MemUtilization) > 1e-9 {
			log.violatef("bounds", -1,
				"mean(UtilSeries) = %v but MemUtilization = %v; the series does not decompose the headline",
				mean, r.MemUtilization)
		}
	}
}
