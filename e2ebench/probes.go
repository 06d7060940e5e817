package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"testing"
	"time"

	"gpunoc/internal/aes"
	"gpunoc/internal/bandwidth"
	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
	"gpunoc/internal/microbench"
	"gpunoc/internal/noc"
	"gpunoc/internal/obs"
	"gpunoc/internal/perfbench"
	"gpunoc/internal/sidechannel"
)

// suiteProbes are the perfbench.Suite entries the layer probes reuse.
var suiteProbes = regexp.MustCompile(`^(mesh_step|xbar_step|gpusim_quick|resultstore_warm|hist_observe)$`)

// aesKey is fig18's victim key.
var aesKey = []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}

// fig18Samples is fig18's quick-fidelity sample count.
const fig18Samples = 2500

// extraProbes measure the layers perfbench.Suite does not cover, at the
// sizing the matrix_quick experiments use them.
func extraProbes() []perfbench.Benchmark {
	v100 := func(b *testing.B) *gpu.Device {
		dev, err := gpu.New(gpu.V100())
		if err != nil {
			b.Fatal(err)
		}
		return dev
	}
	victim := func(b *testing.B) *sidechannel.AESVictim {
		m, err := kernel.NewMachine(v100(b), kernel.StaticScheduler{}, kernel.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		v, err := sidechannel.NewAESVictim(m, aesKey)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	return []perfbench.Benchmark{
		{Name: "sidechannel_collect", Fn: func(b *testing.B) {
			v := victim(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sidechannel.CollectAESSamples(v, fig18Samples, rand.New(rand.NewSource(5))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "sidechannel_recover", Fn: func(b *testing.B) {
			samples, err := sidechannel.CollectAESSamples(victim(b), fig18Samples, rand.New(rand.NewSource(5)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sidechannel.RecoverAESKeyByte(samples, 0, 32); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "aes_encrypt", Fn: func(b *testing.B) {
			k, err := aes.NewKey(aesKey)
			if err != nil {
				b.Fatal(err)
			}
			pt := make([]byte, aes.BlockSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pt[0] = byte(i)
				if _, _, err := k.Encrypt(pt); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "kernel_coalesce", Fn: func(b *testing.B) {
			// One warp's table lookups: 32 lanes over 1 KiB of T-tables.
			rng := rand.New(rand.NewSource(1))
			addrs := make([]uint64, kernel.WarpSize)
			for i := range addrs {
				addrs[i] = uint64(rng.Intn(1024))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.Coalesce(addrs, 32)
			}
		}},
		{Name: "microbench_working_set", Fn: func(b *testing.B) {
			dev := v100(b)
			l2 := dev.Config().L2SizeMiB << 20
			sizes := []int{l2 / 8, l2 / 2, 2 * l2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := microbench.WorkingSetSweep(dev, 0, sizes); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "bandwidth_solve", Fn: func(b *testing.B) {
			// fig9(a)'s fabric flow set: every SM streaming to every slice.
			dev := v100(b)
			eng, err := bandwidth.NewEngine(dev)
			if err != nil {
				b.Fatal(err)
			}
			cfg := dev.Config()
			slices := make([]int, cfg.L2Slices)
			for i := range slices {
				slices[i] = i
			}
			flows := make([]bandwidth.Flow, cfg.SMs())
			for sm := range flows {
				flows[sm] = bandwidth.Flow{SM: sm, Slices: slices}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Solve(flows); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// runProbes measures every layer probe and the simulated statistics,
// recording one span per probe, and returns per-layer metrics.
func runProbes(rec *recorder) (map[string]float64, error) {
	var benches []perfbench.Benchmark
	for _, bm := range perfbench.Suite() {
		if suiteProbes.MatchString(bm.Name) {
			benches = append(benches, bm)
		}
	}
	benches = append(benches, extraProbes()...)
	ms := map[string]perfbench.Measurement{}
	for _, bm := range benches {
		h := rec.begin("probe/"+bm.Name, 0, -1)
		rep, err := perfbench.Run(perfbench.Config{BenchTime: "150ms", Reps: 3}, []perfbench.Benchmark{bm})
		rec.end(h)
		if err != nil {
			return nil, err
		}
		ms[bm.Name] = rep.Benchmarks[0]
	}
	out := map[string]float64{
		"noc.mesh_step_ns":          ms["mesh_step"].NsPerOp,
		"noc.xbar_step_ns":          ms["xbar_step"].NsPerOp,
		"noc.gpusim_ms":             ms["gpusim_quick"].NsPerOp / 1e6,
		"noc.mesh_step_allocs":      float64(ms["mesh_step"].AllocsPerOp),
		"noc.host_kcycles_per_s":    1e6 / ms["mesh_step"].NsPerOp, // one Step is one cycle
		"sidechannel.collect_ms":    ms["sidechannel_collect"].NsPerOp / 1e6,
		"sidechannel.recover_ms":    ms["sidechannel_recover"].NsPerOp / 1e6,
		"aes.encrypt_ns":            ms["aes_encrypt"].NsPerOp,
		"kernel.coalesce_ns":        ms["kernel_coalesce"].NsPerOp,
		"kernel.coalesce_allocs":    float64(ms["kernel_coalesce"].AllocsPerOp),
		"microbench.working_set_ms": ms["microbench_working_set"].NsPerOp / 1e6,
		"bandwidth.solve_us":        ms["bandwidth_solve"].NsPerOp / 1e3,
		"resultstore.hit_ns":        ms["resultstore_warm"].NsPerOp,
		"obs.hist_observe_ns":       ms["hist_observe"].NsPerOp,
	}

	h := rec.begin("probe/sim_stats", 0, -1)
	err := simStats(out)
	rec.end(h)
	if err != nil {
		return nil, err
	}
	h = rec.begin("probe/obs_enabled", 0, -1)
	frac, err := obsOverhead()
	rec.end(h)
	if err != nil {
		return nil, err
	}
	out["obs.enabled_overhead_frac"] = frac
	return out, nil
}

// simStats records simulated (not host) statistics at the quick fig21
// and fig23 configurations. A speed-only change must leave them
// identical.
func simStats(out map[string]float64) error {
	cfg := noc.DefaultGPUSimConfig(1)
	cfg.Cycles, cfg.Warmup = 6000, 1000
	res, err := noc.RunGPUSim(cfg)
	if err != nil {
		return err
	}
	out["noc.sim_gpusim_mem_util"] = res.MemUtilization
	out["noc.sim_gpusim_served"] = float64(res.RequestsServed)
	for _, arb := range []noc.Arbiter{noc.RoundRobin, noc.AgeBased} {
		fc := noc.DefaultFairnessConfig(arb, 42)
		fc.Cycles, fc.Warmup = 5000, 1000
		fr, err := noc.RunFairness(fc)
		if err != nil {
			return err
		}
		name := map[noc.Arbiter]string{noc.RoundRobin: "rr", noc.AgeBased: "age"}[arb]
		out[fmt.Sprintf("noc.sim_fig23_%s_maxmin", name)] = fr.MaxMinRatio
	}
	return nil
}

// obsOverhead times quick V100 fig21 with a live obs registry against a
// nil one, alternating, and returns (observed - plain) / plain of the
// medians.
func obsOverhead() (float64, error) {
	e, err := core.Lookup("fig21")
	if err != nil {
		return 0, err
	}
	run := func(observe bool) (float64, error) {
		ctx, err := core.NewContext(gpu.V100(), true)
		if err != nil {
			return 0, err
		}
		if observe {
			ctx.Obs = obs.New()
		}
		t0 := time.Now()
		_, err = core.RunResult(ctx, e)
		return time.Since(t0).Seconds(), err
	}
	var plain, observed []float64
	for i := 0; i < 5; i++ {
		p, err := run(false)
		if err != nil {
			return 0, err
		}
		o, err := run(true)
		if err != nil {
			return 0, err
		}
		plain, observed = append(plain, p), append(observed, o)
	}
	return (perfbench.Median(observed) - perfbench.Median(plain)) / perfbench.Median(plain), nil
}
