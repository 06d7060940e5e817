package perfbench

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/noc"
	"gpunoc/internal/obs"
	"gpunoc/internal/resultstore"
)

// ExperimentLoop runs registry experiment id against cfg once per
// iteration, building a fresh core.Context inside the timed region each
// time. The fresh context is deliberate twice over: it is the cost a
// nocserve cold fill actually pays (device + engine construction, then
// the run), and it keeps iterations independent — the old root-package
// benchmarks shared one Context across all b.N iterations, so any
// state the first run warmed (engine solver scratch, device tables)
// made every later iteration measure a different, cheaper code path
// than the one production takes.
func ExperimentLoop(b *testing.B, id string, cfg gpu.Config) {
	b.Helper()
	e, err := core.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, err := core.NewContext(cfg, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// droppingSink counts delivered packets so the mesh benchmark can
// report a delivery figure of merit without retaining payloads.
type droppingSink struct{ packets int64 }

func (s *droppingSink) Accept(_ *noc.Packet, lastFlit bool, _ int64) bool {
	if lastFlit {
		s.packets++
	}
	return true
}

// Source queues in the step benchmarks are topped up to feedFlits
// every feedEvery steps. 64 flits is the 16 four-flit packets at which
// the experiments' open-loop source stops offering traffic. A source
// drains at most two flits per cycle (a crossbar hub's input speedup),
// so the queues never run dry between refills.
const (
	feedFlits = 64
	feedEvery = 16
)

// stepFed times net.Step with every source queue of nodes kept near
// feedFlits flits of 4-flit packets to dst(src). The refills run with
// the timer stopped, so Inject's packet allocations are not counted and
// every Step sees the same queue depth whatever b.N is: preloading b.N
// packets instead made each Step copy down a source queue whose length
// grew with b.N.
func stepFed(b *testing.B, net noc.Network, nodes int, dst func(src int) int) {
	refill := func() {
		for src := 0; src < nodes; src++ {
			for net.PendingInjection(src) < feedFlits {
				if _, err := net.Inject(src, dst(src), 4); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	refill()
	for i := 0; i < 100; i++ {
		net.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%feedEvery == 0 {
			b.StopTimer()
			refill()
			b.StartTimer()
		}
		net.Step()
	}
}

// Suite returns the curated benchmark set, sorted by name. Names are
// baseline keys: renaming one is a baseline change, and -check fails on
// the stale entry until the baseline is regenerated.
func Suite() []Benchmark {
	return []Benchmark{
		{
			Name:          "experiment_quick",
			Doc:           "end-to-end quick fig1 run incl. fresh Context (the nocserve cold-fill path)",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 4096},
			Fn: func(b *testing.B) {
				ExperimentLoop(b, "fig1", gpu.V100())
			},
		},
		{
			Name:          "gpusim_quick",
			Doc:           "many-to-few-to-many gpusim pipeline, reduced cycle count",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 64},
			Fn: func(b *testing.B) {
				cfg := noc.DefaultGPUSimConfig(1)
				cfg.Cycles, cfg.Warmup = 6000, 600
				b.ReportAllocs()
				b.ResetTimer()
				var memUtil float64
				for i := 0; i < b.N; i++ {
					res, err := noc.RunGPUSim(cfg)
					if err != nil {
						b.Fatal(err)
					}
					memUtil = res.MemUtilization
				}
				b.ReportMetric(memUtil, "mem_util")
			},
		},
		{
			Name:          "hist_observe",
			Doc:           "obs.Histogram.Observe across the depth-bucket layout incl. overflow",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 0},
			Fn: func(b *testing.B) {
				h := obs.New().Histogram("perfbench/occupancy", obs.DepthBounds())
				b.ReportAllocs()
				b.ResetTimer()
				v := int64(0)
				for i := 0; i < b.N; i++ {
					h.Observe(v)
					v = (v + 137) % 2048
				}
			},
		},
		{
			Name:          "mesh_step",
			Doc:           "8x8 mesh steady-state Step under uniform-random 4-flit traffic",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 0},
			Fn: func(b *testing.B) {
				m, err := noc.NewMesh(noc.MeshConfig{Width: 8, Height: 8, BufferFlits: 8, Arbiter: noc.RoundRobin})
				if err != nil {
					b.Fatal(err)
				}
				n := m.Nodes()
				sinks := make([]droppingSink, n)
				for node := 0; node < n; node++ {
					m.SetSink(node, &sinks[node])
				}
				rng := rand.New(rand.NewSource(1))
				stepFed(b, m, n, func(src int) int {
					dst := rng.Intn(n - 1)
					if dst >= src {
						dst++
					}
					return dst
				})
				b.StopTimer()
				var delivered int64
				for i := range sinks {
					delivered += sinks[i].packets
				}
				b.ReportMetric(float64(delivered)/float64(m.Cycle()), "pkts_per_cycle")
			},
		},
		{
			Name:          "result_render",
			Doc:           "Result renderers (JSON+CSV+text+markdown) over a warm fig1 quick result",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 64},
			Fn: func(b *testing.B) {
				ctx, err := core.NewContext(gpu.V100(), true)
				if err != nil {
					b.Fatal(err)
				}
				e, err := core.Lookup("fig1")
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.RunResult(ctx, e)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := res.JSONBytes(); err != nil {
						b.Fatal(err)
					}
					_ = res.CSVBytes()
					_ = res.TextBytes()
					_ = res.MarkdownBytes()
				}
			},
		},
		{
			Name:          "resultstore_cold",
			Doc:           "resultstore GetContext cold fill (singleflight spawn + insert) per op",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 16},
			Fn: func(b *testing.B) {
				entry := &resultstore.Entry{JSON: []byte(`{"ok":true}`), Text: []byte("ok")}
				s, err := resultstore.New(resultstore.Options{
					Compute: func(context.Context, resultstore.Key) (*resultstore.Entry, error) {
						return entry, nil
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				keys := make([]resultstore.Key, b.N)
				for i := range keys {
					keys[i] = resultstore.Key{GPU: gpu.GenV100, Exp: fmt.Sprintf("bench%07d", i), Quick: true}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := s.Get(keys[i]); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:          "resultstore_warm",
			Doc:           "resultstore GetContext warm hit (lock + map lookup + recency bump) per op",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 0},
			Fn: func(b *testing.B) {
				entry := &resultstore.Entry{JSON: []byte(`{"ok":true}`), Text: []byte("ok")}
				s, err := resultstore.New(resultstore.Options{
					Compute: func(context.Context, resultstore.Key) (*resultstore.Entry, error) {
						return entry, nil
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				k := resultstore.Key{GPU: gpu.GenV100, Exp: "fig1", Quick: true}
				if _, _, err := s.Get(k); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := s.Get(k); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:          "xbar_step",
			Doc:           "hierarchical crossbar steady-state Step at the default ext1 topology",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 0},
			Fn: func(b *testing.B) {
				cfg := noc.DefaultXbarFairnessConfig(noc.RoundRobin, 1).Xbar
				x, err := noc.NewXbar(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				stepFed(b, x, x.Nodes(), func(int) int { return rng.Intn(cfg.MemPorts) })
			},
		},
	}
}

// SuiteNames returns the full suite's benchmark names, the reference
// set Check uses to detect stale baseline entries.
func SuiteNames() []string {
	benches := Suite()
	names := make([]string, len(benches))
	for i, bm := range benches {
		names[i] = bm.Name
	}
	return names
}

// DefaultBudgets maps each suite benchmark to its seed budget, for
// NewBaseline.
func DefaultBudgets() map[string]Budget {
	out := map[string]Budget{}
	for _, bm := range Suite() {
		out[bm.Name] = bm.DefaultBudget
	}
	return out
}
