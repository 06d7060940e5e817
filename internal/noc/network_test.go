package noc

import (
	"reflect"
	"runtime"
	"testing"
)

func TestSplitMCs(t *testing.T) {
	cfg := MeshConfig{Width: 3, Height: 2, BufferFlits: 4}
	mcs, compute, err := SplitMCs(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mcs, []int{3, 4, 5}) || !reflect.DeepEqual(compute, []int{0, 1, 2}) {
		t.Errorf("default split = MCs %v, compute %v; want the bottom row {3 4 5} and {0 1 2}", mcs, compute)
	}
	mcs, compute, err = SplitMCs(cfg, []int{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mcs, []int{4, 0}) || !reflect.DeepEqual(compute, []int{1, 2, 3, 5}) {
		t.Errorf("explicit split = MCs %v, compute %v; want {4 0} in given order and {1 2 3 5}", mcs, compute)
	}
	for name, bad := range map[string][]int{
		"out of range": {6},
		"negative":     {-1},
		"duplicate":    {4, 4},
		"no compute":   {0, 1, 2, 3, 4, 5},
	} {
		if _, _, err := SplitMCs(cfg, bad); err == nil {
			t.Errorf("%s MCs %v accepted", name, bad)
		}
	}
}

// One steady-state source tick allocates nothing but the packets it
// injects: the draws, the queue-cap check, the interface dispatch and
// the network step are allocation-free on both topologies. (Each Inject
// creates its *Packet; that is the one intended allocation of the
// admission path, see hotpathalloc.) Rate 1 keeps every source queue at
// its cap, and the warm-up is long enough for every FIFO, VOQ and source
// queue to reach its final capacity; with a 500-cycle warm-up a few of
// them still grow during measurement.
func TestSourceTickAllocatesOnlyPackets(t *testing.T) {
	mesh, err := NewMesh(DefaultFairnessConfig(RoundRobin, 1).Mesh)
	if err != nil {
		t.Fatal(err)
	}
	mcs, compute, err := SplitMCs(mesh.Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	xcfg := DefaultXbarFairnessConfig(RoundRobin, 1).Xbar
	xbar, err := NewXbar(xcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name       string
		net        Network
		srcs, dsts []int
		injected   func() uint64
	}{
		{"mesh", mesh, compute, mcs, func() uint64 { return mesh.nextID }},
		{"xbar", xbar, indices(xbar.Nodes()), indices(xcfg.MemPorts), func() uint64 { return xbar.nextID }},
	} {
		s, err := newSource(tc.net, tc.srcs, tc.dsts, 1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.run(2000); err != nil {
			t.Fatal(err)
		}
		const cycles = 500
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id0 := tc.injected()
		for c := 0; c < cycles; c++ {
			if err := s.tick(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		packets := tc.injected() - id0
		if packets == 0 {
			t.Fatalf("%s: no packets injected; the test no longer exercises the admission path", tc.name)
		}
		if extra := int64(after.Mallocs-before.Mallocs) - int64(packets); extra != 0 {
			t.Errorf("%s: %d ticks made %d allocations beyond the %d packets injected, want 0",
				tc.name, cycles, extra, packets)
		}
	}
}
