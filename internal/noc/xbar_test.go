package noc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestXbarConfigValidate(t *testing.T) {
	good := DefaultXbarFairnessConfig(RoundRobin, 1).Xbar
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*XbarConfig){
		func(c *XbarConfig) { c.Clusters = 0 },
		func(c *XbarConfig) { c.NodesPerCluster = -1 },
		func(c *XbarConfig) { c.MemPorts = 0 },
		func(c *XbarConfig) { c.HubCapacity = 0 },
		func(c *XbarConfig) { c.PortCapacity = 0 },
		func(c *XbarConfig) { c.VOQDepth = 0 },
		func(c *XbarConfig) { c.Arbiter = Arbiter(5) },
	}
	for i, mut := range muts {
		cfg := good
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should fail", i)
		}
		if _, err := NewXbar(cfg); err == nil {
			t.Errorf("NewXbar should reject mutation %d", i)
		}
	}
}

func TestXbarInjectValidation(t *testing.T) {
	x, err := NewXbar(DefaultXbarFairnessConfig(RoundRobin, 1).Xbar)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Inject(-1, 0, 1); err == nil {
		t.Error("bad node should fail")
	}
	if _, err := x.Inject(0, 99, 1); err == nil {
		t.Error("bad port should fail")
	}
	if _, err := x.Inject(0, 0, 0); err == nil {
		t.Error("zero flits should fail")
	}
}

// TestXbarRoundRobinAlternatesUnderEqualBacklog pins the crossbar's
// round-robin contract after pickHub was split into a pure pick with
// the pointer advanced at the drain site (the mesh arbiter's
// commitGrant shape): with two clusters holding equal backlogs for one
// port, service must alternate strictly, giving each cluster exactly
// half the grants — the pointer moves once per committed grant, never
// on a scan that granted nothing.
func TestXbarRoundRobinAlternatesUnderEqualBacklog(t *testing.T) {
	x, err := NewXbar(XbarConfig{
		Clusters: 2, NodesPerCluster: 1, MemPorts: 1,
		HubCapacity: 4, PortCapacity: 1, VOQDepth: 16, Arbiter: RoundRobin,
	})
	if err != nil {
		t.Fatal(err)
	}
	const backlog = 6
	for i := 0; i < backlog; i++ {
		if _, err := x.Inject(0, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Inject(1, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Let the hubs stage flits, then watch the port drain one per cycle:
	// after every two cycles the clusters' delivered counts must be equal.
	x.Step()
	prev0, prev1 := x.AcceptedPackets[0], x.AcceptedPackets[1]
	for c := 0; c < 2*backlog; c += 2 {
		x.Step()
		x.Step()
		d0, d1 := x.AcceptedPackets[0]-prev0, x.AcceptedPackets[1]-prev1
		if d0 != d1 {
			t.Fatalf("after cycle pair %d clusters drained %d vs %d; round-robin must alternate grants",
				c, d0, d1)
		}
		prev0, prev1 = x.AcceptedPackets[0], x.AcceptedPackets[1]
	}
	if x.AcceptedPackets[0] != backlog || x.AcceptedPackets[1] != backlog {
		t.Errorf("delivered %d/%d packets, want %d each", x.AcceptedPackets[0], x.AcceptedPackets[1], backlog)
	}
}

// TestXbarAgeBasedEqualAgeTieBreak pins the crossbar arbiter's
// equal-age tie-break to the lowest packet ID. The packet in the
// higher-numbered cluster is injected first (lower ID), so a
// scan-order arbiter — which visits cluster 0 first — would pick the
// wrong winner.
func TestXbarAgeBasedEqualAgeTieBreak(t *testing.T) {
	x, err := NewXbar(XbarConfig{
		Clusters: 2, NodesPerCluster: 1, MemPorts: 1,
		HubCapacity: 1, PortCapacity: 1, VOQDepth: 4, Arbiter: AgeBased,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := x.Inject(1, 0, 1) // cluster 1, ID 1
	if err != nil {
		t.Fatal(err)
	}
	second, err := x.Inject(0, 0, 1) // cluster 0, ID 2
	if err != nil {
		t.Fatal(err)
	}
	if first.CreatedAt != second.CreatedAt || first.ID >= second.ID {
		t.Fatalf("setup broken: ages %d/%d, IDs %d/%d",
			first.CreatedAt, second.CreatedAt, first.ID, second.ID)
	}
	x.Step() // hubs pull both flits into their VOQs
	x.Step() // the port drains exactly one flit: the tie-break winner
	if x.AcceptedPackets[1] != 1 || x.AcceptedPackets[0] != 0 {
		t.Errorf("equal-age tie went to cluster 0's packet (ID %d); want lowest ID %d from cluster 1 (accepted: node0=%d node1=%d)",
			second.ID, first.ID, x.AcceptedPackets[0], x.AcceptedPackets[1])
	}
}

func TestXbarDelivery(t *testing.T) {
	x, err := NewXbar(DefaultXbarFairnessConfig(RoundRobin, 1).Xbar)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Inject(7, 3, 4); err != nil {
		t.Fatal(err)
	}
	x.Run(50)
	if !x.Drained() {
		t.Fatal("crossbar should drain")
	}
	if x.AcceptedPackets[7] != 1 {
		t.Errorf("source 7 delivered %d packets, want 1", x.AcceptedPackets[7])
	}
	if x.AcceptedFlits[3] != 4 {
		t.Errorf("port 3 received %d flits, want 4", x.AcceptedFlits[3])
	}
	if x.ClusterOf(7) != 1 {
		t.Errorf("node 7 in cluster %d, want 1", x.ClusterOf(7))
	}
}

// Property: flit conservation under random traffic with either arbiter.
func TestXbarPropertyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := XbarConfig{
			Clusters: 2 + rng.Intn(4), NodesPerCluster: 1 + rng.Intn(5),
			MemPorts: 1 + rng.Intn(6), HubCapacity: 1 + rng.Intn(3),
			PortCapacity: 1 + rng.Intn(2), VOQDepth: 2 + rng.Intn(8),
			Arbiter: Arbiter(rng.Intn(2)),
		}
		x, err := NewXbar(cfg)
		if err != nil {
			return false
		}
		injected := 0
		flitsByPort := make([]int64, cfg.MemPorts)
		for i := 0; i < 40; i++ {
			node := rng.Intn(x.Nodes())
			port := rng.Intn(cfg.MemPorts)
			flits := 1 + rng.Intn(4)
			if _, err := x.Inject(node, port, flits); err != nil {
				return false
			}
			injected++
			flitsByPort[port] += int64(flits)
			if rng.Intn(2) == 0 {
				x.Step()
			}
		}
		x.Run(2000)
		if !x.Drained() {
			return false
		}
		var total int64
		for _, c := range x.AcceptedPackets {
			total += c
		}
		if total != int64(injected) {
			return false
		}
		for p, want := range flitsByPort {
			if x.AcceptedFlits[p] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Sec. VI-C / Implication #6: at the load where the mesh's round-robin
// arbitration is ~3x unfair, the single-hop hierarchical crossbar with
// plain round-robin is already fair - no age-based machinery needed.
func TestXbarUniformBandwidthVsMesh(t *testing.T) {
	xr, err := RunXbarFairness(DefaultXbarFairnessConfig(RoundRobin, 42))
	if err != nil {
		t.Fatal(err)
	}
	if xr.MaxMinRatio > 1.2 {
		t.Errorf("crossbar RR max/min ratio %.2f, want near 1", xr.MaxMinRatio)
	}
	mesh, err := RunFairness(DefaultFairnessConfig(RoundRobin, 42))
	if err != nil {
		t.Fatal(err)
	}
	if xr.MaxMinRatio > mesh.MaxMinRatio/1.5 {
		t.Errorf("crossbar ratio %.2f should be far below mesh ratio %.2f", xr.MaxMinRatio, mesh.MaxMinRatio)
	}
	if len(xr.Throughput) != 30 || len(xr.MCs) != 6 {
		t.Error("default crossbar topology wrong")
	}
}

// Input speedup matters here too: a hub capacity of 1 halves what a
// 5-node cluster can offer relative to capacity 2 at high load.
func TestXbarHubSpeedup(t *testing.T) {
	run := func(hubCap int) float64 {
		cfg := DefaultXbarFairnessConfig(RoundRobin, 7)
		cfg.Xbar.HubCapacity = hubCap
		// Widen the memory ports so the hub stage is the binding one.
		cfg.Xbar.PortCapacity = 2
		cfg.InjectRate = 0.5 // saturating
		res, err := RunXbarFairness(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, tp := range res.Throughput {
			sum += tp
		}
		return sum
	}
	low, high := run(1), run(2)
	if high <= low*1.02 {
		t.Errorf("hub speedup should raise aggregate throughput: cap1=%.2f cap2=%.2f", low, high)
	}
}

func TestRunXbarFairnessValidation(t *testing.T) {
	cfg := DefaultXbarFairnessConfig(RoundRobin, 1)
	cfg.PacketFlits = 0
	if _, err := RunXbarFairness(cfg); err == nil {
		t.Error("zero packet size should fail")
	}
	cfg = DefaultXbarFairnessConfig(RoundRobin, 1)
	cfg.InjectRate = 0
	if _, err := RunXbarFairness(cfg); err == nil {
		t.Error("zero rate should fail")
	}
	cfg = DefaultXbarFairnessConfig(RoundRobin, 1)
	cfg.Xbar.MemPorts = 0
	if _, err := RunXbarFairness(cfg); err == nil {
		t.Error("bad topology should fail")
	}
}

// The VOQ drain and source-queue pull used to reslice q[1:], pinning
// every forwarded flit's *Packet in the backing array and eroding append
// capacity so the per-cycle hot path of the ext1 crossbar experiment
// reallocated continuously. With the VOQs built at VOQDepth, Step
// allocates nothing from the first cycle on.
func TestXbarStepSteadyStateDoesNotAllocate(t *testing.T) {
	x, err := NewXbar(DefaultXbarFairnessConfig(RoundRobin, 1).Xbar)
	if err != nil {
		t.Fatal(err)
	}
	// Source queues deep enough to keep every hub and port busy through
	// the whole measurement (ports drain 6 flits/cycle).
	n := x.Nodes()
	for node := 0; node < n; node++ {
		for k := 0; k < 100; k++ {
			if _, err := x.Inject(node, (node+k)%x.cfg.MemPorts, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	const steps = 300
	if got := mallocs(func() { x.Run(steps) }); got != 0 {
		t.Errorf("%d steps made %d allocations, want 0", steps, got)
	}
	if x.Drained() {
		t.Fatal("xbar drained mid-measurement; the test no longer exercises steady state")
	}
}
