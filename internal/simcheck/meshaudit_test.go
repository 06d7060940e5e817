package simcheck

import (
	"strings"
	"testing"

	"gpunoc/internal/noc"
)

// Every invariant in the catalogue gets a test that would catch its
// violation: each test drives the auditor into the broken state the
// invariant guards against (via sabotage hooks, fabricated deliveries,
// or direct counter tampering) and asserts the violation is reported.
// If someone deletes or inverts a check, the matching test here fails.

func hasInvariant(vs []Violation, name string) bool {
	for _, v := range vs {
		if v.Invariant == name {
			return true
		}
	}
	return false
}

func smallMesh(t *testing.T, cfg noc.MeshConfig) *noc.Mesh {
	t.Helper()
	m, err := noc.NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runAudited drives a mesh until drained under audit, without the
// final reconciliation (tests tamper before calling CheckFinal).
func runAudited(t *testing.T, m *noc.Mesh, a *MeshAuditor, inject func()) {
	t.Helper()
	inject()
	for guard := 0; !m.Drained(); guard++ {
		if guard > 100000 {
			t.Fatal("mesh failed to drain")
		}
		m.Step()
		a.CheckCycle()
	}
}

// A real traffic mix over every pattern the auditor checks must run
// violation-free: the harness cannot cry wolf.
func TestCleanRunHasNoViolations(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 3, Height: 3, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	runAudited(t, m, a, func() {
		for src := 0; src < m.Nodes(); src++ {
			for dst := 0; dst < m.Nodes(); dst++ {
				p, err := m.Inject(src, dst, 1+(src+dst)%3)
				if err != nil {
					t.Fatal(err)
				}
				a.RecordInject(p)
			}
		}
	})
	a.CheckFinal()
	if !a.Ok() {
		t.Fatalf("clean run reported violations:\n%s", a.Summary())
	}
	if got := a.Summary(); got != "all invariants hold" {
		t.Fatalf("Summary() = %q", got)
	}
}

// conservation: double-booking tails inflates delivered beyond
// injected; the per-cycle balance must notice.
func TestConservationViolationDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 2, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	if err := a.SetSabotage(SabotageDoubleTail); err != nil {
		t.Fatal(err)
	}
	runAudited(t, m, a, func() {
		p, err := m.Inject(0, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		a.RecordInject(p)
	})
	a.CheckFinal()
	for _, inv := range []string{"conservation", "duplication", "aggregate"} {
		if !hasInvariant(a.Violations(), inv) {
			t.Errorf("double-tail sabotage did not trip %q; got:\n%s", inv, a.Summary())
		}
	}
}

// conservation (the other direction): deliveries the ledger never saw
// injected are flagged as unknown packets.
func TestUnrecordedDeliveryDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 2, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	if err := a.SetSabotage(SabotageDropRecord); err != nil {
		t.Fatal(err)
	}
	runAudited(t, m, a, func() {
		for i := 0; i < 6; i++ {
			p, err := m.Inject(i%4, (i+1)%4, 1)
			if err != nil {
				t.Fatal(err)
			}
			a.RecordInject(p)
		}
	})
	a.CheckFinal()
	if !hasInvariant(a.Violations(), "conservation") {
		t.Errorf("dropped ledger records did not trip conservation; got:\n%s", a.Summary())
	}
}

// occupancy: a FIFO reading outside [0, capacity] is a credit-balance
// breach (a leaked credit lets the upstream overfill the buffer).
func TestOccupancyViolationDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 1, BufferFlits: 4, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	a.checkFIFOBound(0, 1, 2, 5, 4)  // one flit over capacity
	a.checkFIFOBound(0, 0, 0, -1, 4) // negative: double-returned credit
	if got := len(a.Violations()); got != 2 || !hasInvariant(a.Violations(), "occupancy") {
		t.Fatalf("out-of-range occupancies produced %d violations:\n%s", got, a.Summary())
	}
	a.checkFIFOBound(0, 0, 0, 4, 4) // at capacity is legal
	if len(a.Violations()) != 2 {
		t.Fatal("full-but-legal FIFO flagged as occupancy violation")
	}
}

// routing: a flit ejected anywhere but its destination.
func TestWrongDestinationDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 2, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	p := &noc.Packet{ID: 1, Src: 0, Dst: 3, Flits: 1, CreatedAt: 0}
	a.RecordInject(p)
	a.noteDelivery(2, p, true, 5) // ejects at node 2, not 3
	a.CheckFinal()
	if !hasInvariant(a.Violations(), "routing") {
		t.Fatalf("misrouted delivery not flagged:\n%s", a.Summary())
	}
}

// duplication: the same tail booked twice.
func TestDuplicateTailDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 2, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	p := &noc.Packet{ID: 1, Src: 0, Dst: 1, Flits: 1, CreatedAt: 0}
	a.RecordInject(p)
	a.noteDelivery(1, p, true, 2)
	a.noteDelivery(1, p, true, 3)
	a.CheckFinal()
	if !hasInvariant(a.Violations(), "duplication") {
		t.Fatalf("duplicate tail not flagged:\n%s", a.Summary())
	}
}

// duplication: a reused packet ID is rejected at the ledger.
func TestReusedPacketIDDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 2, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	a.RecordInject(&noc.Packet{ID: 7, Src: 0, Dst: 1, Flits: 1})
	a.RecordInject(&noc.Packet{ID: 7, Src: 2, Dst: 3, Flits: 1})
	if !hasInvariant(a.Violations(), "duplication") {
		t.Fatalf("reused packet ID not flagged:\n%s", a.Summary())
	}
}

// framing: a tail flag before the packet's flit count, and a flit
// count reached without a tail flag.
func TestFramingViolationsDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 2, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	early := &noc.Packet{ID: 1, Src: 0, Dst: 1, Flits: 3, CreatedAt: 0}
	a.RecordInject(early)
	a.noteDelivery(1, early, true, 4) // tail after only 1 of 3 flits
	late := &noc.Packet{ID: 2, Src: 0, Dst: 2, Flits: 1, CreatedAt: 0}
	a.RecordInject(late)
	a.noteDelivery(2, late, false, 4) // 1st of 1 flits without tail
	a.CheckFinal()
	if !hasInvariant(a.Violations(), "framing") {
		t.Fatalf("framing breaches not flagged:\n%s", a.Summary())
	}
}

// wormhole: two packets' flits interleaving at one ejection port.
func TestWormholeInterleaveDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 2, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	pa := &noc.Packet{ID: 1, Src: 0, Dst: 3, Flits: 2, CreatedAt: 0}
	pb := &noc.Packet{ID: 2, Src: 1, Dst: 3, Flits: 2, CreatedAt: 0}
	a.RecordInject(pa)
	a.RecordInject(pb)
	a.noteDelivery(3, pa, false, 4)
	a.noteDelivery(3, pb, false, 5) // pb cuts in before pa's tail
	a.CheckFinal()
	if !hasInvariant(a.Violations(), "wormhole") {
		t.Fatalf("interleaved wormholes not flagged:\n%s", a.Summary())
	}
}

// latency-bound: a tail arriving before Manhattan hops + flits cycles
// is physically impossible in this mesh.
func TestLatencyBoundViolationDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 3, Height: 3, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	p := &noc.Packet{ID: 1, Src: 0, Dst: 8, Flits: 2, CreatedAt: 10}
	a.RecordInject(p)
	a.noteDelivery(8, p, false, 12)
	a.noteDelivery(8, p, true, 13) // lat 3 < hops(4) + flits(2)
	a.CheckFinal()
	if !hasInvariant(a.Violations(), "latency-bound") {
		t.Fatalf("sub-physical latency not flagged:\n%s", a.Summary())
	}
}

// monotone-id: packet IDs must strictly increase in injection order.
func TestMonotoneIDViolationDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 2, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	a.RecordInject(&noc.Packet{ID: 5, Src: 0, Dst: 1, Flits: 1})
	a.RecordInject(&noc.Packet{ID: 3, Src: 1, Dst: 2, Flits: 1})
	if !hasInvariant(a.Violations(), "monotone-id") {
		t.Fatalf("non-monotone IDs not flagged:\n%s", a.Summary())
	}
}

// drained-ledger, direction 1: Drained() true while the ledger still
// holds an in-flight packet.
func TestDrainedButLedgerOpenDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 2, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	// Ledgered but never actually injected into the mesh: the mesh
	// drains trivially while the ledger waits forever.
	a.RecordInject(&noc.Packet{ID: 1, Src: 0, Dst: 1, Flits: 2, CreatedAt: 0})
	a.CheckFinal()
	if !hasInvariant(a.Violations(), "drained-ledger") {
		t.Fatalf("drained-with-open-ledger not flagged:\n%s", a.Summary())
	}
}

// drained-ledger, direction 2: the ledger balances while the mesh
// still holds flits it never saw.
func TestLedgerEmptyButNotDrainedDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 2, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	if _, err := m.Inject(0, 3, 2); err != nil { // injected behind the ledger's back
		t.Fatal(err)
	}
	a.CheckFinal()
	if !hasInvariant(a.Violations(), "drained-ledger") {
		t.Fatalf("undrained-with-empty-ledger not flagged:\n%s", a.Summary())
	}
}

// aggregate: the mesh's own counters must reconcile with the ledger.
func TestAggregateMismatchDetected(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 2, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	runAudited(t, m, a, func() {
		p, err := m.Inject(0, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		a.RecordInject(p)
	})
	m.AcceptedFlits[3]++ // tamper: the counter now over-reports
	a.CheckFinal()
	if !hasInvariant(a.Violations(), "aggregate") {
		t.Fatalf("tampered AcceptedFlits not flagged:\n%s", a.Summary())
	}
}

// The violation cap must suppress, not grow without bound, and the
// summary must say so.
func TestViolationCapSuppresses(t *testing.T) {
	m := smallMesh(t, noc.MeshConfig{Width: 2, Height: 1, BufferFlits: 2, Arbiter: noc.RoundRobin})
	a := NewMeshAuditor(m)
	for i := 0; i < maxViolations+10; i++ {
		a.checkFIFOBound(int64(i), 0, 0, 99, 2)
	}
	if len(a.Violations()) != maxViolations {
		t.Fatalf("cap leaked: %d violations recorded", len(a.Violations()))
	}
	if !strings.Contains(a.Summary(), "suppressed") {
		t.Fatalf("summary hides suppression:\n%s", a.Summary())
	}
	if a.Ok() {
		t.Fatal("Ok() true with suppressed violations")
	}
}

// Satellite check: Drained() must account for both the source queues
// and partially-ejected multi-flit packets. This pins the adversarial
// shape the fuzzer hammered (multi-flit hotspot traffic under heavy
// sink refusal on a minimal-buffer mesh) as a regression test of the
// Drained <=> ledger-empty oracle; the sweep found no violation, and
// this documents that the invariant holds.
func TestDrainedLedgerOracleUnderRefusalRegression(t *testing.T) {
	c := Case{
		Seed: 97, Kind: "mesh",
		Mesh:        noc.MeshConfig{Width: 2, Height: 2, BufferFlits: 1, Arbiter: noc.RoundRobin},
		RefusePct:   60,
		DrainCycles: 20000,
	}
	// Every node fires 3-flit packets at node 3 back-to-back, so the
	// run ends with long injection backlogs and wormholes parked
	// mid-ejection whenever the sink refuses.
	for i := 0; i < 24; i++ {
		c.Injections = append(c.Injections, Injection{Cycle: i / 4, Src: i % 4, Dst: 3, Flits: 3})
	}
	rep, err := RunCase(c)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained {
		t.Fatal("regression case failed to drain")
	}
	if !rep.Ok() {
		t.Fatalf("Drained/ledger oracle violated:\n%v", rep.Violations)
	}
}
