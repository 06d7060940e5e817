package simcheck

import (
	"fmt"
	"strconv"
	"strings"

	"gpunoc/internal/noc"
)

// This file holds the differential oracles: checks that compare a
// simulator against an independent source of truth — a closed-form
// answer, a differently-configured twin, or a second run of itself.

// ZeroLoadLatency checks the mesh against the analytical zero-load
// model: one packet alone in the network must arrive in EXACTLY
// Manhattan-hops + flits cycles (the auditor's latency-bound invariant
// only checks ">="; at zero load the bound is tight, so any slack is a
// pipeline bug). It injects one packet at a time for every (src, dst)
// pair and each flit count in flitSizes, draining between packets.
//
// Precondition: BufferFlits >= 2. With single-flit buffers the
// credit turnaround costs one bubble per flit on multi-hop paths (a
// head flit still occupies the downstream slot when the body flit's
// move is decided on pre-cycle state), so the tight equality does not
// hold there — only the ">=" bound does, and the fuzzer exercises
// that regime instead.
func ZeroLoadLatency(cfg noc.MeshConfig, flitSizes []int) ([]Violation, error) {
	if cfg.BufferFlits < 2 {
		return nil, fmt.Errorf("simcheck: the exact zero-load model needs BufferFlits >= 2 (got %d); single-flit buffers add a credit-turnaround bubble per flit", cfg.BufferFlits)
	}
	if len(flitSizes) == 0 {
		flitSizes = []int{1, 2, 4}
	}
	m, err := noc.NewMesh(cfg)
	if err != nil {
		return nil, err
	}
	a := NewMeshAuditor(m)
	for _, flits := range flitSizes {
		for src := 0; src < m.Nodes(); src++ {
			for dst := 0; dst < m.Nodes(); dst++ {
				p, err := m.Inject(src, dst, flits)
				if err != nil {
					return nil, err
				}
				a.RecordInject(p)
				if !noc.Drain(m, 16*(m.Nodes()+flits), a.CheckCycle) {
					return nil, fmt.Errorf("simcheck: zero-load packet %d->%d (%d flits) failed to drain", src, dst, flits)
				}
				lat, done := a.PacketLatency(p.ID)
				if !done {
					a.violatef("drained-ledger", m.Cycle(),
						"mesh drained but packet %d (%d->%d, %d flits) never completed", p.ID, src, dst, flits)
					continue
				}
				if want := a.minLatency(p); lat != want {
					a.violatef("latency-bound", m.Cycle(),
						"zero-load packet %d->%d (%d flits) took %d cycles, analytical model says exactly %d",
						src, dst, flits, lat, want)
				}
			}
		}
	}
	a.CheckFinal()
	return a.Violations(), nil
}

// ArbiterLowLoadEquivalence drives a round-robin mesh and an age-based
// mesh with an identical schedule that keeps at most one packet in
// flight (each injection waits for the previous to drain). With no
// contention the arbiter never breaks a tie, so the two policies must
// deliver identical per-source packet counts, per-destination flit
// counts, and per-packet latencies. Divergence means an arbiter
// influences uncontended traffic — a grant or credit bug.
func ArbiterLowLoadEquivalence(cfg noc.MeshConfig, seed int64, packets int) ([]Violation, error) {
	if packets <= 0 {
		packets = 64
	}
	build := func(arb noc.Arbiter) (*noc.Mesh, *MeshAuditor, error) {
		c := cfg
		c.Arbiter = arb
		m, err := noc.NewMesh(c)
		if err != nil {
			return nil, nil, err
		}
		return m, NewMeshAuditor(m), nil
	}
	mRR, aRR, err := build(noc.RoundRobin)
	if err != nil {
		return nil, err
	}
	mAge, aAge, err := build(noc.AgeBased)
	if err != nil {
		return nil, err
	}
	var log violationLog
	r := newRNG(seed)
	type sample struct{ src, dst, flits int }
	schedule := make([]sample, packets)
	for i := range schedule {
		schedule[i] = sample{
			src:   r.intn(mRR.Nodes()),
			dst:   r.intn(mRR.Nodes()),
			flits: 1 + r.intn(4),
		}
	}
	latRR := make([]int64, packets)
	latAge := make([]int64, packets)
	run := func(m *noc.Mesh, a *MeshAuditor, lats []int64) error {
		for i, s := range schedule {
			p, err := m.Inject(s.src, s.dst, s.flits)
			if err != nil {
				return err
			}
			a.RecordInject(p)
			if !noc.Drain(m, 16*(m.Nodes()+s.flits), a.CheckCycle) {
				return fmt.Errorf("simcheck: low-load packet %d->%d failed to drain", s.src, s.dst)
			}
			lat, done := a.PacketLatency(p.ID)
			if !done {
				return fmt.Errorf("simcheck: low-load packet %d never completed", p.ID)
			}
			lats[i] = lat
		}
		a.CheckFinal()
		return nil
	}
	if err := run(mRR, aRR, latRR); err != nil {
		return nil, err
	}
	if err := run(mAge, aAge, latAge); err != nil {
		return nil, err
	}
	log.violations = append(log.violations, aRR.Violations()...)
	log.violations = append(log.violations, aAge.Violations()...)
	for i := range schedule {
		if latRR[i] != latAge[i] {
			log.violatef("arbiter-equivalence", -1,
				"uncontended packet #%d (%d->%d, %d flits): round-robin latency %d, age-based %d",
				i, schedule[i].src, schedule[i].dst, schedule[i].flits, latRR[i], latAge[i])
		}
	}
	for n := 0; n < mRR.Nodes(); n++ {
		if mRR.AcceptedPackets[n] != mAge.AcceptedPackets[n] {
			log.violatef("arbiter-equivalence", -1,
				"node %d delivered %d packets under round-robin but %d under age-based at zero contention",
				n, mRR.AcceptedPackets[n], mAge.AcceptedPackets[n])
		}
		if mRR.AcceptedFlits[n] != mAge.AcceptedFlits[n] {
			log.violatef("arbiter-equivalence", -1,
				"node %d accepted %d flits under round-robin but %d under age-based at zero contention",
				n, mRR.AcceptedFlits[n], mAge.AcceptedFlits[n])
		}
	}
	return log.violations, nil
}

// ReplayDeterminism replays the same trace `runs` times through fresh
// meshes and demands identical per-step statistics every time.
// ReplayStepStats is a comparable struct, so "identical" is exact
// equality, not a tolerance.
func ReplayDeterminism(cfg noc.ReplayConfig, steps [][]uint64, runs int) ([]Violation, error) {
	if runs < 2 {
		runs = 2
	}
	base, err := noc.ReplayTrace(cfg, steps)
	if err != nil {
		return nil, err
	}
	var log violationLog
	for run := 1; run < runs; run++ {
		got, err := noc.ReplayTrace(cfg, steps)
		if err != nil {
			return nil, err
		}
		if len(got) != len(base) {
			log.violatef("determinism", -1,
				"replay run %d produced %d steps, run 0 produced %d", run, len(got), len(base))
			continue
		}
		for i := range base {
			if got[i] != base[i] {
				log.violatef("determinism", -1,
					"replay run %d step %d diverged: %+v vs %+v", run, i, got[i], base[i])
				break
			}
		}
	}
	return log.violations, nil
}

// TraceBytes serializes a replay trace (one timestep of addresses per
// line, lowercase hex, space-separated) deterministically: the same
// trace always yields the same bytes, so saved traces can be compared
// with cmp and ledgered in CI.
func TraceBytes(steps [][]uint64) []byte {
	var b strings.Builder
	for _, step := range steps {
		for i, addr := range step {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatUint(addr, 16))
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// ParseTrace inverts TraceBytes. A trailing newline is optional;
// blank lines are empty timesteps.
func ParseTrace(data []byte) ([][]uint64, error) {
	text := strings.TrimSuffix(string(data), "\n")
	if text == "" {
		return nil, nil
	}
	lines := strings.Split(text, "\n")
	steps := make([][]uint64, len(lines))
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		steps[i] = make([]uint64, len(fields))
		for j, f := range fields {
			addr, err := strconv.ParseUint(f, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("simcheck: trace line %d field %d: %w", i+1, j+1, err)
			}
			steps[i][j] = addr
		}
	}
	return steps, nil
}
