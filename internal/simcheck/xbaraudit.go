package simcheck

import "gpunoc/internal/noc"

// XbarAuditor checks the invariant catalogue over one Xbar run. The
// crossbar has no sink hook (ports drain VOQs directly into its
// aggregate counters), so the audit works at counter granularity:
// per-cycle VOQ occupancy bounds and flit conservation, plus
// end-of-run per-source packet reconciliation. Build it on a freshly
// constructed Xbar and route all injections through RecordInject.
type XbarAuditor struct {
	violationLog
	x   *noc.Xbar
	led ledger

	// perSrcPkts counts packets the ledger injected per source node,
	// reconciled against Xbar.AcceptedPackets once drained.
	perSrcPkts []int64

	lastID             uint64
	conservationBroken bool
	finalized          bool
}

// NewXbarAuditor builds an auditor over a freshly constructed Xbar.
func NewXbarAuditor(x *noc.Xbar) *XbarAuditor {
	return &XbarAuditor{x: x, led: newLedger(), perSrcPkts: make([]int64, x.Nodes())}
}

// RecordInject opens the ledger entry for a packet returned by
// Xbar.Inject. Call it immediately after every successful Inject.
func (a *XbarAuditor) RecordInject(p *noc.Packet) {
	if p.ID <= a.lastID {
		a.violatef("monotone-id", a.x.Cycle(),
			"packet ID %d injected after ID %d; IDs must strictly increase", p.ID, a.lastID)
	} else {
		a.lastID = p.ID
	}
	// The crossbar is single-hop: its zero-load floor is just the flit
	// count (unused here — no per-packet delivery tap — but recorded so
	// the ledger stays uniform).
	if !a.led.record(p, int64(p.Flits)) {
		a.violatef("duplication", a.x.Cycle(), "packet ID %d reused; ledger already has it", p.ID)
	}
	a.perSrcPkts[p.Src]++
}

// CheckCycle runs the per-cycle structural checks: VOQ occupancy
// within depth and flit conservation across source queues, VOQs, and
// the port drain counters. Call it after each Xbar.Step.
func (a *XbarAuditor) CheckCycle() {
	cycle := a.x.Cycle()
	queued := int64(0)
	a.x.VisitVOQs(func(cluster, port, occ, depth int) {
		a.checkVOQBound(cycle, cluster, port, occ, depth)
		queued += int64(occ)
	})
	pending := int64(0)
	for node := 0; node < a.x.Nodes(); node++ {
		pending += int64(a.x.PendingInjection(node))
	}
	drainedFlits := int64(0)
	for _, v := range a.x.AcceptedFlits {
		drainedFlits += v
	}
	if got := drainedFlits + queued + pending; got != a.led.injectedFlits && !a.conservationBroken {
		a.conservationBroken = true
		a.violatef("conservation", cycle,
			"injected %d flits but drained(%d) + queued(%d) + pending(%d) = %d",
			a.led.injectedFlits, drainedFlits, queued, pending, got)
	}
}

// checkVOQBound is the occupancy invariant for one virtual output
// queue: between 0 and its depth bound, always.
func (a *XbarAuditor) checkVOQBound(cycle int64, cluster, port, occ, depth int) {
	if occ < 0 || occ > depth {
		a.violatef("occupancy", cycle,
			"cluster %d port %d VOQ holds %d flits, depth %d", cluster, port, occ, depth)
	}
}

// CheckFinal reconciles the run: Drained() against the conservation
// balance, and per-source delivered packets against the ledger.
func (a *XbarAuditor) CheckFinal() {
	if a.finalized {
		return
	}
	a.finalized = true
	drainedFlits := int64(0)
	for _, v := range a.x.AcceptedFlits {
		drainedFlits += v
	}
	drained := a.x.Drained()
	balanced := drainedFlits == a.led.injectedFlits
	if drained && !balanced {
		a.violatef("drained-ledger", a.x.Cycle(),
			"Drained() is true but ports drained %d of %d injected flits", drainedFlits, a.led.injectedFlits)
	}
	if !drained && balanced {
		a.violatef("drained-ledger", a.x.Cycle(),
			"every injected flit drained but Drained() is false; the crossbar holds flits the ledger never saw")
	}
	if drained {
		for node := 0; node < a.x.Nodes(); node++ {
			if a.x.AcceptedPackets[node] != a.perSrcPkts[node] {
				a.violatef("aggregate", a.x.Cycle(),
					"node %d delivered %d packets but the ledger injected %d",
					node, a.x.AcceptedPackets[node], a.perSrcPkts[node])
			}
		}
	}
}

// InFlightFlits exposes the conservation balance.
func (a *XbarAuditor) InFlightFlits() int64 { return a.led.inFlightFlits() }

// Summary renders violation counts grouped by invariant.
func (a *XbarAuditor) Summary() string { return summarize(a.violations, a.suppressed) }
