package noc

// queue is the one FIFO behind every buffer of the simulators: router
// input ports and source queues of the mesh, source queues and virtual
// output queues of the crossbar, and the memory controllers' request
// queues in gpusim.
type queue[T any] struct{ items []T }

// newQueue returns an empty queue with room for depth items. Bounded
// queues are built at their depth, so they never grow while the
// simulation runs.
func newQueue[T any](depth int) queue[T] { return queue[T]{items: make([]T, 0, depth)} }

func (q *queue[T]) len() int { return len(q.items) }

// head returns the oldest item; the queue must not be empty.
func (q *queue[T]) head() *T { return &q.items[0] }

// push enqueues x. A bounded queue never grows past the depth it was
// built with; an unbounded one (a source queue, throttled by its caller
// through PendingInjection) stops growing once it reaches its working
// size, because pop keeps the backing array.
//
//lint:ignore hotpathalloc bounded queues are built at their depth and pop's copy-down keeps capacity, so steady-state pushes are alloc-free
func (q *queue[T]) push(x T) { q.items = append(q.items, x) }

// pop dequeues the oldest item by copying the rest down instead of
// reslicing (q = q[1:]): a reslice pins every popped item's pointers in
// the backing array and shrinks its capacity, so append would reallocate
// every few pushes. Copy-down keeps the array and clears the vacated
// slot.
func (q *queue[T]) pop() T {
	h := q.items[0]
	n := copy(q.items, q.items[1:])
	var zero T
	q.items[n] = zero
	q.items = q.items[:n]
	return h
}

// pushPacket enqueues a packet's flits, head first.
func pushPacket(q *queue[flit], p *Packet) {
	for s := 0; s < p.Flits; s++ {
		q.push(flit{pkt: p, head: s == 0, tail: s == p.Flits-1})
	}
}

// contest is one output arbitration, the rule shared by the mesh's
// router outputs (Mesh.pickInput) and the crossbar's memory ports
// (Xbar.pickHub). The caller offers the candidates in round-robin
// order, starting after the last grant. RoundRobin takes the first
// candidate offered. AgeBased takes the oldest packet, an exact age tie
// breaking to the lowest packet ID, so its winner does not depend on the
// order of the offers.
type contest struct {
	arb  Arbiter
	best int
	pkt  *Packet
}

func newContest(arb Arbiter) contest { return contest{arb: arb, best: -1} }

// offer presents candidate c, whose head packet is p. It reports whether
// the contest is decided, so the caller can stop offering.
func (k *contest) offer(c int, p *Packet) bool {
	if k.arb == RoundRobin {
		k.best = c
		return true
	}
	if k.pkt == nil || p.CreatedAt < k.pkt.CreatedAt || (p.CreatedAt == k.pkt.CreatedAt && p.ID < k.pkt.ID) {
		k.best, k.pkt = c, p
	}
	return false
}

// commit records a committed grant to winner in the round-robin pointer
// rr, which the next contest's offers start after. Only RoundRobin
// keeps a pointer. The pointer moves on a committed grant, not when a
// contest is decided: a pick can still lose to sink refusal or
// exhausted credit, and rotating priority past an unserved candidate
// skews fairness under back-pressure (see
// TestRoundRobinPointerHoldsOnRefusedGrant).
func (a Arbiter) commit(rr *int, winner int) {
	if a == RoundRobin {
		*rr = winner
	}
}
