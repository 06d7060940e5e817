package noc

import "testing"

// pop returns items in push order and clears the slot it vacates, so a
// popped flit's *Packet is not kept alive by the backing array.
func TestQueuePopIsFIFOAndClearsVacatedSlot(t *testing.T) {
	q := newQueue[*Packet](4)
	a, b, c := &Packet{ID: 1}, &Packet{ID: 2}, &Packet{ID: 3}
	q.push(a)
	q.push(b)
	q.push(c)
	for _, want := range []*Packet{a, b, c} {
		if got := q.pop(); got != want {
			t.Fatalf("pop = packet %d, want %d", got.ID, want.ID)
		}
		if vacated := q.items[:q.len()+1][q.len()]; vacated != nil {
			t.Fatalf("slot %d still holds packet %d after pop", q.len(), vacated.ID)
		}
	}
	if q.len() != 0 || cap(q.items) != 4 {
		t.Fatalf("drained queue has len %d cap %d, want 0 and 4", q.len(), cap(q.items))
	}
}

// Over every rotation of the offer order, round-robin takes the first
// candidate offered and age-based takes the minimum (CreatedAt, ID),
// whatever the order. The candidate set holds a three-way age tie, so
// the ID tie-break decides the age winner.
func TestContestWinners(t *testing.T) {
	cands := []*Packet{
		{ID: 7, CreatedAt: 5},
		{ID: 3, CreatedAt: 9},
		{ID: 4, CreatedAt: 5},
		{ID: 2, CreatedAt: 5},
		{ID: 1, CreatedAt: 12},
	}
	const ageWinner = 3 // CreatedAt 5, the lowest ID of the three tied at 5
	for rot := range cands {
		order := make([]int, len(cands))
		for i := range order {
			order[i] = (rot + i) % len(cands)
		}
		for _, arb := range []Arbiter{RoundRobin, AgeBased} {
			k := newContest(arb)
			offered := 0
			for _, c := range order {
				offered++
				if k.offer(c, cands[c]) {
					break
				}
			}
			want, wantOffers := ageWinner, len(cands)
			if arb == RoundRobin {
				want, wantOffers = order[0], 1
			}
			if k.best != want {
				t.Errorf("%v, offers %v: winner %d, want %d", arb, order, k.best, want)
			}
			if offered != wantOffers {
				t.Errorf("%v, offers %v: decided after %d offers, want %d", arb, order, offered, wantOffers)
			}
		}
	}
	if k := newContest(AgeBased); k.best != -1 {
		t.Errorf("contest with no offers has winner %d, want -1", k.best)
	}
}

// Only round-robin keeps a pointer, and commit is the one place it
// moves.
func TestArbiterCommitMovesOnlyRoundRobinPointer(t *testing.T) {
	rr, age := 1, 1
	RoundRobin.commit(&rr, 3)
	AgeBased.commit(&age, 3)
	if rr != 3 || age != 1 {
		t.Errorf("after commit(3): round-robin pointer %d, age-based pointer %d; want 3 and 1", rr, age)
	}
}
