// Package callgraph is the call-graph unit-test fixture: recursion,
// method values, interface dispatch, and an unreachable function.
package callgraph

// Walker is dispatched through an interface.
type Walker interface{ Walk() }

// A implements Walker.
type A struct{ n int }

// B implements Walker.
type B struct{ n int }

// Walk advances A.
func (a *A) Walk() { a.n++ }

// Walk advances B.
func (b *B) Walk() { b.n++ }

// C has a Walk of another signature, so it cannot satisfy Walker and an
// interface call to Walker.Walk must not reach it.
type C struct{ n int }

// Walk advances C by steps.
func (c *C) Walk(steps int) { c.n += steps }

// Sim drives the fixture shapes.
type Sim struct {
	w Walker
	f func()
}

// Step is the hot root: recursion via spin, a method value handed off
// (reference = may-call), and an interface call resolved by
// conservative name-and-shape dispatch.
func (s *Sim) Step() {
	spin(3)
	s.f = s.helper
	s.w.Walk()
}

// helper is only referenced as a method value, never called directly.
func (s *Sim) helper() {}

// spin recurses; the BFS must terminate anyway.
func spin(n int) {
	if n > 0 {
		spin(n - 1)
	}
}

// lonely is referenced by nothing and must stay unreachable.
func lonely() {}
