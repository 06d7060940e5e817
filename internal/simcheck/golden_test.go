package simcheck

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestRunCaseGolden pins the exact outcome of the nocfuzz CI sweep (seeds
// 0-63): how many cycles each case ran, whether it drained, and how many
// violations it raised. A change to RunCase's inject/step/drain order
// shifts a cycle count even when every invariant still holds.
func TestRunCaseGolden(t *testing.T) {
	var b strings.Builder
	for seed := int64(0); seed < 64; seed++ {
		rep, err := RunCase(GenCase(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&b, "%d %s cycles=%d drained=%t violations=%d\n",
			seed, rep.Case.Kind, rep.Cycles, rep.Drained, len(rep.Violations))
	}
	const want = "c685ea99116273cf"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]; got != want {
		t.Errorf("sweep digest = %s, want %s; outcomes:\n%s", got, want, b.String())
	}
}
