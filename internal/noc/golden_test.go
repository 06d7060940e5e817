package noc

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"gpunoc/internal/workload"
)

// The band checks elsewhere (MaxMinRatio >= 2 and friends) would pass a
// changed random-draw order or a shifted warm-up boundary. These goldens
// pin the exact results the paper figures are printed from, so a
// refactor of the traffic drivers must reproduce them bit for bit.

// digest returns the first 16 hex digits of the SHA-256 of v's %+v
// rendering. fmt prints a float64 in its shortest round-trip form, so
// any change to any bit of any float changes the digest.
func digest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", v))))[:16]
}

func checkDigest(t *testing.T, name string, v any, want string) {
	t.Helper()
	if got := digest(v); got != want {
		t.Errorf("%s digest = %s, want %s; result:\n%+v", name, got, want, v)
	}
}

func TestFairnessGolden(t *testing.T) {
	for arb, want := range map[Arbiter]string{
		RoundRobin: "9325e930746a868d",
		AgeBased:   "fc371aa7ebbe7eee",
	} {
		res, err := RunFairness(DefaultFairnessConfig(arb, 42))
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "mesh "+arb.String(), res, want)
	}
}

func TestXbarFairnessGolden(t *testing.T) {
	for arb, want := range map[Arbiter]string{
		RoundRobin: "7b9726f975ef3b93",
		AgeBased:   "fa79f98dfa7b0bba",
	} {
		res, err := RunXbarFairness(DefaultXbarFairnessConfig(arb, 42))
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "xbar "+arb.String(), res, want)
	}
}

func TestLoadLatencyGolden(t *testing.T) {
	points, err := RunLoadLatency(DefaultLoadLatencyConfig(RoundRobin, 11))
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "load-latency", points, "8fc32f40c02c9fd8")
}

// TestReplayGolden replays ext5's quick-fidelity BFS trace under ext5's
// two address mappings.
func TestReplayGolden(t *testing.T) {
	bfs, err := workload.NewBFS(6000, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	var steps [][]uint64
	for s := 0; s < bfs.Steps() && len(steps) < 4; s++ {
		if addrs := bfs.Step(s); len(addrs) >= 200 && len(addrs) <= 4000 {
			steps = append(steps, addrs)
		}
	}
	for name, tc := range map[string]struct {
		portOf func(uint64) int
		want   string
	}{
		"hashed": {HashedPortMapping(6), "257a6a403c8c51cb"},
		"camped": {CampedPortMapping(6, 1<<22), "808617f632f948a9"},
	} {
		stats, err := ReplayTrace(replayConfig(tc.portOf), steps)
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "replay "+name, stats, tc.want)
	}
}
