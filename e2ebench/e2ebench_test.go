package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func draws(seed int64, conn, n int) []request {
	s := newStream(seed, conn, 74)
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestStreamIsSeeded(t *testing.T) {
	a, b := draws(7, 0, 2000), draws(7, 0, 2000)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different request streams")
	}
	if slices.Equal(a, draws(8, 0, 2000)) {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
	if slices.Equal(a, draws(7, 1, 2000)) {
		t.Fatal("two connections of one seed drew the same stream")
	}
	// Zipf over index positions: the head of the index is hottest.
	counts := make([]int, 74)
	for _, rq := range a {
		counts[rq.key]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[70] {
		t.Fatalf("key popularity is not decreasing along the index: %d, %d, %d", counts[0], counts[10], counts[70])
	}
}

// buildNocserve compiles cmd/nocserve into a temporary directory.
func buildNocserve(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and starts nocserve")
	}
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", filepath.Join(dir, "nocserve"), "gpunoc/cmd/nocserve").CombinedOutput()
	if err != nil {
		t.Fatalf("build nocserve: %v\n%s", err, out)
	}
	return dir
}

func TestServeKeySetIsTheIndex(t *testing.T) {
	srv, err := startNocserve(buildNocserve(t), false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	r := &run{correct: true}
	index, err := r.checkIndex(newClient(1), srv.base)
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct || !slices.Equal(index, registryTuples(nil)) {
		t.Fatalf("serve key set %v is not the registry's served tuples", index)
	}
	// The known defect is served, not filtered: fig19 is advertised on
	// V100 although it refuses to run there.
	if !slices.Contains(index, tuple{GPU: "V100", Exp: "fig19"}) {
		t.Fatal("V100/fig19 is missing from the index")
	}
}

func TestPrewarmLandsInSetup(t *testing.T) {
	bin := buildNocserve(t)
	srv, err := startNocserve(bin, true)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	m, err := fetchMetricz(newClient(1), srv.base)
	if err != nil {
		t.Fatal(err)
	}
	// Set-up ends at "prewarm done", so every prewarm fill is behind it.
	if got, want := m.Counters["resultstore/miss"], int64(len(registryTuples(nil))); got != want {
		t.Fatalf("%d fills done when set-up ended, want all %d", got, want)
	}
}

func TestFillLandsInFillS(t *testing.T) {
	tuples := []tuple{{GPU: "V100", Exp: "fig1"}, {GPU: "V100", Exp: "fig19"}, {GPU: "A100", Exp: "fig4"}}
	setup, err := runFill(workerArgs{tuples: tuples, quick: true, setupOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(setup.Tuples) != 0 || setup.FillNs != 0 {
		t.Fatal("a set-up probe ran tuples")
	}
	rep, err := runFill(workerArgs{tuples: tuples, quick: true, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if run := totalTime(rep.Spans, "core.RunResult/fig1"); run <= 0 || run > time.Duration(rep.FillNs) {
		t.Fatalf("fig1 ran %v, outside the %v fill", run, time.Duration(rep.FillNs))
	}
	r := &run{vals: map[string]float64{}}
	r.recordFill(&passSet{first: rep, untraced: []*fillReport{rep}}, true)
	var tupleNs int64
	for _, o := range rep.Tuples {
		tupleNs += o.Ns
	}
	if math.Abs(r.vals["fill_s"]-float64(tupleNs)/1e9) > 1e-12 || tupleNs <= 0 || tupleNs > rep.FillNs {
		t.Fatalf("fill_s = %v, want the pass's tuple times %v, within its %v fill", r.vals["fill_s"], float64(tupleNs)/1e9, float64(rep.FillNs)/1e9)
	}
	if _, ok := r.vals["setup_s"]; ok {
		t.Fatal("recording a fill set setup_s")
	}
	// The known refusal is counted apart from failures, not dropped.
	if rep.failed() != 0 || rep.refused() != 1 || r.vals["fail_frac"] != 0 || r.vals["refused_frac"] != 1.0/3 {
		t.Fatalf("failed = %d, refused = %d, fail_frac = %v, refused_frac = %v; want V100/fig19 refused as 1 of 3 and no failure",
			rep.failed(), rep.refused(), r.vals["fail_frac"], r.vals["refused_frac"])
	}
}

func TestServerErrorsAndMismatchesCountAsFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.Contains(r.URL.Path, "/bad"):
			http.Error(w, "refused", http.StatusInternalServerError)
		case strings.Contains(r.URL.Path, "/fig19"):
			http.Error(w, "nocserve: "+refusalText+"; run on A100 or H100", http.StatusInternalServerError)
		case strings.Contains(r.URL.Path, "/flaky"):
			w.Header().Set("X-Cache", "hit")
			fmt.Fprint(w, calls.Add(1))
		default:
			w.Header().Set("X-Cache", "hit")
			fmt.Fprint(w, "ok")
		}
	}))
	defer ts.Close()
	keys := []tuple{{GPU: "V100", Exp: "good"}, {GPU: "V100", Exp: "bad"}, {GPU: "V100", Exp: "flaky"}, {GPU: "V100", Exp: "fig19"}}
	st, err := hitLoop(newClient(1), resultURLs(ts.URL, keys), 1, 1, 300*time.Millisecond, false, newBodyCheck(), "")
	if err != nil {
		t.Fatal(err)
	}
	if st.attempted == 0 || st.failed == 0 || st.refused == 0 {
		t.Fatalf("attempted %d, failed %d, refused %d; want the 500s and changed bodies counted as failed, the known refusal as refused",
			st.attempted, st.failed, st.refused)
	}
	if st.attempted != st.failed+st.refused+len(st.latUs) {
		t.Fatalf("attempted %d != failed %d + refused %d + succeeded %d", st.attempted, st.failed, st.refused, len(st.latUs))
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

func TestFillTimesAreFastestPerTuple(t *testing.T) {
	pass := func(ns ...int64) *fillReport {
		p := &fillReport{}
		for _, n := range ns {
			p.Tuples = append(p.Tuples, tupleOut{Ns: n * 1e9, CPUNs: 2 * n * 1e9})
		}
		return p
	}
	// The host slowed the first tuple on one pass and the second on the
	// other.
	wall, cpu := fastestSum([]*fillReport{pass(3, 1), pass(1, 5)})
	if wall != 2 || cpu != 4 {
		t.Fatalf("wall %v s, cpu %v s; want each tuple's fastest pass summed: 2 s, 4 s", wall, cpu)
	}
}

func TestHitMetricsArePairedWithEcho(t *testing.T) {
	win := func(slow float64) window {
		st := hitStats{attempted: 4}
		for _, l := range []float64{60, 80, 100, 120} {
			st.latUs = append(st.latUs, slow*l)
		}
		for _, e := range []float64{20, 40, 40, 60} {
			st.echoUs = append(st.echoUs, slow*e)
		}
		return window{stats: st, before: &metricz{}, after: &metricz{}}
	}
	// The host's loopback ran at half speed during the second window and
	// at a third during the third: each request and each echo round trip
	// took that much longer.
	r := &run{vals: map[string]float64{}}
	r.recordHits([]window{win(1), win(2), win(3)}, true)
	want := map[string]float64{
		"hit_p50_us":          90.0 / 40 * refEchoUs,
		"hit_rps":             hitConns * 1e6 / (90.0 / 40 * refEchoUs),
		"hit.unpaired_p50_us": 180,
		"hit.echo_p50_us":     80,
	}
	for name, v := range want {
		if got := r.vals[name]; math.Abs(got-v) > 1e-9*v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}
