package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"gpunoc/internal/core"
	"gpunoc/internal/perfbench"
	"gpunoc/internal/stats"
)

// passSet is the fill passes of one run, split by whether they traced.
type passSet struct {
	first            *fillReport
	untraced, traced []*fillReport
}

// stop stops a nocserve; one that does not drain and exit cleanly fails
// the run's checks.
func (r *run) stop(srv *nocserve) {
	if err := srv.stop(); err != nil {
		r.problem("nocserve shutdown: %v", err)
	}
}

// count adds operations to the run's attempted, failed and refused
// totals.
func (r *run) count(attempted, failed, refused int) {
	r.attempted += attempted
	r.failed += failed
	r.refused += refused
}

// fillPass runs one fill worker process and files its report. The first
// pass also evaluates the paper checks; every later pass must reproduce
// its output digest. The pass's set-up time is appended to setups.
func (r *run) fillPass(ps *passSet, tuples []tuple, quick, traced bool, setups *[]float64) error {
	h := r.rec.begin("fill pass", 0, -1)
	rep, setup, err := spawnWorker(workerArgs{tuples: tuples, quick: quick, traced: traced, checks: ps.first == nil})
	r.rec.end(h)
	if err != nil {
		return err
	}
	*setups = append(*setups, setup.Seconds())
	r.count(len(rep.Tuples), rep.failed(), rep.refused())
	if ps.first == nil {
		ps.first = rep
	} else if rep.Digest != ps.first.Digest {
		r.problem("fill pass output sha256 %s differs from the first pass's %s", rep.Digest, ps.first.Digest)
	}
	if traced {
		ps.traced = append(ps.traced, rep)
		r.rec.add(rep.Spans)
	} else {
		ps.untraced = append(ps.untraced, rep)
	}
	return nil
}

// recordFill turns fill passes into the fill metrics. main says whether
// filling is the workload's main phase, whose failures and tracing cost
// the run reports.
func (r *run) recordFill(ps *passSet, main bool) {
	var fill, alloc, rss []float64
	for _, p := range ps.untraced {
		fill = append(fill, float64(p.FillNs)/1e9)
		alloc = append(alloc, float64(p.AllocBytes)/(1<<20))
		rss = append(rss, float64(p.PeakRSSKiB)/1024)
	}
	r.vals["fill_s"], r.vals["fill_cpu_s"] = fastestSum(ps.untraced)
	r.vals["fill.pass_median_s"] = perfbench.Median(fill)
	r.vals["alloc_mb"] = perfbench.Median(alloc)
	r.vals["peak_rss_mb"] = perfbench.Median(rss)
	r.vals["paper_checks_passed"] = float64(ps.first.ChecksPassed)
	fmt.Fprintf(os.Stderr, "e2ebench: %d untraced fill passes of %d tuples, pass times %.4g s, fastest per tuple %.4g s; paper checks %d/%d\n",
		len(ps.untraced), len(ps.first.Tuples), fill, r.vals["fill_s"], ps.first.ChecksPassed, ps.first.ChecksTotal)
	if main {
		r.vals["fail_frac"] = float64(ps.first.failed()) / float64(len(ps.first.Tuples))
		r.vals["refused_frac"] = float64(ps.first.refused()) / float64(len(ps.first.Tuples))
	}
	if !r.traced {
		return
	}
	var traced []float64
	layers := map[string][]float64{}
	for _, p := range ps.traced {
		traced = append(traced, float64(p.FillNs)/1e9)
		for k, v := range coreLayer(p) {
			layers[k] = append(layers[k], v)
		}
		printShares(r.workload, p)
	}
	for k, vs := range layers {
		r.vals[k] = perfbench.Median(vs)
	}
	if main {
		r.vals["trace.overhead_frac"] = (perfbench.Median(traced) - perfbench.Median(fill)) / perfbench.Median(fill)
	}
}

// fastestSum adds up each tuple's fastest wall and CPU time over the
// passes, in seconds. The shared host slows a tuple by a different
// amount on each pass, but seldom on all of them, so the sum of the
// fastest times moves far less from run to run than a pass's total.
func fastestSum(passes []*fillReport) (wall, cpu float64) {
	for i := range passes[0].Tuples {
		w, c := passes[0].Tuples[i].Ns, passes[0].Tuples[i].CPUNs
		for _, p := range passes[1:] {
			w, c = min(w, p.Tuples[i].Ns), min(c, p.Tuples[i].CPUNs)
		}
		wall += float64(w) / 1e9
		cpu += float64(c) / 1e9
	}
	return wall, cpu
}

// coreLayer derives the core per-layer metrics from one traced pass.
func coreLayer(p *fillReport) map[string]float64 {
	m := map[string]float64{
		"core.context_ms": totalTime(p.Spans, "core.NewContext").Seconds() * 1e3,
		"core.run_errors": float64(p.failed() + p.refused()),
	}
	var render time.Duration
	for _, f := range formats {
		render += totalTime(p.Spans, "render/"+f)
	}
	m["core.render_ms"] = render.Seconds() * 1e3
	bytes, dups := 0, 0
	seen := map[string]bool{}
	for _, t := range p.Tuples {
		bytes += t.Bytes
		if t.Err != "" {
			continue
		}
		k := t.Tuple.Exp + " " + t.Sums["json"]
		if seen[k] {
			dups++
		}
		seen[k] = true
	}
	m["core.output_mib"] = float64(bytes) / (1 << 20)
	m["core.dup_frac"] = float64(dups) / float64(len(p.Tuples))
	for _, e := range core.All() {
		m["core.run_s."+e.ID] = totalTime(p.Spans, "core.RunResult/"+e.ID).Seconds()
	}
	return m
}

// printShares writes each span name's self time as a share of the pass's
// fill time, largest first, plus the NoC experiments' combined share.
func printShares(workload string, p *fillReport) {
	self := selfTimes(p.Spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fill := float64(p.FillNs)
	var nocShare float64
	for _, n := range names {
		share := float64(self[n]) / fill
		if id, ok := strings.CutPrefix(n, "core.RunResult/"); ok && nocExperiments[id] {
			nocShare += share
		}
		if share >= 0.001 {
			fmt.Fprintf(os.Stderr, "share %s %-28s %.4f\n", workload, n, share)
		}
	}
	fmt.Fprintf(os.Stderr, "share %s %-28s %.4f\n", workload, "noc experiments", nocShare)
}

// checkIndex fetches the live /v1/ index and checks it lists exactly the
// registry's served tuples, the set matrix_quick fills.
func (r *run) checkIndex(client *http.Client, base string) ([]tuple, error) {
	index, err := fetchIndex(client, base)
	if err != nil {
		return nil, err
	}
	if want := registryTuples(nil); !slices.Equal(index, want) {
		r.problem("served /v1/ index (%d keys) differs from the registry's %d tuples", len(index), len(want))
	}
	if len(index) < probeKeys {
		return nil, fmt.Errorf("/v1/ index lists %d keys, fewer than %d", len(index), probeKeys)
	}
	return index, nil
}

// verifyHead requests every format of every head tuple once and checks
// the bytes against the in-process reference fill. A tuple the reference
// fill refused with the known defect must be refused the same way.
func (r *run) verifyHead(client *http.Client, base string, head []tuple, ref *fillReport) {
	urls := resultURLs(base, head)
	for i := range head {
		for f, format := range formats {
			r.attempted++
			status, _, body, err := get(client, urls[i][f], nil)
			if knownRefusal(ref.Tuples[i].Err) {
				if err == nil && isRefusal(status, body) {
					r.refused++
				} else {
					r.failed++
					r.problem("served %s %s answered %d, the in-process fill refused it", head[i], format, status)
				}
				continue
			}
			if err != nil || status != http.StatusOK {
				r.failed++
				continue
			}
			if got, want := sha256Hex(body), ref.Tuples[i].Sums[format]; got != want {
				r.failed++
				r.problem("served %s %s has sha256 %s, in-process fill %s", head[i], format, got, want)
			}
		}
	}
}

// window is one closed-loop hit window and the server's counters around
// it.
type window struct {
	stats         hitStats
	traced        bool
	cpuTicks      int64
	before, after *metricz
}

func (r *run) hitWindow(client *http.Client, srv *nocserve, urls [][]string, seconds float64, traced bool, check *bodyCheck) (window, error) {
	w := window{traced: traced}
	var err error
	if w.before, err = fetchMetricz(client, srv.base); err != nil {
		return w, err
	}
	cpu0, err := procCPUTicks(srv.pid())
	if err != nil {
		return w, err
	}
	h := r.rec.begin("hit window", 0, -1)
	// Each window draws its own streams, fixed by the run's seed.
	r.windows++
	w.stats, err = hitLoop(client, urls, r.seed<<8+r.windows, hitConns, time.Duration(seconds*float64(time.Second)), traced, check, r.echo.addr)
	r.rec.end(h)
	if err != nil {
		return w, err
	}
	cpu1, err := procCPUTicks(srv.pid())
	if err != nil {
		return w, err
	}
	w.cpuTicks = cpu1 - cpu0
	if w.after, err = fetchMetricz(client, srv.base); err != nil {
		return w, err
	}
	r.rec.add(w.stats.spans)
	r.count(w.stats.attempted, w.stats.failed, w.stats.refused)
	return w, nil
}

// recordHits turns hit windows into the hit metrics and per-layer server
// figures from /metricz and /proc deltas. main says whether hitting is
// the workload's main phase.
//
// Each untraced window gives the ratio of the request latencies to the
// echo round trips paired with them (echo.go): of their medians for
// hit_p50_us, of their means for hit_rps. The metrics are the median
// ratio over the windows at the reference echo round trip; the measured
// latencies are kept as hit.unpaired_p50_us and hit.echo_p50_us.
func (r *run) recordHits(wins []window, main bool) {
	var p50Ratio, meanRatio, p99Ratio, tracedP50Ratio, p50, echoP50 []float64
	var ticks, reqs, attempted, failed, refused, samples, notHit int64
	var hits, misses, coalesced, computeMs int64
	for _, w := range wins {
		d := func(name string) int64 { return w.after.Counters[name] - w.before.Counters[name] }
		hits += d("resultstore/hit")
		misses += d("resultstore/miss")
		coalesced += d("resultstore/coalesced")
		computeMs += w.after.Histograms["resultstore/compute_ms"].Sum - w.before.Histograms["resultstore/compute_ms"].Sum
		attempted += int64(w.stats.attempted)
		failed += int64(w.stats.failed)
		refused += int64(w.stats.refused)
		notHit += int64(w.stats.notHit)
		echo := stats.Quantile(w.stats.echoUs, 0.5)
		if w.traced {
			tracedP50Ratio = append(tracedP50Ratio, stats.Quantile(w.stats.latUs, 0.5)/echo)
			continue
		}
		p50 = append(p50, stats.Quantile(w.stats.latUs, 0.5))
		echoP50 = append(echoP50, echo)
		p50Ratio = append(p50Ratio, p50[len(p50)-1]/echo)
		p99Ratio = append(p99Ratio, stats.Quantile(w.stats.latUs, 0.99)/echo)
		meanRatio = append(meanRatio, stats.Mean(w.stats.latUs)/stats.Mean(w.stats.echoUs))
		ticks += w.cpuTicks
		reqs += int64(w.stats.attempted)
		samples += int64(len(w.stats.latUs))
	}
	r.vals["hit_p50_us"] = perfbench.Median(p50Ratio) * refEchoUs
	r.vals["hit_p99_us"] = perfbench.Median(p99Ratio) * refEchoUs
	r.vals["hit_rps"] = hitConns * 1e6 / (perfbench.Median(meanRatio) * refEchoUs)
	r.vals["hit.unpaired_p50_us"] = perfbench.Median(p50)
	r.vals["hit.echo_p50_us"] = perfbench.Median(echoP50)
	fmt.Fprintf(os.Stderr, "e2ebench: %d untraced hit windows, %d latency samples, %d of %d requests failed, %d refused (known defect), %d 200s not X-Cache: hit\n",
		len(p50), samples, failed, attempted, refused, notHit)
	fmt.Fprintf(os.Stderr, "e2ebench: per window: hit_p50_us %.4g echo_p50_us %.4g p50 ratio %.4g mean ratio %.4g\n", p50, echoP50, p50Ratio, meanRatio)
	r.vals["resultstore.hit_ratio"] = float64(hits) / float64(max(hits+misses+coalesced, 1))
	r.vals["resultstore.fills"] = float64(misses)
	r.vals["resultstore.compute_s"] = float64(computeMs) / 1e3
	r.vals["resultstore.resident_mib"] = float64(wins[len(wins)-1].after.Gauges["resultstore/bytes"]) / (1 << 20)
	r.vals["nocserve.cpu_us_per_req"] = float64(ticks*clockTickUs) / float64(max(reqs, 1))
	r.vals["nocserve.http_errors"] = float64(failed)
	if main {
		r.vals["fail_frac"] = float64(failed) / float64(max(attempted, 1))
		r.vals["refused_frac"] = float64(refused) / float64(max(attempted, 1))
		if r.traced {
			r.vals["trace.overhead_frac"] = perfbench.Median(tracedP50Ratio)/perfbench.Median(p50Ratio) - 1
		}
	}
}

// digest is the SHA-256 over every distinct body seen, in (key, format)
// order.
func (c *bodyCheck) digest(keys []tuple) string {
	rqs := make([]request, 0, len(c.first))
	for rq := range c.first {
		rqs = append(rqs, rq)
	}
	sort.Slice(rqs, func(i, j int) bool {
		if rqs[i].key != rqs[j].key {
			return rqs[i].key < rqs[j].key
		}
		return rqs[i].format < rqs[j].format
	})
	h := sha256.New()
	for _, rq := range rqs {
		_, _ = fmt.Fprintf(h, "%s %s %s\n", keys[rq.key], formats[rq.format], sha256Hex(c.first[rq]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeTrace writes every recorded span to the workload's trace file and
// checks it with cmd/tracecheck.
func (r *run) writeTrace() error {
	path := filepath.Join(r.out, "trace-"+r.workload+".json")
	if err := writeTrace(path, r.rec.spans, "e2ebench client and probes"); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	out, err := exec.Command(filepath.Join(r.bin, "tracecheck"), path).CombinedOutput()
	if err != nil {
		r.problem("tracecheck rejected %s: %v: %s", path, err, out)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s", out)
	return nil
}
