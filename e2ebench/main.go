// Command e2ebench is the repository's end-to-end benchmark. It measures
// what a caller waits for — a cold fill of each served (experiment, GPU)
// tuple and a warm HTTP hit on the real cmd/nocserve binary — and, in a
// separate traced run, the layers in between, each timed from outside by
// calls into its public functions.
//
// Usage, from the repository root (run.sh builds the binaries first):
//
//	bash e2ebench/run.sh --workload matrix_quick --seed 1 --seconds 12 --trace 0
//
// Workloads:
//
//	matrix_quick  every served tuple at quick fidelity, in index order;
//	              fig18 (sidechannel/aes/kernel), ext4 and fig9 dominate
//	noc_full      fig20-23, ext1 and ext5 at full fidelity on every GPU;
//	              almost all Mesh/Xbar stepping
//	serve_zipf    nocserve -prewarm quick, then a seeded Zipf stream of
//	              warm hits over the live /v1/ index
//
// Every run has a fill phase (fresh worker processes filling a tuple set
// in-process, as nocserve's cold fill does) and a hit phase (two
// keep-alive connections in a closed loop against nocserve). The fill
// workloads spend most of the run filling and then hit the head of the
// index; serve_zipf spends most of it hitting and fills only the head of
// the index, as the reference its served bytes are checked against.
//
// Fill timings are each tuple's fastest over the run's passes, summed;
// hit timings are relative to echo round trips paired with the requests
// (see echo.go). The measured figures are kept as per-layer metrics.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, and
// the spans go to a trace-event file that cmd/tracecheck must accept.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gpunoc/internal/core"
	"gpunoc/internal/perfbench"
)

// probeKeys is how many index entries form the head of the index: the
// most popular keys of the Zipf stream, and the tuples every workload
// checks served bytes against an in-process fill for.
const probeKeys = 8

// setupProbes is how many extra worker processes a fill workload starts
// only to time set-up.
const setupProbes = 5

// refPassesPerRound is how many reference fills serve_zipf makes per
// nocserve process.
const refPassesPerRound = 20

// hitConns is how many keep-alive connections the hit loop drives.
const hitConns = 2

// nocExperiments are the NoC-simulation experiments noc_full runs.
var nocExperiments = map[string]bool{"fig20": true, "fig21": true, "fig22": true, "fig23": true, "ext1": true, "ext5": true}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics a --trace 0 run reports, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"fill_s", "s"},
	{"fill_cpu_s", "s"},
	{"alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"paper_checks_passed", "count"},
	{"hit_rps", "1/s"},
	{"hit_p50_us", "us"},
}

// perLayer lists the metrics a --trace 1 run reports, with units.
func perLayer() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"fail_frac", "1"},
		{"refused_frac", "1"},
		{"hit_p99_us", "us"},
		{"core.context_ms", "ms"},
		{"core.render_ms", "ms"},
		{"core.output_mib", "MiB"},
		{"core.run_errors", "count"},
		{"core.dup_frac", "1"},
	}
	for _, e := range core.All() {
		out = append(out, struct{ name, unit string }{"core.run_s." + e.ID, "s"})
	}
	return append(out, []struct{ name, unit string }{
		{"noc.mesh_step_ns", "ns"},
		{"noc.xbar_step_ns", "ns"},
		{"noc.gpusim_ms", "ms"},
		{"noc.mesh_step_allocs", "count"},
		{"noc.host_kcycles_per_s", "kcycles/s"},
		{"noc.sim_gpusim_mem_util", "1"},
		{"noc.sim_gpusim_served", "count"},
		{"noc.sim_fig23_rr_maxmin", "1"},
		{"noc.sim_fig23_age_maxmin", "1"},
		{"sidechannel.collect_ms", "ms"},
		{"sidechannel.recover_ms", "ms"},
		{"aes.encrypt_ns", "ns"},
		{"kernel.coalesce_ns", "ns"},
		{"kernel.coalesce_allocs", "count"},
		{"microbench.working_set_ms", "ms"},
		{"bandwidth.solve_us", "us"},
		{"resultstore.hit_ns", "ns"},
		{"resultstore.hit_ratio", "1"},
		{"resultstore.fills", "count"},
		{"resultstore.compute_s", "s"},
		{"resultstore.resident_mib", "MiB"},
		{"nocserve.cpu_us_per_req", "us"},
		{"nocserve.overhead_x", "1"},
		{"nocserve.http_errors", "count"},
		{"obs.hist_observe_ns", "ns"},
		{"obs.enabled_overhead_frac", "1"},
		{"trace.overhead_frac", "1"},
		{"fill.pass_median_s", "s"},
		{"hit.unpaired_p50_us", "us"},
		{"hit.echo_p50_us", "us"},
	}...)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "matrix_quick, noc_full or serve_zipf")
		seed     = flag.Int64("seed", 1, "seed of the request stream")
		seconds  = flag.Int("seconds", 12, "hit time of one run; fill passes are a fixed count")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		bin      = flag.String("bin", "", "directory holding the nocserve and tracecheck binaries")
		out      = flag.String("out", ".", "directory the trace file is written to")
		worker   = flag.String("worker", "", "run as a fill worker: fill, setup or echo (internal)")
		keys     = flag.String("keys", "", "worker: comma-separated GPU/exp tuples")
		quick    = flag.Bool("quick", true, "worker: quick fidelity")
		traced   = flag.Bool("traced", false, "worker: record spans")
		checks   = flag.Bool("checks", false, "worker: evaluate the paper's observations and implications")
	)
	flag.Parse()
	if *worker == "echo" {
		if err := echoMain(); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench echo:", err)
			os.Exit(1)
		}
		return
	}
	if *worker != "" {
		if err := workerMain(*worker, *keys, *quick, *traced, *checks); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench worker:", err)
			os.Exit(1)
		}
		return
	}
	if *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -bin, -seconds > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	r := &run{workload: *workload, seed: *seed, seconds: float64(*seconds), traced: *trace == 1,
		bin: *bin, out: *out, rec: newRecorder(*trace == 1), correct: true}
	res, err := r.execute()
	if serr := r.echo.stop(); err == nil && serr != nil {
		err = fmt.Errorf("echo process: %w", serr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Printf("output sha256 %s %s\n", r.workload, r.digest)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run is one benchmark run of one workload.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	bin, out string
	rec      *recorder
	echo     *echoProc

	// refused counts operations answered with the known defect's
	// refusal (knownRefusal): attempted, checked, and not failed.
	attempted, failed, refused int
	windows                    int64
	correct                    bool
	digest                     string
	// vals holds every measured figure by metric name.
	vals map[string]float64
}

// problem marks the run's outputs incorrect and says why on stderr.
func (r *run) problem(format string, args ...any) {
	r.correct = false
	fmt.Fprintf(os.Stderr, "e2ebench: CHECK FAILED: "+format+"\n", args...)
}

func (r *run) execute() (*result, error) {
	r.vals = map[string]float64{}
	var err error
	if r.echo, err = startEcho(); err != nil {
		return nil, fmt.Errorf("echo process: %w", err)
	}
	switch r.workload {
	case "matrix_quick":
		err = r.fillWorkload(registryTuples(nil), true, 3)
	case "noc_full":
		err = r.fillWorkload(registryTuples(nocExperiments), false, 6)
	case "serve_zipf":
		err = r.serveWorkload(3)
	default:
		return nil, fmt.Errorf("unknown workload %q (want matrix_quick, noc_full or serve_zipf)", r.workload)
	}
	if err != nil {
		return nil, err
	}
	if r.traced {
		h := r.rec.begin("probes", 0, -1)
		probes, err := runProbes(r.rec)
		r.rec.end(h)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		for k, v := range probes {
			r.vals[k] = v
		}
		r.vals["nocserve.overhead_x"] = r.vals["hit.unpaired_p50_us"] * 1e3 / r.vals["resultstore.hit_ns"]
		if err := r.writeTrace(); err != nil {
			return nil, err
		}
	}
	if r.refused > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: known defect: %d of %d operations refused with %q\n", r.refused, r.attempted, refusalText)
	}
	res := &result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	specs := endToEnd
	if r.traced {
		specs = perLayer()
	}
	for _, m := range specs {
		v, ok := r.vals[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", m.name, v, m.unit)
	}
	return res, nil
}

// fillWorkload times set-up, then makes rounds of one fill pass in a
// fresh worker process and one hit window on a fresh nocserve serving
// the head of the index; the hit windows add up to half the run's
// seconds. Interleaving the two spreads each metric's samples over the
// whole run, so a slow spell on the host moves a median less, and a
// nocserve per round keeps one process's luck out of the hit medians.
func (r *run) fillWorkload(tuples []tuple, quick bool, rounds int) error {
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		_, d, err := spawnWorker(workerArgs{tuples: tuples, quick: quick, setupOnly: true})
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	var (
		head   []tuple
		ref    *fillReport
		ps     = &passSet{}
		check  = newBodyCheck()
		wins   []window
		client = newClient(hitConns)
	)
	for i := 0; i < rounds; i++ {
		traced := r.traced && i%2 == 1
		if err := r.fillPass(ps, tuples, quick, traced, &setups); err != nil {
			return err
		}
		win, err := func() (window, error) {
			srv, err := startNocserve(r.bin, false)
			if err != nil {
				return window{}, err
			}
			defer r.stop(srv)
			if i == 0 {
				index, err := r.checkIndex(client, srv.base)
				if err != nil {
					return window{}, err
				}
				head = index[:probeKeys]
				if ref, _, err = spawnWorker(workerArgs{tuples: head, quick: true}); err != nil {
					return window{}, err
				}
				r.count(len(head), ref.failed(), ref.refused())
			}
			// The head's first requests are this nocserve's cold fills.
			r.verifyHead(client, srv.base, head, ref)
			return r.hitWindow(client, srv, resultURLs(srv.base, head), r.seconds/2/float64(rounds), traced, check)
		}()
		if err != nil {
			return err
		}
		wins = append(wins, win)
	}
	r.vals["setup_s"] = perfbench.Median(setups)
	r.digest = ps.first.Digest
	r.recordFill(ps, true)
	r.recordHits(wins, false)
	return nil
}

// serveWorkload makes rounds of: start nocserve with prewarm (timed as
// set-up), fill the head of the index in-process as the reference its
// served bytes must match, and drive the seeded Zipf stream over the
// whole index; the hit windows add up to the run's seconds.
func (r *run) serveWorkload(rounds int) error {
	var (
		setups, rss, ignored []float64
		wins                 []window
		index, head          []tuple
		ps                   = &passSet{}
		client               = newClient(hitConns)
		check                = newBodyCheck()
	)
	for i := 0; i < rounds; i++ {
		traced := r.traced && i%2 == 1
		h := r.rec.begin("setup nocserve -prewarm quick", 0, -1)
		srv, err := startNocserve(r.bin, true)
		r.rec.end(h)
		if err != nil {
			return err
		}
		setups = append(setups, srv.setup.Seconds())
		win, err := func() (window, error) {
			defer r.stop(srv)
			if i == 0 {
				if index, err = r.checkIndex(client, srv.base); err != nil {
					return window{}, err
				}
				head = index[:probeKeys]
			}
			for p := 0; p < refPassesPerRound; p++ {
				if err := r.fillPass(ps, head, true, traced && p == 0, &ignored); err != nil {
					return window{}, err
				}
			}
			r.verifyHead(client, srv.base, head, ps.first)
			win, err := r.hitWindow(client, srv, resultURLs(srv.base, index), r.seconds/float64(rounds), traced, check)
			rss = append(rss, float64(procStatusKiB(fmt.Sprint(srv.pid()), "VmHWM"))/1024)
			return win, err
		}()
		if err != nil {
			return err
		}
		wins = append(wins, win)
	}
	r.recordFill(ps, false)
	r.vals["setup_s"] = perfbench.Median(setups)
	r.vals["peak_rss_mb"] = perfbench.Median(rss)
	r.digest = check.digest(index)
	r.recordHits(wins, true)
	return nil
}
