package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// nocserve is one running cmd/nocserve process on an ephemeral port.
type nocserve struct {
	cmd  *exec.Cmd
	base string
	// setup is exec to ready: to the listening line, or with prewarm to
	// the "prewarm done" line.
	setup time.Duration
	// drained closes when the stderr reader has seen EOF.
	drained chan struct{}
}

// startNocserve execs the nocserve binary and waits until it is ready.
func startNocserve(bin string, prewarm bool) (*nocserve, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if prewarm {
		args = append(args, "-prewarm", "quick")
	}
	cmd := exec.Command(filepath.Join(bin, "nocserve"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start nocserve: %w", err)
	}
	s := &nocserve{cmd: cmd, drained: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			if signalled {
				continue
			}
			if addr, ok := strings.CutPrefix(line, "nocserve: listening on "); ok {
				s.base = "http://" + addr
				if !prewarm {
					s.setup = time.Since(start)
					signalled = true
					ready <- nil
				}
			} else if strings.HasPrefix(line, "nocserve: prewarm done") {
				s.setup = time.Since(start)
				signalled = true
				ready <- nil
			} else if !strings.HasPrefix(line, "nocserve: prewarm ") {
				fmt.Fprintln(os.Stderr, line)
			}
		}
		if !signalled {
			ready <- fmt.Errorf("nocserve exited before it was ready")
		}
	}()
	select {
	case err = <-ready:
	case <-time.After(120 * time.Second):
		err = fmt.Errorf("nocserve not ready after 120s")
	}
	if err != nil {
		_ = cmd.Process.Kill()
		<-s.drained
		_ = cmd.Wait()
		return nil, err
	}
	return s, nil
}

func (s *nocserve) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, waits for the drain and reaps the process.
func (s *nocserve) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		<-s.drained
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		return fmt.Errorf("nocserve did not drain: %v", <-done)
	}
}

// fetchIndex reads the live /v1/ index: the serve key set.
func fetchIndex(client *http.Client, base string) ([]tuple, error) {
	resp, err := client.Get(base + "/v1/")
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/: %s", resp.Status)
	}
	var rows []tuple
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, fmt.Errorf("GET /v1/: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("GET /v1/: empty index")
	}
	return rows, nil
}

// request is one draw of the seeded stream: an index key and a format.
type request struct{ key, format int }

// stream is one connection's seeded request sequence. Key popularity is
// Zipf(s=1.1) over index positions, so the head of the index is hottest
// for every seed; the seed changes the sequence, not the distribution.
// The exponent is an assumed traffic shape, not one fitted to a request
// log.
type stream struct {
	r *rand.Rand
	z *rand.Zipf
}

func newStream(seed int64, conn, nkeys int) *stream {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))
	return &stream{r: r, z: rand.NewZipf(r, 1.1, 1, uint64(nkeys-1))}
}

// formatWeights weight json heaviest. The split is assumed, not measured
// from real traffic.
var formatWeights = []float64{0.55, 0.15, 0.15, 0.15}

func (s *stream) next() request {
	k := int(s.z.Uint64())
	u := s.r.Float64()
	f := 0
	for f < len(formatWeights)-1 && u >= formatWeights[f] {
		u -= formatWeights[f]
		f++
	}
	return request{key: k, format: f}
}

// bodyCheck holds the first body seen per (key, format). It belongs to
// one goroutine; merge combines them.
type bodyCheck struct {
	first      map[request][]byte
	mismatches int
}

func newBodyCheck() *bodyCheck { return &bodyCheck{first: map[request][]byte{}} }

// see reports whether body agrees with the first body seen for rq.
func (c *bodyCheck) see(rq request, body []byte) bool {
	prev, ok := c.first[rq]
	if !ok {
		c.first[rq] = bytes.Clone(body)
		return true
	}
	if !bytes.Equal(prev, body) {
		c.mismatches++
		return false
	}
	return true
}

// merge folds o's first bodies into c, counting those that disagree
// with c's. Mismatches o already counted stay with o's requests.
func (c *bodyCheck) merge(o *bodyCheck) {
	for rq, b := range o.first {
		c.see(rq, b)
	}
}

// hitStats is the client's view of one closed-loop window.
type hitStats struct {
	latUs     []float64 // successful requests only
	echoUs    []float64 // the paired echo round trips
	attempted int
	failed    int // non-200 or byte mismatch, known refusals aside
	refused   int // 500s carrying the known defect's refusal
	notHit    int // 200s whose X-Cache was not "hit"
	spans     []span
}

// client builds an HTTP client holding at most conns keep-alive
// connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// get fetches one URL and returns its status, X-Cache header and body.
// A non-nil buf is reused for the body, which is valid until the next
// call with the same buf.
func get(client *http.Client, url string, buf *bytes.Buffer) (int, string, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, "", nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), buf.Bytes(), err
}

// isRefusal reports whether a response is nocserve's 500 for the known
// defect (knownRefusal).
func isRefusal(status int, body []byte) bool {
	return status == http.StatusInternalServerError && knownRefusal(string(body))
}

// resultURLs lists the quick-fidelity URL of every (key, format) pair,
// indexed [key][format].
func resultURLs(base string, keys []tuple) [][]string {
	urls := make([][]string, len(keys))
	for i, k := range keys {
		for _, f := range formats {
			urls[i] = append(urls[i], fmt.Sprintf("%s/v1/%s/%s?format=%s&quick=1", base, k.GPU, k.Exp, f))
		}
	}
	return urls
}

// hitLoop drives conns closed-loop clients for d, each drawing from its
// own seeded stream, and checks every 200 body against the first body
// seen for its (key, format). A 500 carrying the known defect's refusal
// counts as refused; any other non-200 counts as failed. With an echo
// address, each client follows every request with one echo round trip,
// so the echo latencies see the same moments of the host as the
// requests.
func hitLoop(client *http.Client, urls [][]string, seed int64, conns int, d time.Duration, traced bool, check *bodyCheck, echoAddr string) (hitStats, error) {
	stats := make([]hitStats, conns)
	checks := make([]*bodyCheck, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := 0; c < conns; c++ {
		checks[c] = newBodyCheck()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			rec := newRecorder(traced)
			s := newStream(seed, c, len(urls))
			var echo *echoConn
			if echoAddr != "" {
				if echo, errs[c] = dialEcho(echoAddr); errs[c] != nil {
					return
				}
				defer func() { _ = echo.close() }()
			}
			// Reusing the body buffer and presizing the samples keeps the
			// client's own garbage collection out of the latencies.
			var buf bytes.Buffer
			st.latUs = make([]float64, 0, 1<<16)
			st.echoUs = make([]float64, 0, 1<<16)
			for n := int64(1); time.Now().Before(deadline); n++ {
				rq := s.next()
				h := rec.begin("GET "+formats[rq.format], n*int64(conns)+int64(c), -1)
				t0 := time.Now()
				status, xcache, body, err := get(client, urls[rq.key][rq.format], &buf)
				lat := time.Since(t0)
				rec.end(h)
				st.attempted++
				switch {
				case err == nil && isRefusal(status, body):
					st.refused++
				case err != nil || status != http.StatusOK || !checks[c].see(rq, body):
					st.failed++
				default:
					if xcache != "hit" {
						st.notHit++
					}
					st.latUs = append(st.latUs, float64(lat.Nanoseconds())/1e3)
				}
				if echo != nil {
					e, err := echo.roundTrip()
					if err != nil {
						errs[c] = fmt.Errorf("echo round trip: %w", err)
						return
					}
					st.echoUs = append(st.echoUs, float64(e.Nanoseconds())/1e3)
				}
			}
			st.spans = rec.spans
		}(c)
	}
	wg.Wait()
	var out hitStats
	for c := range stats {
		if errs[c] != nil {
			return out, errs[c]
		}
		out.latUs = append(out.latUs, stats[c].latUs...)
		out.echoUs = append(out.echoUs, stats[c].echoUs...)
		out.attempted += stats[c].attempted
		out.failed += stats[c].failed
		out.refused += stats[c].refused
		out.notHit += stats[c].notHit
		out.spans = append(out.spans, stats[c].spans...)
		before := check.mismatches
		check.merge(checks[c])
		out.failed += check.mismatches - before
	}
	return out, nil
}

// metricz is the subset of nocserve's /metricz the benchmark reads.
type metricz struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
	} `json:"histograms"`
}

func fetchMetricz(client *http.Client, base string) (*metricz, error) {
	resp, err := client.Get(base + "/metricz")
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	var m metricz
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("GET /metricz: %w", err)
	}
	return &m, nil
}

// procCPUTicks is a process's utime+stime in clock ticks, from
// /proc/<pid>/stat.
func procCPUTicks(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return u + s, nil
}

// clockTickUs is the length of one /proc clock tick. Linux reports
// USER_HZ = 100 to user space on every architecture Go supports.
const clockTickUs = 10_000
