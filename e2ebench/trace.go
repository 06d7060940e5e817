package main

import (
	"fmt"
	"os"
	"time"

	"gpunoc/internal/obs"
)

// span is one timed call into a layer, recorded from outside the layer.
// Times are Unix nanoseconds so spans from the fill workers and from this
// process share one timeline.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	// ID is shared by every span of one tuple or one HTTP request.
	ID int64 `json:"id"`
	// Parent indexes the enclosing span in the same recorder; -1 for a
	// root.
	Parent int `json:"parent"`
	Pid    int `json:"pid"`
}

// recorder keeps spans in memory until the run ends. A disabled recorder
// records nothing, so the untraced path costs one branch per boundary.
// A recorder belongs to one goroutine.
type recorder struct {
	on    bool
	pid   int
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, pid: os.Getpid()} }

// begin opens a span and returns its handle for end; -1 when disabled.
func (r *recorder) begin(name string, id int64, parent int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Now().UnixNano(), ID: id, Parent: parent, Pid: r.pid})
	return len(r.spans) - 1
}

func (r *recorder) end(h int) {
	if h >= 0 {
		r.spans[h].End = time.Now().UnixNano()
	}
}

// add appends spans recorded elsewhere (a worker process, a client
// goroutine), re-basing their parent handles onto this recorder.
func (r *recorder) add(spans []span) {
	base := len(r.spans)
	for _, s := range spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// selfTimes sums, per span name, each span's duration minus the time its
// children cover. Children of one span run one after another on the
// recording goroutine, so their durations do not overlap.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// totalTime sums the durations of the spans named name.
func totalTime(spans []span, name string) time.Duration {
	var d int64
	for _, s := range spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// writeTrace writes the spans as a Chrome trace-event file through an
// obs registry: one scope per recording pid (this process's named self,
// each other pid a fill worker), one complete event per span on the
// track of its shared ID, with the parent handle as its argument. Times
// are whole microseconds from the earliest span.
func writeTrace(path string, spans []span, self string) error {
	if len(spans) == 0 {
		return fmt.Errorf("no spans recorded")
	}
	t0 := spans[0].Start
	for _, s := range spans {
		t0 = min(t0, s.Start)
	}
	reg := obs.New()
	tracers := map[int]*obs.Tracer{}
	for _, s := range spans {
		t, ok := tracers[s.Pid]
		if !ok {
			scope := fmt.Sprintf("fill worker %d", s.Pid)
			if s.Pid == os.Getpid() {
				scope = self
			}
			t = reg.Scope(scope).Tracer()
			tracers[s.Pid] = t
		}
		t.Span("e2ebench", s.Name, (s.Start-t0)/1e3, (s.End-s.Start)/1e3, s.ID, int64(s.Parent))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteTrace(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
