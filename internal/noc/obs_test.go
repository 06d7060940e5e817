package noc

import (
	"bytes"
	"reflect"
	"testing"

	"gpunoc/internal/obs"
)

// quickGPUSim is a shortened Fig. 21 configuration for obs tests.
func quickGPUSim(seed int64) GPUSimConfig {
	cfg := DefaultGPUSimConfig(seed)
	cfg.Cycles = 3000
	cfg.Warmup = 500
	cfg.UtilWindow = 100
	return cfg
}

// Observation must be a pure tap: attaching a registry cannot perturb a
// single simulation outcome.
func TestObservationDoesNotChangeResults(t *testing.T) {
	plain, err := RunGPUSim(quickGPUSim(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickGPUSim(3)
	cfg.Obs = obs.New()
	observed, err := RunGPUSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("GPU sim diverged under observation:\n%+v\n%+v", plain, observed)
	}

	fPlain, err := RunFairness(DefaultFairnessConfig(AgeBased, 5))
	if err != nil {
		t.Fatal(err)
	}
	fCfg := DefaultFairnessConfig(AgeBased, 5)
	fCfg.Obs = obs.New()
	fObs, err := RunFairness(fCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fPlain, fObs) {
		t.Error("fairness run diverged under observation")
	}

	xPlain, err := RunXbarFairness(DefaultXbarFairnessConfig(RoundRobin, 5))
	if err != nil {
		t.Fatal(err)
	}
	xCfg := DefaultXbarFairnessConfig(RoundRobin, 5)
	xCfg.Obs = obs.New()
	xObs, err := RunXbarFairness(xCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(xPlain, xObs) {
		t.Error("xbar fairness run diverged under observation")
	}

	lCfg := DefaultLoadLatencyConfig(RoundRobin, 5)
	lCfg.Rates = []float64{0.1, 0.3}
	lPlain, err := RunLoadLatency(lCfg)
	if err != nil {
		t.Fatal(err)
	}
	lCfg.Obs = obs.New()
	lObs, err := RunLoadLatency(lCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lPlain, lObs) {
		t.Error("load-latency sweep diverged under observation")
	}
}

// Two identically-seeded observed runs must emit byte-identical metrics
// and trace files - the registry-level determinism contract holding
// end-to-end through a full simulator.
func TestObservedGPUSimEmitsDeterministically(t *testing.T) {
	render := func() (string, string) {
		cfg := quickGPUSim(9)
		cfg.Obs = obs.New()
		if _, err := RunGPUSim(cfg); err != nil {
			t.Fatal(err)
		}
		var m, tr bytes.Buffer
		if err := cfg.Obs.WriteMetrics(&m); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Obs.WriteTrace(&tr); err != nil {
			t.Fatal(err)
		}
		return m.String(), tr.String()
	}
	m1, t1 := render()
	m2, t2 := render()
	if m1 != m2 {
		t.Error("metrics differ between identically-seeded observed runs")
	}
	if t1 != t2 {
		t.Error("trace differs between identically-seeded observed runs")
	}
}

// The instruments must agree with the simulators' own aggregates: the
// cross-check that the hooks sit on the right events.
func TestObservedCountsMatchSimulatorAggregates(t *testing.T) {
	reg := obs.New()
	cfg := quickGPUSim(4)
	cfg.Obs = reg.Scope("sim")
	res, err := RunGPUSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served := reg.Scope("sim").Scope("mc").Counter("served").Value()
	// The counter counts all completions including warm-up; the result
	// only counts measured ones, so served >= RequestsServed > 0.
	if served < res.RequestsServed || res.RequestsServed == 0 {
		t.Errorf("mc/served = %d, want >= RequestsServed = %d > 0", served, res.RequestsServed)
	}
	reqPkts := reg.Scope("sim").Scope("req").Counter("eject/packets").Value()
	if reqPkts == 0 {
		t.Error("request mesh ejected no packets under observation")
	}
	repFlits := reg.Scope("sim").Scope("rep").Counter("eject/flits").Value()
	repPkts := reg.Scope("sim").Scope("rep").Counter("eject/packets").Value()
	// The run can stop with packets partially ejected (at most one per
	// sink, wormhole ownership), so flits may exceed packets x ReplyFlits
	// by a bounded remainder.
	delta := repFlits - repPkts*int64(cfg.ReplyFlits)
	maxPartial := int64(cfg.ReplyFlits-1) * int64(cfg.Mesh.Width*cfg.Mesh.Height)
	if repPkts == 0 || delta < 0 || delta > maxPartial {
		t.Errorf("reply mesh flits=%d packets=%d; want packets x %d <= flits <= that + %d",
			repFlits, repPkts, cfg.ReplyFlits, maxPartial)
	}
	// The narrow reply interface is the bottleneck: backpressure events
	// must actually fire in this regime (Fig. 21's whole point).
	if reg.Scope("sim").Scope("mc").Counter("reply_backpressure").Value() == 0 {
		t.Error("no reply backpressure observed in the bottlenecked configuration")
	}

	// Mesh-level cross-check on a standalone mesh: every ejected flit
	// and packet is counted, and occupancy was sampled every cycle.
	mreg := obs.New()
	m, err := NewMesh(MeshConfig{Width: 4, Height: 4, BufferFlits: 4, Arbiter: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(mreg)
	n := m.Nodes()
	for src := 0; src < n; src++ {
		for k := 0; k < 5; k++ {
			if _, err := m.Inject(src, (src+3*k+1)%n, 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Run(400)
	if !m.Drained() {
		t.Fatal("mesh failed to drain")
	}
	var pkts, flits int64
	for i := range m.AcceptedPackets {
		pkts += m.AcceptedPackets[i]
		flits += m.AcceptedFlits[i]
	}
	if got := mreg.Counter("eject/packets").Value(); got != pkts {
		t.Errorf("eject/packets = %d, want %d", got, pkts)
	}
	if got := mreg.Counter("eject/flits").Value(); got != flits {
		t.Errorf("eject/flits = %d, want %d", got, flits)
	}
	if got := mreg.Histogram("buffer_occupancy", nil).Count(); got != 400 {
		t.Errorf("occupancy sampled %d times, want once per cycle = 400", got)
	}
	if mreg.Tracer() == nil {
		t.Fatal("mesh scope has no tracer")
	}
}
