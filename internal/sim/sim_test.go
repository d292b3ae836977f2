package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/window"
)

const (
	typeA = event.Type(0)
	typeB = event.Type(1)
)

func testOperator(t *testing.T, shed operator.Decider) *operator.Operator {
	t.Helper()
	p := pattern.MustCompile(pattern.Pattern{
		Name: "seq(A;B)",
		Steps: []pattern.Step{
			{Types: []event.Type{typeA}},
			{Types: []event.Type{typeB}},
		},
	})
	op, err := operator.New(operator.Config{
		Window:   window.Spec{Mode: window.ModeCount, Count: 10, Slide: 10},
		Patterns: []*pattern.Compiled{p},
		Shedder:  shed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func mkStream(n int, ratePerSec float64) []event.Event {
	out := make([]event.Event, n)
	for i := range out {
		out[i] = event.Event{
			Seq:  uint64(i),
			Type: event.Type(i % 2),
			TS:   event.Time(float64(i) / ratePerSec * float64(event.Second)),
		}
	}
	return out
}

func TestRunValidation(t *testing.T) {
	op := testOperator(t, nil)
	if _, err := Run(Config{Rate: 0, Throughput: 1}, nil, op, nil); err == nil {
		t.Error("Rate=0 must fail")
	}
	if _, err := Run(Config{Rate: 1, Throughput: 0}, nil, op, nil); err == nil {
		t.Error("Throughput=0 must fail")
	}
	if _, err := Run(Config{Rate: 1, Throughput: 1}, nil, nil, nil); err == nil {
		t.Error("nil operator must fail")
	}
	det, _ := core.NewOverloadDetector(core.DetectorConfig{LatencyBound: event.Second, F: 0.8})
	if _, err := Run(Config{Rate: 1, Throughput: 1, Detector: det}, nil, op, nil); err == nil {
		t.Error("detector without controller must fail")
	}
	if _, err := Run(Config{Rate: 1, Throughput: 1, ShedOverheadFrac: -1}, nil, op, nil); err == nil {
		t.Error("negative overhead must fail")
	}
}

func TestRunEmptyStream(t *testing.T) {
	op := testOperator(t, nil)
	res, err := Run(Config{Rate: 100, Throughput: 100}, nil, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 0 || len(res.Complex) != 0 {
		t.Errorf("empty stream result: %+v", res)
	}
}

func TestUnderloadedLatencyBounded(t *testing.T) {
	// R < th: queue never builds, latency stays near l(p).
	op := testOperator(t, nil)
	events := mkStream(2000, 100)
	res, err := Run(Config{
		Rate: 100, Throughput: 200, RecordLatency: true,
	}, events, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 2000 {
		t.Fatalf("served = %d", res.Served)
	}
	if res.MaxQueue > 2 {
		t.Errorf("MaxQueue = %d, want <= 2 when underloaded", res.MaxQueue)
	}
	// l(p) = 1/200 = 5ms.
	if res.Latency.Max() > 20*event.Millisecond {
		t.Errorf("max latency = %v, want ~5ms", res.Latency.Max())
	}
	// Complex events detected (stream alternates A,B: every window matches).
	if len(res.Complex) != 200 {
		t.Errorf("complex = %d, want 200", len(res.Complex))
	}
}

func TestOverloadWithoutSheddingQueueGrows(t *testing.T) {
	op := testOperator(t, nil)
	events := mkStream(5000, 100)
	res, err := Run(Config{
		Rate: 120, Throughput: 100, RecordLatency: true,
	}, events, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 5000 events at +20% overload: backlog ≈ (1/100-1/120)*5000... the
	// queue grows roughly linearly to ~ 5000*(1 - 100/120) ≈ 833.
	if res.MaxQueue < 500 {
		t.Errorf("MaxQueue = %d, want substantial backlog", res.MaxQueue)
	}
	// Latency far exceeds 1s near the end: backlog/th ≈ 8s.
	if res.Latency.Max() < 2*event.Second {
		t.Errorf("max latency = %v, want >> 1s without shedding", res.Latency.Max())
	}
}

// fracShedder drops a fixed fraction of memberships, deterministically.
type fracShedder struct {
	num, den int
	count    int
	active   bool
}

func (f *fracShedder) DropCounted(window.ID, event.Type, int, int) (bool, bool) {
	if !f.active {
		return false, false
	}
	f.count++
	return f.count%f.den < f.num, true
}

func (f *fracShedder) TallyDecisions(uint64, uint64) {}

func (f *fracShedder) Active() bool { return f.active }

// fracController activates the shedder on overload decisions.
type fracController struct{ s *fracShedder }

func (c *fracController) OnDecision(dec core.Decision) { c.s.active = dec.Overloaded }

func TestOverloadWithSheddingHoldsLatencyBound(t *testing.T) {
	// R = 120, th = 100 (+20%): shedding ~1/3 of memberships more than
	// compensates; the detector toggles shedding around f*qmax and the
	// latency bound LB=1s must hold.
	shed := &fracShedder{num: 1, den: 3}
	op := testOperator(t, shed)
	det, err := core.NewOverloadDetector(core.DetectorConfig{
		LatencyBound: event.Second, F: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := mkStream(12000, 100)
	res, err := Run(Config{
		Rate: 120, Throughput: 100,
		Detector: det, RecordLatency: true,
	}, events, op, &fracController{s: shed})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Latency.ViolationCount(event.Second); v != 0 {
		t.Errorf("latency bound violated %d times; max=%v", v, res.Latency.Max())
	}
	// qmax = 100 events; the queue must have been held near the trigger
	// (80) rather than growing unboundedly.
	if res.MaxQueue > 100 {
		t.Errorf("MaxQueue = %d, want <= qmax 100", res.MaxQueue)
	}
	if res.MaxQueue < 60 {
		t.Errorf("MaxQueue = %d, want near trigger 80 (shedding kicked in too early?)", res.MaxQueue)
	}
	st := op.Stats()
	if st.MembershipsShed == 0 {
		t.Error("no memberships were shed")
	}
}

func TestSheddingReducesServiceDemand(t *testing.T) {
	// With all memberships shed, service cost collapses to the LS
	// overhead and the queue drains even under extreme overload.
	shed := &fracShedder{num: 1, den: 1, active: true}
	op := testOperator(t, shed)
	events := mkStream(3000, 100)
	res, err := Run(Config{
		Rate: 1000, Throughput: 100, RecordLatency: true,
		ShedOverheadFrac: 0.01,
	}, events, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each event costs 0.01 * l(p) = 0.1ms, well under the 1ms arrival
	// spacing: no queueing.
	if res.Latency.Max() > 10*event.Millisecond {
		t.Errorf("max latency = %v, want tiny when everything is shed", res.Latency.Max())
	}
	if len(res.Complex) != 0 {
		t.Errorf("complex = %d, want 0 (all shed)", len(res.Complex))
	}
}

func TestMembershipFactorScalesService(t *testing.T) {
	// Overlapping windows (slide 5 of count 10) double the memberships;
	// with MembershipFactor=2 the effective throughput matches th again.
	p := pattern.MustCompile(pattern.Pattern{
		Name:  "anyA",
		Steps: []pattern.Step{{Types: []event.Type{typeA}}},
	})
	op, err := operator.New(operator.Config{
		Window:   window.Spec{Mode: window.ModeCount, Count: 10, Slide: 5},
		Patterns: []*pattern.Compiled{p},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := mkStream(4000, 100)
	res, err := Run(Config{
		Rate: 100, Throughput: 100, MembershipFactor: 2, RecordLatency: true,
	}, events, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueue > 4 {
		t.Errorf("MaxQueue = %d: membership factor not applied", res.MaxQueue)
	}
}

func TestReplayUnshed(t *testing.T) {
	op := testOperator(t, nil)
	events := mkStream(100, 100)
	out, err := ReplayUnshed(events, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Errorf("complex = %d, want 10", len(out))
	}
	if _, err := ReplayUnshed(events, nil); err == nil {
		t.Error("nil operator must fail")
	}
	if out, err := ReplayUnshed(nil, testOperator(t, nil)); err != nil || len(out) != 0 {
		t.Errorf("empty replay: %v %v", out, err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		shed := &fracShedder{num: 1, den: 3}
		op := testOperator(t, shed)
		det, _ := core.NewOverloadDetector(core.DetectorConfig{LatencyBound: event.Second, F: 0.8})
		events := mkStream(5000, 100)
		res, err := Run(Config{
			Rate: 120, Throughput: 100, Detector: det, RecordLatency: true,
		}, events, op, &fracController{s: shed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Served != b.Served || a.MaxQueue != b.MaxQueue || len(a.Complex) != len(b.Complex) {
		t.Error("simulation must be deterministic")
	}
	if a.Latency.Max() != b.Latency.Max() || a.WallEnd != b.WallEnd {
		t.Error("latency trace must be deterministic")
	}
}
