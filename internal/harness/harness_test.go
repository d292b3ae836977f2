package harness

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/window"
)

// testScale keeps unit-test runtime low.
func testScale() Scale {
	s := QuickScale()
	s.NYSEMinutes = 40
	s.RTLSSeconds = 900
	return s
}

func TestShedderKindString(t *testing.T) {
	if ShedESPICE.String() != "eSPICE" || ShedBL.String() != "BL" ||
		ShedRandom.String() != "random" || ShedNone.String() != "none" {
		t.Error("names wrong")
	}
	if ShedderKind(9).String() != "shedder(9)" {
		t.Error("fallback wrong")
	}
}

func TestTrainProducesUsableModel(t *testing.T) {
	s := testScale()
	meta, train, _, err := RTLSWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	q, err := queries.Q1(meta, 4, pattern.SelectFirst, 15)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Train(q, train, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Model.Trained() {
		t.Fatal("model untrained")
	}
	if tr.Windows == 0 || tr.Matches == 0 {
		t.Fatalf("training coverage: %d windows, %d matches", tr.Windows, tr.Matches)
	}
	if tr.MembershipFactor <= 0 {
		t.Fatalf("membership factor = %v", tr.MembershipFactor)
	}
	// Striker types must carry utility at position 0 (window opener).
	ut := tr.Model.UT()
	if ut.Utility(meta.StrikerA, 0, tr.Model.N()) == 0 &&
		ut.Utility(meta.StrikerB, 0, tr.Model.N()) == 0 {
		t.Error("strikers should have nonzero utility at the window head")
	}
	// Training errors.
	if _, err := Train(q, nil, 1, 0); err == nil {
		t.Error("empty training stream must fail")
	}
}

func TestQ1ESPICEBeatsBL(t *testing.T) {
	s := testScale()
	meta, train, eval, err := RTLSWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	q, err := queries.Q1(meta, 4, pattern.SelectFirst, 15)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Query: q, Train: train, Eval: eval,
		OverloadFactor: 1.2, Throughput: s.Throughput, Seed: 1,
	}
	es, err := RunExperiment(cfg, ShedESPICE)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := RunExperiment(cfg, ShedBL)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Q1 n=4 R1: eSPICE %v | BL %v", es.Quality, bl.Quality)
	t.Logf("shed fractions: eSPICE %.3f, BL %.3f", es.ShedFraction, bl.ShedFraction)
	if es.Quality.Truth == 0 {
		t.Fatal("no ground truth complex events")
	}
	if es.Quality.FNPct() >= bl.Quality.FNPct() {
		t.Errorf("eSPICE FN %.1f%% should beat BL FN %.1f%%",
			es.Quality.FNPct(), bl.Quality.FNPct())
	}
	// Both shed roughly the overload excess (1 - th/R ≈ 16.7%).
	if es.ShedFraction < 0.05 || es.ShedFraction > 0.4 {
		t.Errorf("eSPICE shed fraction %.3f out of plausible range", es.ShedFraction)
	}
}

func TestQ3ESPICENearZeroFN(t *testing.T) {
	s := testScale()
	meta, train, eval, err := NYSEWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	q, err := queries.Q3(meta, pattern.SelectFirst, 600)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Query: q, Train: train, Eval: eval,
		OverloadFactor: 1.4, Throughput: s.Throughput, Seed: 1,
	}
	es, err := RunExperiment(cfg, ShedESPICE)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := RunExperiment(cfg, ShedBL)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Q3 ws=600 R2: eSPICE %v | BL %v", es.Quality, bl.Quality)
	if es.Quality.Truth == 0 {
		t.Fatal("no ground truth for Q3")
	}
	if es.Quality.FNPct() > 10 {
		t.Errorf("eSPICE FN = %.1f%%, want near zero for the sequence operator", es.Quality.FNPct())
	}
	if bl.Quality.FNPct() < 20 {
		t.Errorf("BL FN = %.1f%%, expected high for fragile 20-step sequences", bl.Quality.FNPct())
	}
}

func TestLatencyBoundHeld(t *testing.T) {
	s := testScale()
	meta, train, eval, err := RTLSWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	q, err := queries.Q1(meta, 5, pattern.SelectFirst, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{1.2, 1.4} {
		res, err := RunExperiment(RunConfig{
			Query: q, Train: train, Eval: eval,
			OverloadFactor: rate, Throughput: s.Throughput,
			Seed: 1, RecordLatency: true,
		}, ShedESPICE)
		if err != nil {
			t.Fatal(err)
		}
		viol := res.Latency.ViolationCount(event.Second)
		t.Logf("rate %.1f: max latency %v, mean %v, max queue %d",
			rate, res.Latency.Max(), res.Latency.Mean(), res.MaxQueue)
		if viol != 0 {
			t.Errorf("rate %.1f: %d latency-bound violations (max %v)", rate, viol, res.Latency.Max())
		}
	}
}

func TestNoSheddingViolatesLatency(t *testing.T) {
	s := testScale()
	meta, train, eval, err := RTLSWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	q, err := queries.Q1(meta, 4, pattern.SelectFirst, 15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunExperiment(RunConfig{
		Query: q, Train: train, Eval: eval,
		OverloadFactor: 1.4, Throughput: s.Throughput,
		Seed: 1, RecordLatency: true,
	}, ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.ViolationCount(event.Second) == 0 {
		t.Error("without shedding, a 40% overload must violate the latency bound")
	}
	if res.Quality.FNPct() != 0 {
		t.Errorf("no shedding loses no events: FN = %v", res.Quality.FNPct())
	}
}

func TestEvalWithModelValidation(t *testing.T) {
	if _, err := EvalWithModel(RunConfig{}, nil, ShedESPICE); err == nil {
		t.Error("nil training result must fail")
	}
	if _, err := RunExperiment(RunConfig{}, ShedESPICE); err == nil {
		t.Error("empty config must fail")
	}
}

func TestRunningExample(t *testing.T) {
	out, err := RunningExample()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"O(  0) = 1.2", "O( 10) = 2.3", "u_th = 10"} {
		if !strings.Contains(out, want) {
			t.Errorf("running example output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{
		ID: "X", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{3.5, 4}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{5}},
		},
		Notes: []string{"hello"},
	}
	out := f.Render()
	for _, want := range []string{"=== X: t ===", "a", "b", "3.50", "hello", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	empty := &Figure{ID: "E", Title: "none"}
	if !strings.Contains(empty.Render(), "(no data)") {
		t.Error("empty figure should render placeholder")
	}
}

func TestMeasureShedderOverhead(t *testing.T) {
	fig, err := MeasureShedderOverhead([]int{100, 1000}, 50, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || len(fig.Series[0].Y) != 2 {
		t.Fatalf("series shape: %+v", fig.Series)
	}
	for i, y := range fig.Series[0].Y {
		if y <= 0 || y > 100 {
			t.Errorf("overhead[%d] = %v%%, implausible", i, y)
		}
	}
}

// TestHookRetentionCaught enforces the window-pool retention contract:
// an OnWindowClose hook that holds on to a closed window past its return
// finds it detached (Size 0, no entries) once the operator recycles it —
// the violation surfaces as an empty window here instead of silent
// aliasing in production. The model builder obeys the contract by
// copying (deferred mode) or reading synchronously.
func TestHookRetentionCaught(t *testing.T) {
	p := pattern.MustCompile(pattern.Pattern{
		Name:  "any",
		Steps: []pattern.Step{{}},
	})
	var retained []*window.Window
	op, err := operator.New(operator.Config{
		Window:   window.Spec{Mode: window.ModeCount, Count: 4, Slide: 4},
		Patterns: []*pattern.Compiled{p},
		OnWindowClose: func(w *window.Window, matched []window.Entry) {
			if w.Size() != 4 || w.Entries().Len() != 4 {
				t.Errorf("hook saw a window of size %d with %d entries, want 4 and 4",
					w.Size(), w.Entries().Len())
			}
			retained = append(retained, w) // contract violation
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]event.Event, 32)
	for i := range events {
		events[i] = event.Event{Seq: uint64(i + 1), TS: event.Time(i)}
	}
	if _, err := sim.ReplayUnshed(events, op); err != nil {
		t.Fatal(err)
	}
	if len(retained) < 2 {
		t.Fatalf("retained %d windows, want >= 2", len(retained))
	}
	for i, w := range retained {
		if w.Size() != 0 || w.Entries().Len() != 0 {
			t.Fatalf("retained window %d still reads size %d with %d entries; the retention contract is unenforced",
				i, w.Size(), w.Entries().Len())
		}
	}
}
