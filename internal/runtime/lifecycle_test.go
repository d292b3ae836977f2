package runtime

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/window"
)

// lcQuery is a 2-type seq(A;B) query over tumbling count windows.
func lcQuery(t testing.TB, count int) queries.Query {
	t.Helper()
	p, err := pattern.Compile(pattern.Pattern{
		Name:  "seq(A;B)",
		Steps: []pattern.Step{{Types: []event.Type{0}}, {Types: []event.Type{1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return queries.Query{
		Name:     "lc",
		Window:   window.Spec{Mode: window.ModeCount, Count: count, Slide: count},
		Patterns: []*pattern.Compiled{p},
		NumTypes: 2,
	}
}

func lcEvents(n int) []event.Event {
	events := make([]event.Event, n)
	for i := range events {
		events[i] = event.Event{Seq: uint64(i), TS: event.Time(i), Type: event.Type(i % 2)}
	}
	return events
}

// TestLifecycleShardMergeEquivalence: the per-shard tap builders, merged,
// must produce exactly the model a single offline builder produces on the
// same stream — shard distribution must not change what is learned.
func TestLifecycleShardMergeEquivalence(t *testing.T) {
	q := lcQuery(t, 20)
	events := lcEvents(4000)

	um, err := core.NewUntrainedModel(2, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	shed, err := core.NewShedder(um)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Operator: operator.Config{Window: q.Window, Patterns: q.Patterns, Shedder: shed},
		Shards:   4,
		Lifecycle: &LifecycleConfig{
			Types: 2,
			// Warm-up far beyond the stream: no mid-run build drains the
			// taps, so at the end they hold the full stream's statistics.
			WarmupWindows: 1 << 30,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	go func() {
		for range p.Out() {
		}
	}()
	p.SubmitBatch(events)
	p.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	l := p.Lifecycle()
	if l == nil {
		t.Fatal("lifecycle missing")
	}
	if got := l.Stats().Builds; got != 0 {
		t.Fatalf("unexpected build during warm-up hold: %d", got)
	}
	merged, err := core.NewModelBuilder(l.bcfg)
	if err != nil {
		t.Fatal(err)
	}
	var sampled uint64
	for _, tap := range l.taps {
		sampled += tap.WindowsSampled()
		if err := tap.DrainInto(merged); err != nil {
			t.Fatal(err)
		}
	}
	if sampled == 0 {
		t.Fatal("taps sampled nothing")
	}
	got, err := merged.Build()
	if err != nil {
		t.Fatal(err)
	}

	tr, err := harness.Train(q, events, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Model
	if got.Windows() != want.Windows() || got.Matches() != want.Matches() {
		t.Fatalf("coverage: merged %d/%d vs single %d/%d",
			got.Windows(), got.Matches(), want.Windows(), want.Matches())
	}
	for typ := 0; typ < 2; typ++ {
		for b := 0; b < want.UT().Bins(); b++ {
			if got.UT().At(event.Type(typ), b) != want.UT().At(event.Type(typ), b) {
				t.Errorf("UT[%d][%d]: merged %d vs single %d", typ, b,
					got.UT().At(event.Type(typ), b), want.UT().At(event.Type(typ), b))
			}
			if got.Share(event.Type(typ), b) != want.Share(event.Type(typ), b) {
				t.Errorf("share[%d][%d]: merged %v vs single %v", typ, b,
					got.Share(event.Type(typ), b), want.Share(event.Type(typ), b))
			}
		}
	}
}

// TestLifecycleComesOnlineLive: a pipeline registered with an untrained
// shedder trains itself from live traffic and swaps the model in, losing
// no events — in both deployment modes.
func TestLifecycleComesOnlineLive(t *testing.T) {
	harness.VerifyNoLeaks(t)
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "serial", 4: "sharded"}[shards], func(t *testing.T) {
			q := lcQuery(t, 10)
			events := lcEvents(20000)
			um, err := core.NewUntrainedModel(2, 10, 0)
			if err != nil {
				t.Fatal(err)
			}
			shed, err := core.NewShedder(um)
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(Config{
				Operator: operator.Config{Window: q.Window, Patterns: q.Patterns, Shedder: shed},
				Shards:   shards,
				Lifecycle: &LifecycleConfig{
					Types:              2,
					WarmupWindows:      16,
					MinRetrainInterval: time.Millisecond,
					Interval:           time.Millisecond,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- p.Run(context.Background()) }()
			ces := 0
			collected := make(chan struct{})
			go func() {
				defer close(collected)
				for range p.Out() {
					ces++
				}
			}()
			p.SubmitBatch(events)
			p.CloseInput()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			<-collected

			st := p.Stats()
			if st.Processed != uint64(len(events)) {
				t.Errorf("processed %d of %d events", st.Processed, len(events))
			}
			if ces == 0 {
				t.Error("no complex events emitted")
			}
			if st.Lifecycle == nil {
				t.Fatal("lifecycle stats missing")
			}
			if !st.Lifecycle.Trained || st.Lifecycle.Builds == 0 {
				t.Errorf("lifecycle never came online: %+v", *st.Lifecycle)
			}
			if m := shed.Model(); m == nil || !m.Trained() {
				t.Error("shedder still holds the untrained model")
			}
			if err := p.Retrain(); err != nil {
				t.Errorf("Retrain after run: %v", err)
			}
		})
	}
}

// rtlsPhases generates the drifting workload of the adaptive example:
// two RTLS phases whose man-marking lags differ — a concept drift in the
// (type, position) correlation the model learns.
func rtlsPhases(t *testing.T, seconds int) (queries.Query, phaseData, phaseData) {
	t.Helper()
	metaA, phaseA, err := datasets.GenerateRTLS(datasets.RTLSConfig{
		DurationSec: seconds, Seed: 5,
		DefendLagMin: 1, DefendLagMax: 4, MarkersPerStriker: 8,
		NoiseDefendProb: 0.02, MarkerDefendProb: 0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, phaseB, err := datasets.GenerateRTLS(datasets.RTLSConfig{
		DurationSec: seconds, Seed: 6,
		DefendLagMin: 7, DefendLagMax: 12, MarkersPerStriker: 8,
		NoiseDefendProb: 0.02, MarkerDefendProb: 0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := queries.Q1(metaA, 3, pattern.SelectFirst, 15)
	if err != nil {
		t.Fatal(err)
	}
	trainA, evalA := harness.SplitHalf(phaseA)
	trainB, evalB := harness.SplitHalf(phaseB)
	return q, phaseData{trainA, evalA}, phaseData{trainB, evalB}
}

type phaseData struct{ train, eval []event.Event }

// feedTap replays events unshed through the query's operator with the
// tap as close hook, returning the membership factor.
func feedTap(t *testing.T, q queries.Query, tap *operator.FeedbackTap, events []event.Event) float64 {
	t.Helper()
	op, err := operator.New(operator.Config{
		Window:        q.Window,
		Patterns:      q.Patterns,
		OnWindowClose: tap.OnWindowClose,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		op.Process(e)
	}
	if len(events) > 0 {
		op.Flush(events[len(events)-1].TS)
	}
	st := op.Stats()
	if st.EventsProcessed == 0 {
		return 1
	}
	return float64(st.Memberships) / float64(st.EventsProcessed)
}

// evalFP runs the harness quality experiment for a model on the given
// eval segment and returns the false-positive percentage.
func evalFP(t *testing.T, q queries.Query, model *core.Model, factor float64, eval []event.Event) float64 {
	t.Helper()
	res, err := harness.EvalWithModel(harness.RunConfig{
		Query:          q,
		Eval:           eval,
		OverloadFactor: 1.2,
	}, &harness.TrainResult{Model: model, MembershipFactor: factor}, harness.ShedESPICE)
	if err != nil {
		t.Fatal(err)
	}
	return res.Quality.FPPct()
}

// TestLifecycleDriftRetrainRecovery drives the lifecycle state machine
// deterministically through the paper's future-work scenario: train in
// flight on phase-1 traffic, detect the drift when the marking lags
// shift, recollect on post-shift traffic, and swap the retrained model
// in. The retrained model must recover most of the quality (harness
// false-positive metric) of a model freshly trained on the shifted
// distribution, while the frozen phase-1 model does not. Each phase is
// an hour of play: a 15-minute eval holds 39 complex events, too few for
// the frozen model's damage to stand above the at-threshold coin.
func TestLifecycleDriftRetrainRecovery(t *testing.T) {
	harness.VerifyNoLeaks(t)
	q, a, b := rtlsPhases(t, 3600)

	um, err := core.NewUntrainedModel(q.NumTypes, q.Window.SizeHint, 0)
	if err != nil {
		t.Fatal(err)
	}
	shed, err := core.NewShedder(um)
	if err != nil {
		t.Fatal(err)
	}
	l, err := newLifecycle(LifecycleConfig{
		Types:              q.NumTypes,
		WarmupWindows:      32,
		MinRetrainInterval: time.Nanosecond,
		Drift:              &core.DriftConfig{},
	}, shed, q.Window)
	if err != nil {
		t.Fatal(err)
	}
	tap, err := l.newTap()
	if err != nil {
		t.Fatal(err)
	}

	now := time.Unix(0, 0)
	tick := func() bool { now = now.Add(time.Second); return l.step(now) }

	// Phase 1: online training from unshed traffic; first build swaps in.
	factor := feedTap(t, q, tap, a.train)
	if !tick() {
		t.Fatal("initial build did not happen")
	}
	frozen := shed.Model()
	if frozen == nil || !frozen.Trained() {
		t.Fatal("initial model not swapped into the shedder")
	}
	if st := l.Stats(); !st.Trained || st.Builds != 1 {
		t.Fatalf("after initial build: %+v", st)
	}

	// Stable phase-1 traffic must not alarm.
	feedTap(t, q, tap, a.eval)
	if tick() {
		t.Fatal("rebuilt without drift or request")
	}
	if got := l.Stats().DriftAlarms; got != 0 {
		t.Fatalf("false drift alarm on stable traffic: %d", got)
	}

	// Phase 2: the lag shift must raise the alarm; the step discards the
	// stale statistics and recollects from post-shift traffic only.
	feedTap(t, q, tap, b.train)
	tick()
	if got := l.Stats().DriftAlarms; got != 1 {
		t.Fatalf("drift alarm count = %d, want 1", got)
	}
	feedTap(t, q, tap, b.train)
	if !tick() {
		t.Fatal("retrain did not happen after recollection")
	}
	retrained := shed.Model()
	if retrained == frozen {
		t.Fatal("model not re-swapped")
	}
	if st := l.Stats(); st.Builds != 2 || st.Collecting {
		t.Fatalf("after retrain: %+v", st)
	}

	// Quality: on post-shift traffic, the retrained model must recover
	// >= 90% of the FP-quality gap a fresh post-shift model closes over
	// the frozen one.
	fresh, err := harness.Train(q, b.train, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The default lifecycle bins its table exactly as offline training.
	if got, want := retrained.UT().BinSize(), fresh.Model.UT().BinSize(); got != want {
		t.Errorf("retrained bin size = %d, offline = %d", got, want)
	}
	fpFrozen := evalFP(t, q, frozen, factor, b.eval)
	fpRetrained := evalFP(t, q, retrained, factor, b.eval)
	fpFresh := evalFP(t, q, fresh.Model, fresh.MembershipFactor, b.eval)
	t.Logf("FP%% on shifted eval: frozen=%.2f retrained=%.2f fresh=%.2f",
		fpFrozen, fpRetrained, fpFresh)
	if fpFrozen <= fpFresh {
		t.Fatalf("workload does not exhibit drift damage: frozen %.2f <= fresh %.2f", fpFrozen, fpFresh)
	}
	recovery := (fpFrozen - fpRetrained) / (fpFrozen - fpFresh)
	if recovery < 0.9 {
		t.Errorf("retrain recovered only %.0f%% of the FP gap (frozen %.2f, retrained %.2f, fresh %.2f)",
			100*recovery, fpFrozen, fpRetrained, fpFresh)
	}
}

// TestLifecycleExplicitRetrainKeepsStats: Retrain rebuilds from the
// statistics already accumulated (no discard), as soon as warm.
func TestLifecycleExplicitRetrainKeepsStats(t *testing.T) {
	harness.VerifyNoLeaks(t)
	q := lcQuery(t, 10)
	um, err := core.NewUntrainedModel(2, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	shed, err := core.NewShedder(um)
	if err != nil {
		t.Fatal(err)
	}
	l, err := newLifecycle(LifecycleConfig{
		Types:              2,
		WarmupWindows:      4,
		MinRetrainInterval: time.Nanosecond,
	}, shed, q.Window)
	if err != nil {
		t.Fatal(err)
	}
	tap, err := l.newTap()
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	feedTap(t, q, tap, lcEvents(200))
	if !l.step(now) {
		t.Fatal("initial build missing")
	}
	first := shed.Model()

	// No drift config, no request: nothing happens.
	feedTap(t, q, tap, lcEvents(200))
	now = now.Add(time.Second)
	if l.step(now) {
		t.Fatal("spontaneous rebuild")
	}
	l.Retrain()
	now = now.Add(time.Second)
	if !l.step(now) {
		t.Fatal("explicit retrain did not rebuild")
	}
	if shed.Model() == first {
		t.Error("model unchanged after explicit retrain")
	}
	if first.Windows() == 0 || shed.Model().Windows() == 0 {
		t.Error("models carry no coverage")
	}
}
