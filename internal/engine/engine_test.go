package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/window"
)

// numTypes is the synthetic registry size used throughout these tests;
// query i matches the type pair (2i, 2i+1).
const numTypes = 8

// pairQuery builds a seq(A;B) query over the type pair (2i, 2i+1) with a
// tumbling time window.
func pairQuery(tb testing.TB, i int) queries.Query {
	tb.Helper()
	a, b := event.Type(2*i), event.Type(2*i+1)
	p, err := pattern.Compile(pattern.Pattern{
		Name: fmt.Sprintf("pair%d", i),
		Steps: []pattern.Step{
			{Types: []event.Type{a}},
			{Types: []event.Type{b}},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return queries.Query{
		Name: fmt.Sprintf("pair%d", i),
		Window: window.Spec{
			Mode:      window.ModeTime,
			Length:    64 * event.Millisecond,
			SlideTime: 64 * event.Millisecond,
			SizeHint:  16,
		},
		Patterns: []*pattern.Compiled{p},
		NumTypes: numTypes,
	}
}

// syntheticStream emits n events cycling through the registry at one
// event per virtual millisecond.
func syntheticStream(n int) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{
			Seq:  uint64(i),
			TS:   event.Time(i) * event.Millisecond,
			Type: event.Type(i % numTypes),
		}
	}
	return evs
}

// runStandalone replays events through a fresh standalone pipeline and
// returns the detected complex events.
func runStandalone(tb testing.TB, q queries.Query, events []event.Event) []operator.ComplexEvent {
	tb.Helper()
	out, _ := runStandaloneShed(tb, q, nil, events)
	return out
}

// runStandaloneShed is runStandalone under a shedding decider; it also
// returns the pipeline's counters.
func runStandaloneShed(tb testing.TB, q queries.Query, shed operator.Decider, events []event.Event) ([]operator.ComplexEvent, runtime.Stats) {
	tb.Helper()
	pipe, err := runtime.New(runtime.Config{
		Operator: operator.Config{Window: q.Window, Patterns: q.Patterns, Shedder: shed},
	})
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- pipe.Run(context.Background()) }()
	var out []operator.ComplexEvent
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for ce := range pipe.Out() {
			out = append(out, ce)
		}
	}()
	pipe.SubmitBatch(events)
	pipe.CloseInput()
	if err := <-done; err != nil {
		tb.Fatal(err)
	}
	<-collected
	return out, pipe.Stats()
}

func TestTypeFilter(t *testing.T) {
	q := pairQuery(t, 1) // types 2, 3
	f := typeFilter(q)
	for typ := 0; typ < numTypes; typ++ {
		want := typ == 2 || typ == 3
		if f[typ] != want {
			t.Errorf("filter[%d] = %v, want %v", typ, f[typ], want)
		}
	}

	wild, err := pattern.Compile(pattern.Pattern{
		Name:  "wild",
		Steps: []pattern.Step{{Types: []event.Type{0}}, {AnyN: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wq := queries.Query{Name: "w", Window: q.Window,
		Patterns: []*pattern.Compiled{wild}, NumTypes: numTypes}
	if typeFilter(wq) != nil {
		t.Error("wildcard step must disable the filter")
	}
}

func TestDistributeBudget(t *testing.T) {
	// Proportional split, no caps hit.
	got := distributeBudget(90, []float64{1, 2}, []float64{1000, 1000})
	if math.Abs(got[0]-30) > 1e-9 || math.Abs(got[1]-60) > 1e-9 {
		t.Errorf("proportional split = %v, want [30 60]", got)
	}
	// Cap on the expensive query redistributes to the cheap one.
	got = distributeBudget(90, []float64{1, 2}, []float64{1000, 40})
	if math.Abs(got[1]-40) > 1e-9 || math.Abs(got[0]-50) > 1e-9 {
		t.Errorf("capped split = %v, want [50 40]", got)
	}
	// Zero-cost entries get nothing even under pressure.
	got = distributeBudget(90, []float64{0, 1}, []float64{1000, 1000})
	if got[0] != 0 || math.Abs(got[1]-90) > 1e-9 {
		t.Errorf("zero-cost split = %v, want [0 90]", got)
	}
	// Total demand above total capacity: everyone capped, no panic.
	got = distributeBudget(90, []float64{1, 1}, []float64{10, 20})
	if got[0] != 10 || got[1] != 20 {
		t.Errorf("over-capacity split = %v, want [10 20]", got)
	}
}

// TestEngineEquivalence is the deterministic end-to-end check: each
// query's output under the engine is identical to running its pipeline
// standalone on the query's filtered stream. Two inputs: three unshed
// serial queries, and one query on two shards whose eSPICE shedder is
// held at a fixed drop amount whose border coin decides every A — there
// the engine must also shed what the standalone run sheds, and a second
// engine run exactly as much again.
func TestEngineEquivalence(t *testing.T) {
	harness.VerifyNoLeaks(t)
	events := syntheticStream(4096)
	for _, tc := range []struct {
		name   string
		nq     int
		model  *core.Model
		shards int
	}{
		{"unshed", 3, nil, 1},
		{"shedding/shards=2", 1, borderModel(t), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfgs := make([]QueryConfig, tc.nq)
			for i := range cfgs {
				cfgs[i] = QueryConfig{Query: pairQuery(t, i), Model: tc.model, Shards: tc.shards}
			}
			outs, handles, st := runEngine(t, cfgs, events)
			for i, h := range handles {
				filtered := h.FilterEvents(events)
				if want := len(events) / (numTypes / 2); len(filtered) != want {
					t.Fatalf("query %d filtered stream has %d events, want %d", i, len(filtered), want)
				}
				var shed operator.Decider
				if tc.model != nil {
					shed = borderShedder(t, tc.model)
				}
				want, wst := runStandaloneShed(t, pairQuery(t, i), shed, filtered)
				if len(want) == 0 {
					t.Fatalf("query %d standalone run detected nothing; test is vacuous", i)
				}
				if !reflect.DeepEqual(outs[i], want) {
					t.Errorf("query %d: engine output diverges from standalone:\n got %d events\nwant %d events",
						i, len(outs[i]), len(want))
					continue
				}
				// Byte-identical under the canonical complex-event rendering.
				if fmt.Sprint(outs[i]) != fmt.Sprint(want) {
					t.Errorf("query %d: rendered outputs differ", i)
				}
				got := h.Pipeline().Stats().Operator
				if got.MembershipsShed != wst.Operator.MembershipsShed {
					t.Errorf("query %d: engine shed %d memberships, standalone %d", i, got.MembershipsShed, wst.Operator.MembershipsShed)
				}
				if tc.model != nil && (wst.Operator.MembershipsShed == 0 || wst.Operator.MembershipsKept == 0) {
					t.Errorf("query %d: fixed-state shedder split memberships %+v; want both kept and shed", i, wst.Operator)
				}
			}
			if tc.model != nil {
				_, again, _ := runEngine(t, cfgs, events)
				if a, b := again[0].Pipeline().Stats().Operator, handles[0].Pipeline().Stats().Operator; a != b {
					t.Errorf("second engine run counted %+v, first %+v", a, b)
				}
			}

			if st.Submitted != uint64(len(events)) {
				t.Errorf("Submitted = %d, want %d", st.Submitted, len(events))
			}
			perQuery := uint64(len(events) / (numTypes / 2))
			for _, qs := range st.Queries {
				if qs.Delivered != perQuery {
					t.Errorf("query %s delivered %d, want %d", qs.Name, qs.Delivered, perQuery)
				}
				if qs.Skipped != uint64(len(events))-perQuery {
					t.Errorf("query %s skipped %d, want %d", qs.Name, qs.Skipped, uint64(len(events))-perQuery)
				}
			}
		})
	}
}

// runEngine registers cfgs on a fresh budget-free engine, holds every
// query's shedder at borderShedder's state, replays events and returns
// each query's output, the handles and the engine's counters.
func runEngine(t *testing.T, cfgs []QueryConfig, events []event.Event) ([][]operator.ComplexEvent, []*Query, Stats) {
	t.Helper()
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Query, len(cfgs))
	for i, cfg := range cfgs {
		h, err := e.Register(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if h.shedder != nil {
			if err := h.shedder.Configure(borderPart, borderX); err != nil {
				t.Fatal(err)
			}
		}
		handles[i] = h
	}
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()
	outs := make([][]operator.ComplexEvent, len(cfgs))
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *Query) {
			defer wg.Done()
			for ce := range h.Out() {
				outs[i] = append(outs[i], ce)
			}
		}(i, h)
	}
	e.SubmitBatch(events)
	e.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return outs, handles, e.Stats()
}

// borderModel is a trained model for pairQuery(0)'s filtered stream
// (types 0 and 1, 16 events per window) on which A (0) sits on the
// threshold Configure(borderPart, borderX) derives, dropping with
// probability 1/2, while B (1) is always kept.
func borderModel(tb testing.TB) *core.Model {
	tb.Helper()
	ut, err := core.NewUtilityTable(numTypes, 16, 1)
	if err != nil {
		tb.Fatal(err)
	}
	shares := make([][]float64, numTypes)
	for typ := range shares {
		shares[typ] = make([]float64, 16)
	}
	for pos := 0; pos < 16; pos++ {
		ut.Set(0, pos, 10)
		ut.Set(1, pos, 20)
		shares[0][pos], shares[1][pos] = 0.5, 0.5
	}
	m, err := core.NewModelFromTable(ut, shares)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

var borderPart = core.Partitioning{Rho: 1, PSize: 16, WS: 16}

const borderX = 4

// borderShedder is a shedder over m held at Configure(borderPart, borderX).
func borderShedder(t *testing.T, m *core.Model) *core.Shedder {
	t.Helper()
	s, err := core.NewShedder(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Configure(borderPart, borderX); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeregisterUnderLiveTraffic removes a query mid-stream: the call
// must not deadlock, the removed query's Out must close, and the
// remaining queries must still see every one of their events.
func TestDeregisterUnderLiveTraffic(t *testing.T) {
	harness.VerifyNoLeaks(t)
	events := syntheticStream(8192)
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Query, 3)
	for i := range handles {
		h, err := e.Register(QueryConfig{Query: pairQuery(t, i)})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()
	var wg sync.WaitGroup
	for _, h := range handles {
		wg.Add(1)
		go func(h *Query) {
			defer wg.Done()
			for range h.Out() {
			}
		}(h)
	}

	half := len(events) / 2
	e.SubmitBatch(events[:half])
	deregistered := make(chan struct{})
	go func() {
		defer close(deregistered)
		if err := e.Deregister("pair1"); err != nil {
			t.Errorf("Deregister: %v", err)
		}
	}()
	select {
	case <-deregistered:
	case <-time.After(10 * time.Second):
		t.Fatal("Deregister deadlocked")
	}
	e.SubmitBatch(events[half:])
	e.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// pair0 and pair2 survive and saw their full filtered streams.
	st := e.Stats()
	if len(st.Queries) != 2 {
		t.Fatalf("got %d remaining queries, want 2", len(st.Queries))
	}
	full := uint64(len(events) / (numTypes / 2))
	for _, qs := range st.Queries {
		if qs.Delivered != full {
			t.Errorf("remaining query %s delivered %d, want %d (events lost)",
				qs.Name, qs.Delivered, full)
		}
	}
	// The removed query saw at most the first half (its pipeline drained).
	if got := handles[1].Stats().Delivered; got > uint64(half) {
		t.Errorf("removed query delivered %d, want <= %d", got, half)
	}
	// Engine-level sums stay monotonic across Deregister: they fold in
	// the removed query's lifetime counters.
	var total uint64
	for _, h := range handles {
		total += h.Stats().Delivered
	}
	if st.Delivered != total {
		t.Errorf("engine Delivered = %d, want %d (deregistered query dropped from sum)",
			st.Delivered, total)
	}
	if err := e.Deregister("pair1"); err == nil {
		t.Error("double Deregister must fail")
	}
}

// TestConcurrentRegisterSubmit hammers Register/Deregister against a
// concurrent submitter; run under -race this is the registration
// data-race check.
func TestConcurrentRegisterSubmit(t *testing.T) {
	harness.VerifyNoLeaks(t)
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register(QueryConfig{Query: pairQuery(t, 0)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // submitter
		defer wg.Done()
		for _, ev := range syntheticStream(20000) {
			e.Submit(ev)
		}
	}()
	wg.Add(1)
	go func() { // churner
		defer wg.Done()
		for k := 0; k < 20; k++ {
			q := pairQuery(t, 1+k%3)
			q.Name = fmt.Sprintf("churn%d", k)
			h, err := e.Register(QueryConfig{Query: q, Name: q.Name})
			if err != nil {
				t.Errorf("Register: %v", err)
				return
			}
			go func() {
				for range h.Out() {
				}
			}()
			time.Sleep(time.Millisecond)
			if err := e.Deregister(q.Name); err != nil {
				t.Errorf("Deregister: %v", err)
				return
			}
		}
	}()
	go func() {
		h, _ := e.byNameSnapshot("pair0")
		if h != nil {
			for range h.Out() {
			}
		}
	}()
	wg.Wait()
	e.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// byNameSnapshot looks a handle up for tests.
func (e *Engine) byNameSnapshot(name string) (*Query, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	q, ok := e.byName[name]
	return q, ok
}

// TestRegisterErrors covers the registration error paths.
func TestRegisterErrors(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register(QueryConfig{}); err == nil {
		t.Error("unnamed query must fail")
	}
	if _, err := e.Register(QueryConfig{Query: pairQuery(t, 0), Weight: -1}); err == nil {
		t.Error("negative weight must fail")
	}
	if _, err := e.Register(QueryConfig{Query: pairQuery(t, 0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register(QueryConfig{Query: pairQuery(t, 0)}); err == nil {
		t.Error("duplicate name must fail")
	}
	if _, err := New(Config{LatencyBound: event.Second, F: 2}); err == nil {
		t.Error("invalid F must fail")
	}
}

// TestEngineShardedPoolChurn runs the fan-out with a sharded query next
// to a serial one, long enough to recycle thousands of pooled windows,
// and asserts both queries still reproduce their standalone outputs
// exactly. Run with -race: it exercises the pool plumbing end to end
// (engine fan-out -> sharded router -> shards -> merge -> release).
func TestEngineShardedPoolChurn(t *testing.T) {
	harness.VerifyNoLeaks(t)
	events := syntheticStream(20000)
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := e.Register(QueryConfig{Query: pairQuery(t, 0)})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := e.Register(QueryConfig{Query: pairQuery(t, 1), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()
	outs := make(map[string][]operator.ComplexEvent)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, q := range []*Query{serial, sharded} {
		wg.Add(1)
		go func(q *Query) {
			defer wg.Done()
			var ces []operator.ComplexEvent
			for ce := range q.Out() {
				ces = append(ces, ce)
			}
			mu.Lock()
			outs[q.Name()] = ces
			mu.Unlock()
		}(q)
	}
	e.SubmitBatch(events)
	e.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, q := range []*Query{serial, sharded} {
		want := runStandalone(t, pairQuery(t, i), q.FilterEvents(events))
		got := outs[q.Name()]
		if len(got) == 0 {
			t.Fatalf("query %s detected nothing; bad test setup", q.Name())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %s: engine output (%d) differs from standalone (%d)",
				q.Name(), len(got), len(want))
		}
	}
}

// TestQueryLifecycleComesOnline registers one query untrained under the
// online model lifecycle next to a plain query: the lifecycle query must
// train itself from its filtered traffic and swap the model into its
// shedder, while the plain query keeps receiving every event.
func TestQueryLifecycleComesOnline(t *testing.T) {
	harness.VerifyNoLeaks(t)
	eng, err := New(Config{LatencyBound: 50 * event.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lifeQ, err := eng.Register(QueryConfig{
		Query: pairQuery(t, 0),
		Lifecycle: &runtime.LifecycleConfig{
			WarmupWindows:      8,
			MinRetrainInterval: time.Millisecond,
			Interval:           time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	plainQ, err := eng.Register(QueryConfig{Query: pairQuery(t, 1)})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	for _, h := range []*Query{lifeQ, plainQ} {
		go func(h *Query) {
			for range h.Out() {
			}
		}(h)
	}
	events := syntheticStream(40000)
	eng.SubmitBatch(events)
	eng.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	lst := lifeQ.Pipeline().Stats().Lifecycle
	if lst == nil {
		t.Fatal("lifecycle stats missing on the lifecycle query")
	}
	if !lst.Trained || lst.Builds == 0 {
		t.Errorf("lifecycle query never came online: %+v", *lst)
	}
	// The registration-time model was nil; the live model must be the
	// lifecycle's product and carry coverage.
	if m := lifeQ.Pipeline().Lifecycle().Model(); m == nil || !m.Trained() {
		t.Error("published model missing or untrained")
	}
	// The cost estimate follows the swapped model (no spec fallback for
	// this window mode would apply without SizeHint; with it, spec wins —
	// so check the model path directly on a hint-less copy).
	if ws := lifeQ.windowSizeEstimate(); ws <= 0 {
		t.Errorf("windowSizeEstimate = %d after swap", ws)
	}
	// The plain query saw the full filtered stream: no events lost.
	want := uint64(0)
	for _, ev := range events {
		if plainQ.Accepts(ev.Type) {
			want++
		}
	}
	if got := plainQ.Stats().Delivered; got != want {
		t.Errorf("plain query delivered %d, want %d", got, want)
	}
	if st := plainQ.Pipeline().Stats(); st.Lifecycle != nil {
		t.Error("plain query unexpectedly carries lifecycle stats")
	}
}

// TestSubmitBeforeRun pins the start gate: a submit that gets ahead of
// Run — with more events than a query's queue holds — must wait for the
// pipelines to start instead of filling an unstarted queue under the
// read lock Run's write lock would then wait on forever.
func TestSubmitBeforeRun(t *testing.T) {
	harness.VerifyNoLeaks(t)
	events := syntheticStream(20000)
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Register(QueryConfig{Query: pairQuery(t, 0), Shards: 2, DisableFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	fetch := collectOut(q)
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		e.SubmitBatch(events)
	}()
	// The batch is counted before the gate, so this waits for the submit
	// to be under way, not for a guessed amount of time.
	for e.Stats().Submitted != uint64(len(events)) {
		stdruntime.Gosched()
	}
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()
	deadline := time.After(30 * time.Second)
	select {
	case <-submitted:
	case <-deadline:
		t.Fatal("submit started before Run never returned")
	}
	e.CloseInput()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-deadline:
		t.Fatal("Run never returned")
	}
	got := fetch()
	want := runStandalone(t, pairQuery(t, 0), events)
	if len(want) == 0 {
		t.Fatal("standalone run detected nothing; test is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine output (%d) differs from standalone (%d)", len(got), len(want))
	}
}

// TestFanoutTotalOrder pins what the fan-out mutex is for: with two
// concurrent submitters, every query sees the batches in the same order
// and every event exactly once.
func TestFanoutTotalOrder(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const (
		batch       = 64
		perProducer = 64 * batch
	)
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Tumbling count windows partition the stream, so the close hook
	// (run by the query's serial pipeline, in window order) sees every
	// processed event once, in processing order.
	seen := make([][]uint64, 2)
	for i := range seen {
		q := pairQuery(t, 0)
		q.Window = window.Spec{Mode: window.ModeCount, Count: batch, Slide: batch}
		h, err := e.Register(QueryConfig{
			Query:         q,
			Name:          fmt.Sprintf("order%d", i),
			DisableFilter: true,
			OnWindowClose: func(w *window.Window, _ []window.Entry) {
				v := w.Entries()
				for j := 0; j < v.Len(); j++ {
					seen[i] = append(seen[i], v.Event(j).Seq)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for range h.Out() {
			}
		}()
	}
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()

	stream := syntheticStream(2 * perProducer)
	var wg sync.WaitGroup
	for p, submit := range []func([]event.Event){
		func(b []event.Event) { e.SubmitTenantBatch("alpha", b) },
		e.SubmitBatch,
	} {
		own := stream[p*perProducer : (p+1)*perProducer]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for off := 0; off < len(own); off += batch {
				submit(own[off : off+batch])
			}
		}()
	}
	wg.Wait()
	e.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(seen[0], seen[1]) {
		t.Fatalf("queries processed different orders (%d vs %d events)", len(seen[0]), len(seen[1]))
	}
	if len(seen[0]) != len(stream) {
		t.Fatalf("query processed %d events, want %d", len(seen[0]), len(stream))
	}
	once := make([]bool, len(stream))
	for _, seq := range seen[0] {
		if once[seq] {
			t.Fatalf("event %d processed twice", seq)
		}
		once[seq] = true
	}
}
