package operator

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/window"
)

const (
	typeA = event.Type(0)
	typeB = event.Type(1)
	typeX = event.Type(2)
)

func seqAB(t *testing.T) *pattern.Compiled {
	t.Helper()
	return pattern.MustCompile(pattern.Pattern{
		Name: "seq(A;B)",
		Steps: []pattern.Step{
			{Types: []event.Type{typeA}},
			{Types: []event.Type{typeB}},
		},
	})
}

func tumbling(count int) window.Spec {
	return window.Spec{Mode: window.ModeCount, Count: count, Slide: count}
}

func stream(types ...event.Type) []event.Event {
	out := make([]event.Event, len(types))
	for i, typ := range types {
		out[i] = event.Event{Seq: uint64(i), Type: typ, TS: event.Time(i) * event.Second}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Window: tumbling(4)}); err == nil {
		t.Error("missing patterns must fail")
	}
	if _, err := New(Config{Window: tumbling(4), Patterns: []*pattern.Compiled{nil}}); err == nil {
		t.Error("nil pattern must fail")
	}
	if _, err := New(Config{Window: window.Spec{}, Patterns: []*pattern.Compiled{seqAB(t)}}); err == nil {
		t.Error("invalid window spec must fail")
	}
}

func TestDetectsComplexEvents(t *testing.T) {
	op, err := New(Config{Window: tumbling(4), Patterns: []*pattern.Compiled{seqAB(t)}})
	if err != nil {
		t.Fatal(err)
	}
	var detected []ComplexEvent
	for _, e := range stream(typeA, typeX, typeB, typeX, typeX, typeA, typeB, typeX) {
		detected = append(detected, op.Process(e)...)
	}
	if len(detected) != 2 {
		t.Fatalf("detected %d complex events, want 2", len(detected))
	}
	if got, want := detected[0].Constituents, []uint64{0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("first match constituents = %v, want %v", got, want)
	}
	if got, want := detected[1].Constituents, []uint64{5, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("second match constituents = %v, want %v", got, want)
	}
	st := op.Stats()
	if st.EventsProcessed != 8 || st.WindowsClosed != 2 || st.ComplexEvents != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Memberships != 8 || st.MembershipsKept != 8 || st.MembershipsShed != 0 {
		t.Errorf("membership stats = %+v", st)
	}
}

func TestOneMatchPerWindowDefault(t *testing.T) {
	op, err := New(Config{Window: tumbling(6), Patterns: []*pattern.Compiled{seqAB(t)}})
	if err != nil {
		t.Fatal(err)
	}
	var detected []ComplexEvent
	for _, e := range stream(typeA, typeB, typeA, typeB, typeA, typeB) {
		detected = append(detected, op.Process(e)...)
	}
	if len(detected) != 1 {
		t.Fatalf("detected %d, want 1 (one complex event per window)", len(detected))
	}
}

func TestMaxMatchesPerWindow(t *testing.T) {
	p := pattern.MustCompile(pattern.Pattern{
		Name: "seq(A;B) consumed",
		Steps: []pattern.Step{
			{Types: []event.Type{typeA}},
			{Types: []event.Type{typeB}},
		},
		Consumption: pattern.Consumed,
	})
	op, err := New(Config{
		Window:              tumbling(6),
		Patterns:            []*pattern.Compiled{p},
		MaxMatchesPerWindow: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var detected []ComplexEvent
	for _, e := range stream(typeA, typeB, typeA, typeB, typeA, typeB) {
		detected = append(detected, op.Process(e)...)
	}
	if len(detected) != 3 {
		t.Fatalf("detected %d, want 3 under consumed multi-match", len(detected))
	}
}

func TestMultiplePatternsFirstWins(t *testing.T) {
	pB := pattern.MustCompile(pattern.Pattern{
		Name:  "justB",
		Steps: []pattern.Step{{Types: []event.Type{typeB}}},
	})
	pA := pattern.MustCompile(pattern.Pattern{
		Name:  "justA",
		Steps: []pattern.Step{{Types: []event.Type{typeA}}},
	})
	op, err := New(Config{Window: tumbling(2), Patterns: []*pattern.Compiled{pB, pA}})
	if err != nil {
		t.Fatal(err)
	}
	var detected []ComplexEvent
	for _, e := range stream(typeA, typeA) {
		detected = append(detected, op.Process(e)...)
	}
	if len(detected) != 1 || detected[0].Pattern != "justA" {
		t.Fatalf("detected = %+v, want fallthrough to justA", detected)
	}
}

// dropEven sheds every membership whose position is even.
type dropEven struct{}

func (dropEven) DropCounted(_ window.ID, _ event.Type, pos, _ int) (bool, bool) {
	return pos%2 == 0, true
}

func (dropEven) TallyDecisions(uint64, uint64) {}

func TestSheddingChangesOutcome(t *testing.T) {
	op, err := New(Config{
		Window:   tumbling(4),
		Patterns: []*pattern.Compiled{seqAB(t)},
		Shedder:  dropEven{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Window A,B,A,B: positions 0,2 dropped -> kept B(1), B(3): no match.
	var detected []ComplexEvent
	for _, e := range stream(typeA, typeB, typeA, typeB) {
		detected = append(detected, op.Process(e)...)
	}
	if len(detected) != 0 {
		t.Fatalf("detected %d, want 0 after shedding As", len(detected))
	}
	st := op.Stats()
	if st.MembershipsShed != 2 || st.MembershipsKept != 2 {
		t.Errorf("shed/kept = %d/%d, want 2/2", st.MembershipsShed, st.MembershipsKept)
	}
}

func TestOnWindowCloseHook(t *testing.T) {
	var hookWindows int
	var hookMatched [][]window.Entry
	op, err := New(Config{
		Window:   tumbling(2),
		Patterns: []*pattern.Compiled{seqAB(t)},
		OnWindowClose: func(w *window.Window, matched []window.Entry) {
			hookWindows++
			hookMatched = append(hookMatched, matched)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range stream(typeA, typeB, typeX, typeX) {
		op.Process(e)
	}
	if hookWindows != 2 {
		t.Fatalf("hook saw %d windows, want 2", hookWindows)
	}
	if len(hookMatched[0]) != 2 {
		t.Errorf("first window matched entries = %d, want 2", len(hookMatched[0]))
	}
	if hookMatched[1] != nil {
		t.Errorf("second window should have nil matched, got %v", hookMatched[1])
	}
}

func TestFlush(t *testing.T) {
	op, err := New(Config{Window: tumbling(10), Patterns: []*pattern.Compiled{seqAB(t)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range stream(typeA, typeB) {
		if got := op.Process(e); len(got) != 0 {
			t.Fatalf("premature detection: %v", got)
		}
	}
	detected := op.Flush(5 * event.Second)
	if len(detected) != 1 {
		t.Fatalf("Flush detected %d, want 1", len(detected))
	}
	if detected[0].DetectedAt != 5*event.Second {
		t.Errorf("DetectedAt = %v", detected[0].DetectedAt)
	}
}

func TestComplexEventKey(t *testing.T) {
	a := ComplexEvent{WindowID: 3, Constituents: []uint64{1, 22, 333}}
	b := ComplexEvent{WindowID: 3, Constituents: []uint64{1, 22, 333}}
	c := ComplexEvent{WindowID: 4, Constituents: []uint64{1, 22, 333}}
	d := ComplexEvent{WindowID: 3, Constituents: []uint64{1, 22}}
	if a.Key() != b.Key() {
		t.Error("equal events must share keys")
	}
	if a.Key() == c.Key() {
		t.Error("different windows must differ")
	}
	if a.Key() == d.Key() {
		t.Error("different constituents must differ")
	}
	zero := ComplexEvent{}
	if zero.Key() != "0" {
		t.Errorf("zero key = %q", zero.Key())
	}
}

func TestOverlappingWindowsIndependentShedding(t *testing.T) {
	// Sliding windows (count 4, slide 2): the same event sits at different
	// positions in different windows, so a position-based shedder can drop
	// it from one window but keep it in the other — the core eSPICE
	// mechanism.
	op, err := New(Config{
		Window:   window.Spec{Mode: window.ModeCount, Count: 4, Slide: 2},
		Patterns: []*pattern.Compiled{seqAB(t)},
		Shedder:  dropEven{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range stream(typeX, typeX, typeA, typeB, typeX, typeX) {
		op.Process(e)
	}
	st := op.Stats()
	// Event seq2 (A) is at pos 2 of window0 (dropped) and pos 0 of
	// window1 (dropped); seq3 (B) at pos 3 (kept) and pos 1 (kept).
	if st.MembershipsShed == 0 || st.MembershipsKept == 0 {
		t.Fatalf("expected mixed shed/kept, got %+v", st)
	}
}

// TestRingBounded: after every event of a long seeded stream, the serial
// operator's ring holds at most the arrivals since its oldest open
// window opened, plus the compaction slack — sliding time windows that
// always overlap, and predicate-opened count windows with gaps where no
// window is open — and it is empty once every window has closed.
func TestRingBounded(t *testing.T) {
	for _, spec := range []window.Spec{
		{Mode: window.ModeTime, Length: 40 * event.Millisecond, SlideTime: 7 * event.Millisecond},
		{Mode: window.ModeCount, Count: 30, Open: func(e event.Event) bool { return e.Type == typeA && e.Seq%5 == 0 }},
	} {
		op, err := New(Config{Window: spec, Patterns: []*pattern.Compiled{seqAB(t)}, Shedder: dropEven{}})
		if err != nil {
			t.Fatal(err)
		}
		win := op.own.Windows()
		rng := rand.New(rand.NewSource(1))
		ts := event.Time(0)
		for i := 0; i < 20000; i++ {
			ts += event.Time(rng.Intn(3)) * event.Millisecond
			op.Process(event.Event{Seq: uint64(i), TS: ts, Type: event.Type(rng.Intn(3))})
			arrivals := 0
			if w := win.Oldest(); w != nil {
				arrivals = w.Arrivals
			}
			if bound := arrivals + max(arrivals, window.RingSlack); win.Ring().Len() > bound {
				t.Fatalf("%v: after event %d the ring holds %d events, bound %d", spec.Mode, i, win.Ring().Len(), bound)
			}
		}
		op.Flush(ts)
		if win.Ring().Live() != 0 {
			t.Errorf("%v: ring keeps %d live events after Flush", spec.Mode, win.Ring().Live())
		}
	}
}

func BenchmarkOperatorProcess(b *testing.B) {
	p := pattern.MustCompile(pattern.Pattern{
		Name: "seq",
		Steps: []pattern.Step{
			{Types: []event.Type{typeA}},
			{Types: []event.Type{typeB}},
		},
	})
	op, err := New(Config{
		Window:   window.Spec{Mode: window.ModeCount, Count: 100, Slide: 50},
		Patterns: []*pattern.Compiled{p},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Process(event.Event{Seq: uint64(i), Type: event.Type(i % 3)})
	}
}

// --- Hot-path memory discipline and batched shedder counters ------------

// countingDecider is a Decider double: it drops every even position and
// records how its counters are reported.
type countingDecider struct {
	rawCalls   int // DropCounted invocations
	tallyCalls int // TallyDecisions invocations
	decisions  uint64
	drops      uint64
}

func (d *countingDecider) DropCounted(_ window.ID, t event.Type, pos, ws int) (bool, bool) {
	d.rawCalls++
	return pos%2 == 0, true
}

func (d *countingDecider) TallyDecisions(decisions, drops uint64) {
	d.tallyCalls++
	d.decisions += decisions
	d.drops += drops
}

func TestBatchedDeciderTallies(t *testing.T) {
	dec := &countingDecider{}
	op, err := New(Config{
		Window:   window.Spec{Mode: window.ModeCount, Count: 4, Slide: 2},
		Patterns: []*pattern.Compiled{seqAB(t)},
		Shedder:  dec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range stream(typeA, typeB, typeA, typeB, typeA, typeB, typeA, typeB) {
		op.Process(e)
	}
	st := op.Stats()
	if uint64(dec.rawCalls) != st.Memberships {
		t.Errorf("DropCounted calls = %d, memberships = %d", dec.rawCalls, st.Memberships)
	}
	if dec.decisions != st.Memberships {
		t.Errorf("tallied decisions = %d, want %d", dec.decisions, st.Memberships)
	}
	if dec.drops != st.MembershipsShed {
		t.Errorf("tallied drops = %d, shed = %d", dec.drops, st.MembershipsShed)
	}
	// Flushes happen per Process batch, not per membership: with 2
	// memberships per event, there must be at most one tally per event.
	if dec.tallyCalls > int(st.EventsProcessed) {
		t.Errorf("tally flushes = %d for %d events; want at most one per event",
			dec.tallyCalls, st.EventsProcessed)
	}
}

// TestProcessSteadyStateZeroAlloc is the hot-path gate: with a warm
// window pool and matcher scratch, processing an event — including the
// window open/close edges crossed on the way — allocates nothing as long
// as no complex event is emitted (emitted events escape to the caller
// and intrinsically cost their constituent slice).
func TestProcessSteadyStateZeroAlloc(t *testing.T) {
	noMatch := pattern.MustCompile(pattern.Pattern{
		Name:  "never",
		Steps: []pattern.Step{{Types: []event.Type{typeX}}, {Types: []event.Type{typeX}}},
	})
	op, err := New(Config{
		Window:   window.Spec{Mode: window.ModeCount, Count: 64, Slide: 8},
		Patterns: []*pattern.Compiled{noMatch},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := stream(typeA, typeB, typeA, typeB)
	seq := uint64(0)
	step := func() {
		e := events[seq%uint64(len(events))]
		e.Seq = seq
		e.TS = event.Time(seq)
		seq++
		op.Process(e)
	}
	for i := 0; i < 2048; i++ { // warm pool, buffers and scratch
		step()
	}
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Errorf("steady-state Process allocates %.3f/event, want 0", allocs)
	}
	if st := op.Stats(); st.WindowsClosed == 0 {
		t.Fatalf("measurement crossed no window edges: %+v", st)
	}
}
