package pattern

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/window"
)

// entries builds a window view from a type sequence, laid out as an
// owner's ring segment with nothing dropped: position = index.
func entries(types ...event.Type) window.View {
	w := &window.Window{}
	for i, t := range types {
		w.Add(event.Event{Seq: uint64(i), Type: t}, i)
	}
	return *w.Entries()
}

func seqs(m Match) []uint64 { return m.Seqs() }

func TestPolicyStrings(t *testing.T) {
	if SelectFirst.String() != "first" || SelectLast.String() != "last" {
		t.Error("selection names")
	}
	if SelectionPolicy(9).String() != "selection(9)" {
		t.Error("selection fallback")
	}
	if ConsumeZero.String() != "zero" || Consumed.String() != "consumed" {
		t.Error("consumption names")
	}
	if ConsumptionPolicy(9).String() != "consumption(9)" {
		t.Error("consumption fallback")
	}
}

func TestCompileValidation(t *testing.T) {
	tests := []struct {
		name    string
		p       Pattern
		wantErr bool
	}{
		{"empty", Pattern{Name: "e"}, true},
		{"ok single", Pattern{Steps: []Step{{Types: []event.Type{1}}}}, false},
		{"negative anyN", Pattern{Steps: []Step{{AnyN: -1}}}, true},
		{"anyN exceeds distinct types", Pattern{Steps: []Step{{Types: []event.Type{1, 2}, AnyN: 3, Distinct: true}}}, true},
		{"anyN wildcard ok", Pattern{Steps: []Step{{AnyN: 3}}}, false},
		{"negative type id", Pattern{Steps: []Step{{Types: []event.Type{1, event.NoType}}}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Compile(tt.p)
			if (err != nil) != tt.wantErr {
				t.Errorf("Compile() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompile(Pattern{})
}

func TestWidth(t *testing.T) {
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{1}},
		{Types: []event.Type{2, 3}, AnyN: 4},
	}})
	if c.Width() != 5 {
		t.Errorf("Width() = %d, want 5", c.Width())
	}
}

func TestSequenceFirstPolicy(t *testing.T) {
	// Paper running example (Section 2): window B4,B3,A2,A1 in stream
	// order A1,A2,B3,B4; seq(A;B) with first policy matches (A1,B3).
	a, b := event.Type(0), event.Type(1)
	c := MustCompile(Pattern{
		Steps:     []Step{{Types: []event.Type{a}}, {Types: []event.Type{b}}},
		Selection: SelectFirst,
	})
	ents := entries(a, a, b, b)
	m, ok := c.Match(ents)
	if !ok {
		t.Fatal("no match")
	}
	if got, want := seqs(m), []uint64{0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v (A1,B3)", got, want)
	}
}

func TestSequenceLastPolicy(t *testing.T) {
	// Same window, last policy: (A2,B4).
	a, b := event.Type(0), event.Type(1)
	c := MustCompile(Pattern{
		Steps:     []Step{{Types: []event.Type{a}}, {Types: []event.Type{b}}},
		Selection: SelectLast,
	})
	m, ok := c.Match(entries(a, a, b, b))
	if !ok {
		t.Fatal("no match")
	}
	if got, want := seqs(m), []uint64{1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v (A2,B4)", got, want)
	}
}

func TestSequenceSkipTillNext(t *testing.T) {
	// seq(A;B;C) must skip non-matching intermediates.
	a, b, cc, x := event.Type(0), event.Type(1), event.Type(2), event.Type(9)
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{a}}, {Types: []event.Type{b}}, {Types: []event.Type{cc}},
	}})
	m, ok := c.Match(entries(x, a, x, x, b, x, cc, x))
	if !ok {
		t.Fatal("no match")
	}
	if got, want := seqs(m), []uint64{1, 4, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
}

func TestSequenceNoMatch(t *testing.T) {
	a, b := event.Type(0), event.Type(1)
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{a}}, {Types: []event.Type{b}},
	}})
	// B before A only: order matters in sequences.
	if _, ok := c.Match(entries(b, a)); ok {
		t.Error("seq(A;B) must not match stream B,A")
	}
	if _, ok := c.Match(entries(a)); ok {
		t.Error("incomplete match must fail")
	}
	if _, ok := c.Match(window.View{}); ok {
		t.Error("empty window must not match")
	}
}

func TestAnyOperatorFirst(t *testing.T) {
	// seq(STR; any(2, D1,D2,D3)): first two distinct defenders after the
	// striker event.
	str, d1, d2, d3 := event.Type(0), event.Type(1), event.Type(2), event.Type(3)
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{str}},
		{Types: []event.Type{d1, d2, d3}, AnyN: 2, Distinct: true},
	}})
	// Stream: d1 (before striker: ignored), STR, d2, d2 (dup type skipped), d3.
	m, ok := c.Match(entries(d1, str, d2, d2, d3))
	if !ok {
		t.Fatal("no match")
	}
	if got, want := seqs(m), []uint64{1, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
}

func TestAnyOperatorNonDistinctTakesDuplicates(t *testing.T) {
	str, d1 := event.Type(0), event.Type(1)
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{str}},
		{Types: []event.Type{d1}, AnyN: 2},
	}})
	m, ok := c.Match(entries(str, d1, d1))
	if !ok {
		t.Fatal("no match")
	}
	if got, want := seqs(m), []uint64{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v", got)
	}
}

func TestAnyOperatorLast(t *testing.T) {
	str, d1, d2 := event.Type(0), event.Type(1), event.Type(2)
	c := MustCompile(Pattern{
		Steps: []Step{
			{Types: []event.Type{str}},
			{Types: []event.Type{d1, d2}, AnyN: 2, Distinct: true},
		},
		Selection: SelectLast,
	})
	// Stream: STR(0), d1(1), STR(2), d1(3), d2(4): last picks STR(2), d1(3), d2(4).
	m, ok := c.Match(entries(str, d1, str, d1, d2))
	if !ok {
		t.Fatal("no match")
	}
	if got, want := seqs(m), []uint64{2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
}

func TestAnyOperatorInsufficient(t *testing.T) {
	str, d1, d2 := event.Type(0), event.Type(1), event.Type(2)
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{str}},
		{Types: []event.Type{d1, d2}, AnyN: 2, Distinct: true},
	}})
	if _, ok := c.Match(entries(str, d1, d1)); ok {
		t.Error("distinct any(2) must not match two events of one type")
	}
}

func TestWildcardStep(t *testing.T) {
	a := event.Type(0)
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{a}},
		{AnyN: 2}, // any two events of any type
	}})
	m, ok := c.Match(entries(a, 5, 9))
	if !ok {
		t.Fatal("no match")
	}
	if len(m.Constituents) != 3 {
		t.Errorf("constituents = %d", len(m.Constituents))
	}
}

func TestPredicateFiltering(t *testing.T) {
	a, b := event.Type(0), event.Type(1)
	rising := func(e event.Event) bool { return e.Kind == event.KindRising }
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{a}, Pred: rising},
		{Types: []event.Type{b}, Pred: rising},
	}})
	ents := window.NewView([]window.Entry{
		{Ev: event.Event{Seq: 0, Type: a, Kind: event.KindFalling}, Pos: 0},
		{Ev: event.Event{Seq: 1, Type: a, Kind: event.KindRising}, Pos: 1},
		{Ev: event.Event{Seq: 2, Type: b, Kind: event.KindFalling}, Pos: 2},
		{Ev: event.Event{Seq: 3, Type: b, Kind: event.KindRising}, Pos: 3},
	})
	m, ok := c.Match(ents)
	if !ok {
		t.Fatal("no match")
	}
	if got, want := seqs(m), []uint64{1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
}

func TestRepetitionPattern(t *testing.T) {
	// Q4 shape: seq(A;A;B): same type in several steps consumes distinct
	// occurrences.
	a, b := event.Type(0), event.Type(1)
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{a}}, {Types: []event.Type{a}}, {Types: []event.Type{b}},
	}})
	m, ok := c.Match(entries(a, a, b))
	if !ok {
		t.Fatal("no match")
	}
	if got, want := seqs(m), []uint64{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v", got)
	}
	if _, ok := c.Match(entries(a, b)); ok {
		t.Error("seq(A;A;B) must need two As")
	}
}

func TestMatchAllZeroConsumption(t *testing.T) {
	// Paper Section 2.1: window A1,A2,B3,B4, first selection.
	// Zero consumption anchors at each A: (A1,B3) and (A2,B3).
	a, b := event.Type(0), event.Type(1)
	c := MustCompile(Pattern{
		Steps:       []Step{{Types: []event.Type{a}}, {Types: []event.Type{b}}},
		Consumption: ConsumeZero,
	})
	ms := c.MatchAll(entries(a, a, b, b), 0)
	if len(ms) != 2 {
		t.Fatalf("got %d matches, want 2", len(ms))
	}
	if got, want := seqs(ms[0]), []uint64{0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("m0 = %v, want %v", got, want)
	}
	if got, want := seqs(ms[1]), []uint64{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("m1 = %v, want %v", got, want)
	}
}

func TestMatchAllConsumed(t *testing.T) {
	// Consumed: (A1,B3) then (A2,B4) — the paper's first/consumed example.
	a, b := event.Type(0), event.Type(1)
	c := MustCompile(Pattern{
		Steps:       []Step{{Types: []event.Type{a}}, {Types: []event.Type{b}}},
		Consumption: Consumed,
	})
	ms := c.MatchAll(entries(a, a, b, b), 0)
	if len(ms) != 2 {
		t.Fatalf("got %d matches, want 2", len(ms))
	}
	if got, want := seqs(ms[0]), []uint64{0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("m0 = %v, want %v", got, want)
	}
	if got, want := seqs(ms[1]), []uint64{1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("m1 = %v, want %v", got, want)
	}
}

func TestMatchAllLimit(t *testing.T) {
	a := event.Type(0)
	c := MustCompile(Pattern{
		Steps:       []Step{{Types: []event.Type{a}}},
		Consumption: Consumed,
	})
	ms := c.MatchAll(entries(a, a, a, a), 2)
	if len(ms) != 2 {
		t.Fatalf("limit ignored: %d matches", len(ms))
	}
}

func TestTypeWeights(t *testing.T) {
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{0}},
		{Types: []event.Type{0}},
		{Types: []event.Type{1, 2}, AnyN: 4},
		{AnyN: 3},
	}})
	w := c.TypeWeights()
	if w.PerType[0] != 2 {
		t.Errorf("weight[0] = %v, want 2", w.PerType[0])
	}
	if w.PerType[1] != 2 || w.PerType[2] != 2 {
		t.Errorf("any weights = %v/%v, want 2/2", w.PerType[1], w.PerType[2])
	}
	if w.Wildcard != 3 {
		t.Errorf("wildcard = %v, want 3", w.Wildcard)
	}
}

// bruteForceSeq reports whether a pure single-event-step sequence pattern
// has any match in the entries (exponential-free DP scan).
func bruteForceSeq(c *Compiled, ents window.View) bool {
	step := 0
	for i := 0; i < ents.Len() && step < len(c.p.Steps); i++ {
		if c.stepAccepts(step, &ents, i) {
			step++
		}
	}
	return step == len(c.p.Steps)
}

// Property: greedy first-policy matching agrees with a brute-force scan on
// random sequence patterns and random streams (completeness of greedy
// skip-till-next matching).
func TestGreedyCompletenessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numTypes := rng.Intn(4) + 2
		patLen := rng.Intn(4) + 1
		steps := make([]Step, patLen)
		for i := range steps {
			steps[i] = Step{Types: []event.Type{event.Type(rng.Intn(numTypes))}}
		}
		c := MustCompile(Pattern{Steps: steps})
		streamLen := rng.Intn(30)
		types := make([]event.Type, streamLen)
		for i := range types {
			types[i] = event.Type(rng.Intn(numTypes))
		}
		ents := entries(types...)
		_, got := c.Match(ents)
		return got == bruteForceSeq(c, ents)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: first and last policies agree on existence of a match and both
// produce constituents in strictly increasing position order.
func TestFirstLastAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numTypes := rng.Intn(4) + 2
		patLen := rng.Intn(3) + 1
		steps := make([]Step, patLen)
		for i := range steps {
			st := Step{Types: []event.Type{event.Type(rng.Intn(numTypes))}}
			if rng.Intn(3) == 0 {
				st.AnyN = rng.Intn(2) + 1
				st.Types = nil // wildcard any
			}
			steps[i] = st
		}
		first := MustCompile(Pattern{Steps: steps, Selection: SelectFirst})
		last := MustCompile(Pattern{Steps: steps, Selection: SelectLast})
		streamLen := rng.Intn(40)
		types := make([]event.Type, streamLen)
		for i := range types {
			types[i] = event.Type(rng.Intn(numTypes))
		}
		ents := entries(types...)
		mf, okF := first.Match(ents)
		ml, okL := last.Match(ents)
		if okF != okL {
			return false
		}
		inc := func(m Match) bool {
			for i := 1; i < len(m.Constituents); i++ {
				if m.Constituents[i].Pos <= m.Constituents[i-1].Pos {
					return false
				}
			}
			return true
		}
		if okF && (!inc(mf) || !inc(ml)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMatchSequence20(b *testing.B) {
	// Q3-shaped pattern: 20 specific types in sequence over 2000 events.
	steps := make([]Step, 20)
	for i := range steps {
		steps[i] = Step{Types: []event.Type{event.Type(i)}}
	}
	c := MustCompile(Pattern{Steps: steps})
	types := make([]event.Type, 2000)
	rng := rand.New(rand.NewSource(1))
	for i := range types {
		types[i] = event.Type(rng.Intn(40))
	}
	ents := entries(types...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Match(ents)
	}
}

func TestAnchoredPatternFirst(t *testing.T) {
	str, d1, d2 := event.Type(0), event.Type(1), event.Type(2)
	c := MustCompile(Pattern{
		Steps: []Step{
			{Types: []event.Type{str}},
			{Types: []event.Type{d1, d2}, AnyN: 2, Distinct: true},
		},
		Anchored: true,
	})
	// Opener matches step 0: match anchored at position 0.
	m, ok := c.Match(entries(str, d1, d2))
	if !ok {
		t.Fatal("anchored match failed")
	}
	if got, want := seqs(m), []uint64{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
	// First entry is not the opener type: no match even though a full
	// match exists later in the window.
	if _, ok := c.Match(entries(d1, str, d1, d2)); ok {
		t.Error("anchored pattern must not match a drifted opener")
	}
}

func TestAnchoredOpenerDroppedByShedding(t *testing.T) {
	str, d1 := event.Type(0), event.Type(1)
	c := MustCompile(Pattern{
		Steps: []Step{
			{Types: []event.Type{str}},
			{Types: []event.Type{d1}},
		},
		Anchored: true,
	})
	// Shedding dropped position 0: first kept entry has Pos 1.
	ents := window.NewView([]window.Entry{
		{Ev: event.Event{Seq: 10, Type: str}, Pos: 1},
		{Ev: event.Event{Seq: 11, Type: d1}, Pos: 2},
	})
	if _, ok := c.Match(ents); ok {
		t.Error("anchored pattern must fail when the opener was shed")
	}
}

func TestAnchoredPatternLast(t *testing.T) {
	str, d1, d2 := event.Type(0), event.Type(1), event.Type(2)
	c := MustCompile(Pattern{
		Steps: []Step{
			{Types: []event.Type{str}},
			{Types: []event.Type{d1, d2}, AnyN: 2, Distinct: true},
		},
		Selection: SelectLast,
		Anchored:  true,
	})
	// Last policy keeps the anchor at pos 0 but picks the latest defends.
	m, ok := c.Match(entries(str, d1, d2, d1, d2))
	if !ok {
		t.Fatal("anchored last match failed")
	}
	if got, want := seqs(m), []uint64{0, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
}

func TestAnchoredSingleStep(t *testing.T) {
	str := event.Type(0)
	c := MustCompile(Pattern{
		Steps:    []Step{{Types: []event.Type{str}}},
		Anchored: true,
	})
	m, ok := c.Match(entries(str, str))
	if !ok || len(m.Constituents) != 1 || m.Constituents[0].Pos != 0 {
		t.Errorf("single-step anchored match = %v, %v", m, ok)
	}
}

func TestAnchoredMatchAllSingleMatch(t *testing.T) {
	a, b := event.Type(0), event.Type(1)
	c := MustCompile(Pattern{
		Steps:       []Step{{Types: []event.Type{a}}, {Types: []event.Type{b}}},
		Consumption: ConsumeZero,
		Anchored:    true,
	})
	ms := c.MatchAll(entries(a, a, b, b), 0)
	if len(ms) != 1 {
		t.Fatalf("anchored MatchAll = %d matches, want 1", len(ms))
	}
	if got, want := seqs(ms[0]), []uint64{0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
	// No anchor: no matches at all.
	if got := c.MatchAll(entries(b, a, b), 0); len(got) != 0 {
		t.Errorf("unanchored window matched: %v", got)
	}
	if got := c.MatchAll(window.View{}, 0); len(got) != 0 {
		t.Errorf("empty window matched: %v", got)
	}
}

func TestAnchoredValidation(t *testing.T) {
	_, err := Compile(Pattern{
		Steps:    []Step{{AnyN: 2}},
		Anchored: true,
	})
	if err == nil {
		t.Error("anchored pattern starting with an any step must fail")
	}
}

// --- MatchScratch (reusable matcher memory, bitset type sets) -----------

// TestMatchWithScratchReuse verifies that a reused scratch produces the
// same matches as the allocating entry points, call after call.
func TestMatchWithScratchReuse(t *testing.T) {
	c := MustCompile(Pattern{
		Name: "mixed",
		Steps: []Step{
			{Types: []event.Type{1}},
			{Types: []event.Type{2, 3, 4}, AnyN: 2, Distinct: true},
			{Types: []event.Type{5, 6}, All: true},
		},
	})
	streams := []window.View{
		entries(1, 2, 3, 5, 6),
		entries(1, 2, 2, 3, 6, 5),
		entries(7, 1, 4, 3, 5, 5, 6),
		entries(1, 2, 5, 6), // fails: any-step needs 2 distinct
		{},
	}
	var s MatchScratch
	for i, ents := range streams {
		want, wantOK := c.Match(ents)
		got, gotOK := c.MatchWith(&s, ents)
		if wantOK != gotOK {
			t.Fatalf("stream %d: MatchWith ok = %v, Match ok = %v", i, gotOK, wantOK)
		}
		if !gotOK {
			continue
		}
		if !reflect.DeepEqual(seqs(got), seqs(want)) {
			t.Errorf("stream %d: MatchWith = %v, Match = %v", i, seqs(got), seqs(want))
		}
	}
}

// TestMatchAllWithScratchReuse checks MatchAllWith against MatchAll under
// both consumption policies with a shared scratch.
func TestMatchAllWithScratchReuse(t *testing.T) {
	for _, cons := range []ConsumptionPolicy{ConsumeZero, Consumed} {
		c := MustCompile(Pattern{
			Name:        "ab",
			Consumption: cons,
			Steps:       []Step{{Types: []event.Type{1}}, {Types: []event.Type{2}}},
		})
		var s MatchScratch
		ents := entries(1, 1, 2, 2, 1, 2)
		for round := 0; round < 3; round++ {
			want := c.MatchAll(ents, 0)
			got := c.MatchAllWith(&s, ents, 0, nil)
			if len(got) != len(want) {
				t.Fatalf("%v round %d: %d matches, want %d", cons, round, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(seqs(got[i]), seqs(want[i])) {
					t.Errorf("%v round %d match %d: %v, want %v", cons, round, i, seqs(got[i]), seqs(want[i]))
				}
			}
		}
	}
}

// TestMatchWithZeroAlloc gates the scratch design: once warm, matching
// (including conjunction and distinct-any steps, which used per-call hash
// sets before) allocates nothing.
func TestMatchWithZeroAlloc(t *testing.T) {
	c := MustCompile(Pattern{
		Name: "hot",
		Steps: []Step{
			{Types: []event.Type{1}},
			{Types: []event.Type{2, 3}, AnyN: 2, Distinct: true},
			{Types: []event.Type{4, 5}, All: true},
		},
	})
	ents := entries(1, 2, 9, 3, 5, 4)
	var s MatchScratch
	if _, ok := c.MatchWith(&s, ents); !ok { // warm the scratch
		t.Fatal("pattern should match")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.MatchWith(&s, ents); !ok {
			t.Fatal("pattern should match")
		}
	})
	if allocs != 0 {
		t.Errorf("warm MatchWith allocates %.2f/match, want 0", allocs)
	}

	cz := MustCompile(Pattern{
		Name:        "hot-all",
		Consumption: Consumed,
		Steps:       []Step{{Types: []event.Type{1}}, {Types: []event.Type{2}}},
	})
	entsAll := entries(1, 2, 1, 2, 1)
	cz.MatchAllWith(&s, entsAll, 0, nil) // warm
	out := make([]Match, 0, 4)
	allocs = testing.AllocsPerRun(1000, func() {
		out = cz.MatchAllWith(&s, entsAll, 0, out[:0])
		if len(out) != 2 {
			t.Fatalf("matches = %d, want 2", len(out))
		}
	})
	if allocs != 0 {
		t.Errorf("warm MatchAllWith allocates %.2f/window, want 0", allocs)
	}
}

// TestConsumedMarkingLargeWindow exercises the index-by-position marking
// on a larger window (formerly an O(n^2) rescan per constituent).
func TestConsumedMarkingLargeWindow(t *testing.T) {
	c := MustCompile(Pattern{
		Name:        "ab",
		Consumption: Consumed,
		Steps:       []Step{{Types: []event.Type{1}}, {Types: []event.Type{2}}},
	})
	const pairs = 500
	ents := make([]window.Entry, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		ents = append(ents,
			window.Entry{Ev: event.Event{Seq: uint64(2 * i), Type: 1}, Pos: 3 * i},
			window.Entry{Ev: event.Event{Seq: uint64(2*i + 1), Type: 2}, Pos: 3*i + 1},
		)
	}
	ms := c.MatchAll(window.NewView(ents), 0)
	if len(ms) != pairs {
		t.Fatalf("matches = %d, want %d", len(ms), pairs)
	}
	for i, m := range ms {
		got := seqs(m)
		if len(got) != 2 || got[0] != uint64(2*i) || got[1] != uint64(2*i+1) {
			t.Fatalf("match %d = %v, want [%d %d]", i, got, 2*i, 2*i+1)
		}
	}
}

// TestDistinctDedupNegativeTypes pins the hash-set matcher's handling of
// events carrying invalid (negative) type ids: distinct dedup treats
// them per id (they live in the sparse overflow set), so two NoType
// events cannot satisfy a 2-distinct wildcard step.
func TestDistinctDedupNegativeTypes(t *testing.T) {
	c := MustCompile(Pattern{
		Name:  "distinct-wild",
		Steps: []Step{{AnyN: 2, Distinct: true}},
	})
	if _, ok := c.Match(entries(event.NoType, event.NoType)); ok {
		t.Error("two NoType events must not count as distinct")
	}
	if _, ok := c.Match(entries(event.NoType, 1)); !ok {
		t.Error("NoType plus a real type are distinct")
	}
}

// TestHugeTypeIdsBoundedMemory pins the sparse fallback: type ids far
// beyond the dense-bitset range (raw/un-interned values a caller can
// push through the ingress) must match correctly — including distinct
// dedup and conjunctions — without growing O(maxType) scratch.
func TestHugeTypeIdsBoundedMemory(t *testing.T) {
	huge1, huge2 := event.Type(1<<30), event.Type(1<<30+1)

	distinct := MustCompile(Pattern{Steps: []Step{{AnyN: 2, Distinct: true}}})
	var s MatchScratch
	if _, ok := distinct.MatchWith(&s, entries(huge1, huge1)); ok {
		t.Error("duplicate huge type must not count as distinct")
	}
	if _, ok := distinct.MatchWith(&s, entries(huge1, huge2)); !ok {
		t.Error("two distinct huge types must match")
	}
	if words := len(s.tset); words > maxDenseType/64 {
		t.Errorf("dense scratch grew to %d words for a huge id", words)
	}

	conj := MustCompile(Pattern{Steps: []Step{{Types: []event.Type{5, huge1}, All: true}}})
	if _, ok := conj.MatchWith(&s, entries(huge1, 5)); !ok {
		t.Error("conjunction over a huge listed id must match")
	}
	if _, ok := conj.MatchWith(&s, entries(huge2, 5)); ok {
		t.Error("conjunction must not accept a different huge id")
	}
}

// Property: a window read through its drop index (positions skipped by
// the shedder) matches exactly like a dense window holding only the kept
// events, once the dense matches' positions are mapped back to the
// window's — first and last selection, both consumption policies. The
// two View layouts (indexed, and position = index) must agree.
func TestViewLayoutsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		steps := make([]Step, rng.Intn(3)+1)
		for i := range steps {
			steps[i] = Step{Types: []event.Type{event.Type(rng.Intn(3))}}
		}
		indexedW, denseW := &window.Window{}, &window.Window{}
		var keptPos []int
		for p := 0; p < 60; p++ {
			if rng.Intn(3) == 0 {
				continue // dropped
			}
			e := event.Event{Seq: uint64(p), Type: event.Type(rng.Intn(3))}
			indexedW.Add(e, p)
			denseW.Add(e, len(keptPos))
			keptPos = append(keptPos, p)
		}
		indexed, dense := *indexedW.Entries(), *denseW.Entries()
		remap := func(m Match) Match {
			out := Match{Constituents: append([]window.Entry(nil), m.Constituents...)}
			for i := range out.Constituents {
				out.Constituents[i].Pos = keptPos[out.Constituents[i].Pos]
			}
			return out
		}
		for _, sel := range []SelectionPolicy{SelectFirst, SelectLast} {
			c := MustCompile(Pattern{Steps: steps, Selection: sel})
			a, okA := c.Match(indexed)
			b, okB := c.Match(dense)
			if okA != okB || (okA && !reflect.DeepEqual(a, remap(b))) {
				return false
			}
		}
		for _, cons := range []ConsumptionPolicy{ConsumeZero, Consumed} {
			c := MustCompile(Pattern{Steps: steps, Consumption: cons})
			a, b := c.MatchAll(indexed, 0), c.MatchAll(dense, 0)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if !reflect.DeepEqual(a[i], remap(b[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
