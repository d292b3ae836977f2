package pattern

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/window"
)

const (
	tA = event.Type(0)
	tB = event.Type(1)
	tC = event.Type(2)
	tD = event.Type(3)
)

func negPattern(t *testing.T) *Compiled {
	t.Helper()
	// seq(A; !B; C): A then C with no B in between.
	return MustCompile(Pattern{
		Steps: []Step{
			{Types: []event.Type{tA}},
			{Types: []event.Type{tB}, Neg: true},
			{Types: []event.Type{tC}},
		},
	})
}

func TestNegationValidation(t *testing.T) {
	cases := []struct {
		name string
		p    Pattern
	}{
		{"neg with anyN", Pattern{Steps: []Step{
			{Types: []event.Type{tA}},
			{Types: []event.Type{tB}, Neg: true, AnyN: 2},
		}}},
		{"neg with all", Pattern{Steps: []Step{
			{Types: []event.Type{tA}},
			{Types: []event.Type{tB}, Neg: true, All: true},
		}}},
		{"adjacent negs", Pattern{Steps: []Step{
			{Types: []event.Type{tA}},
			{Types: []event.Type{tB}, Neg: true},
			{Types: []event.Type{tC}, Neg: true},
			{Types: []event.Type{tD}},
		}}},
		{"only negs", Pattern{Steps: []Step{{Types: []event.Type{tA}, Neg: true}}}},
		{"anchored leading neg", Pattern{
			Steps:    []Step{{Types: []event.Type{tA}, Neg: true}, {Types: []event.Type{tB}}},
			Anchored: true,
		}},
		{"neg with last policy", Pattern{
			Steps: []Step{
				{Types: []event.Type{tA}},
				{Types: []event.Type{tB}, Neg: true},
				{Types: []event.Type{tC}},
			},
			Selection: SelectLast,
		}},
		{"cumulative not final", Pattern{Steps: []Step{
			{Types: []event.Type{tA}, Cumulative: true},
			{Types: []event.Type{tB}},
		}}},
		{"cumulative with last", Pattern{
			Steps:     []Step{{Types: []event.Type{tA}}, {Types: []event.Type{tB}, Cumulative: true}},
			Selection: SelectLast,
		}},
		{"conjunction without types", Pattern{Steps: []Step{{All: true}}}},
		{"conjunction with anyN", Pattern{Steps: []Step{{Types: []event.Type{tA}, All: true, AnyN: 2}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Compile(tc.p); err == nil {
				t.Errorf("expected compile error")
			}
		})
	}
}

func TestNegationBasic(t *testing.T) {
	c := negPattern(t)
	// Clean gap: match.
	m, ok := c.Match(entries(tA, tD, tC))
	if !ok {
		t.Fatal("no match")
	}
	if got, want := seqs(m), []uint64{0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
	// B in the gap: no match.
	if _, ok := c.Match(entries(tA, tB, tC)); ok {
		t.Error("negated event in gap must block the match")
	}
	// B before A is irrelevant.
	if _, ok := c.Match(entries(tB, tA, tC)); !ok {
		t.Error("negation only constrains the gap")
	}
	// B after C is irrelevant.
	if _, ok := c.Match(entries(tA, tC, tB)); !ok {
		t.Error("negation does not constrain after the next step")
	}
}

func TestNegationBacktracksOverAnchors(t *testing.T) {
	// Stream A B A C: the first A is blocked by B, but the second A
	// completes — greedy would fail, the backtracker must not.
	c := negPattern(t)
	m, ok := c.Match(entries(tA, tB, tA, tC))
	if !ok {
		t.Fatal("backtracking match failed")
	}
	if got, want := seqs(m), []uint64{2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
}

func TestTrailingNegation(t *testing.T) {
	// seq(A; C; !B): no B between C and window close.
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{tA}},
		{Types: []event.Type{tC}},
		{Types: []event.Type{tB}, Neg: true},
	}})
	if _, ok := c.Match(entries(tA, tC, tD)); !ok {
		t.Error("clean tail should match")
	}
	if _, ok := c.Match(entries(tA, tC, tB)); ok {
		t.Error("negated event in tail must block")
	}
	// Backtracking to a later C that avoids the tail B is impossible
	// here (B is last), but an earlier B can be skipped by choosing the
	// later C: stream A C B C -> choose second C? B before second C is
	// in the A..C gap? No: gap between A and C has no constraint (no neg
	// there); tail after second C is clean -> match.
	m, ok := c.Match(entries(tA, tC, tB, tC))
	if !ok {
		t.Fatal("should match via the second C")
	}
	if got, want := seqs(m), []uint64{0, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
}

func TestNegationWithAnchored(t *testing.T) {
	c := MustCompile(Pattern{
		Steps: []Step{
			{Types: []event.Type{tA}},
			{Types: []event.Type{tB}, Neg: true},
			{Types: []event.Type{tC}},
		},
		Anchored: true,
	})
	if m, ok := c.Match(entries(tA, tD, tC)); !ok || len(m.Constituents) != 2 {
		t.Errorf("anchored negation match = %v, %v", m, ok)
	}
	if _, ok := c.Match(entries(tA, tB, tC)); ok {
		t.Error("blocked gap")
	}
	if _, ok := c.Match(entries(tD, tA, tC)); ok {
		t.Error("anchor must hold")
	}
}

func TestNegationMatchAllSingle(t *testing.T) {
	c := negPattern(t)
	ms := c.MatchAll(entries(tA, tC, tA, tC), 0)
	if len(ms) != 1 {
		t.Fatalf("negation MatchAll = %d matches, want 1", len(ms))
	}
}

func TestConjunctionFirst(t *testing.T) {
	// seq(A; all(B,C)): B and C in any order after A.
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{tA}},
		{Types: []event.Type{tB, tC}, All: true},
	}})
	m, ok := c.Match(entries(tA, tC, tD, tB))
	if !ok {
		t.Fatal("no match")
	}
	if got, want := seqs(m), []uint64{0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
	// Missing one required type: no match.
	if _, ok := c.Match(entries(tA, tC, tC)); ok {
		t.Error("conjunction requires every type")
	}
	if c.Width() != 3 {
		t.Errorf("Width = %d, want 3", c.Width())
	}
}

func TestConjunctionLast(t *testing.T) {
	c := MustCompile(Pattern{
		Steps: []Step{
			{Types: []event.Type{tA}},
			{Types: []event.Type{tB, tC}, All: true},
		},
		Selection: SelectLast,
	})
	// Latest instances: B(4), C(3), with A(0) before them.
	m, ok := c.Match(entries(tA, tB, tC, tC, tB))
	if !ok {
		t.Fatal("no match")
	}
	if got, want := seqs(m), []uint64{0, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
}

func TestCumulativeSelection(t *testing.T) {
	// seq(A; cumulative B+): all Bs after the first A, at least 2.
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{tA}},
		{Types: []event.Type{tB}, AnyN: 2, Cumulative: true},
	}})
	m, ok := c.Match(entries(tA, tB, tC, tB, tB))
	if !ok {
		t.Fatal("no match")
	}
	if got, want := seqs(m), []uint64{0, 1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
	// Below the minimum: no match.
	if _, ok := c.Match(entries(tA, tB)); ok {
		t.Error("cumulative minimum not enforced")
	}
	// Distinct cumulative keeps one per type.
	cd := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{tA}},
		{Distinct: true, Cumulative: true}, // wildcard, one per type
	}})
	m, ok = cd.Match(entries(tA, tB, tB, tC))
	if !ok {
		t.Fatal("no match")
	}
	if len(m.Constituents) != 3 { // A is consumed by step 0; B, C collected (B dedup'd)
		t.Errorf("constituents = %d, want 3", len(m.Constituents))
	}
}

func TestConjunctionTypeWeights(t *testing.T) {
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{tA}},
		{Types: []event.Type{tB, tC}, All: true},
		{Types: []event.Type{tD}, Neg: true},
		{Types: []event.Type{tA}},
	}})
	w := c.TypeWeights()
	if w.PerType[tB] != 1 || w.PerType[tC] != 1 {
		t.Errorf("conjunction weights = %v", w.PerType)
	}
	if w.PerType[tA] != 2 {
		t.Errorf("A weight = %v, want 2", w.PerType[tA])
	}
	if w.PerType[tD] != 0 {
		t.Errorf("negated type weight = %v, want 0", w.PerType[tD])
	}
}

// bruteForceNeg checks seq(A; !B; C) semantics by exhaustive search.
func bruteForceNeg(types []event.Type) bool {
	for i, a := range types {
		if a != tA {
			continue
		}
		for k := i + 1; k < len(types); k++ {
			if types[k] != tC {
				continue
			}
			clean := true
			for g := i + 1; g < k; g++ {
				if types[g] == tB {
					clean = false
					break
				}
			}
			if clean {
				return true
			}
		}
	}
	return false
}

// Property: the backtracking matcher agrees with brute force on random
// streams for the canonical negation pattern.
func TestNegationCompletenessProperty(t *testing.T) {
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{tA}},
		{Types: []event.Type{tB}, Neg: true},
		{Types: []event.Type{tC}},
	}})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25)
		types := make([]event.Type, n)
		for i := range types {
			types[i] = event.Type(rng.Intn(4))
		}
		ents := entries(types...)
		_, got := c.Match(ents)
		return got == bruteForceNeg(types)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNegationWithAnyStep(t *testing.T) {
	// seq(A; !B; any 2 of C, D): gap constraint applies up to the first
	// event of the any-collection.
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{tA}},
		{Types: []event.Type{tB}, Neg: true},
		{Types: []event.Type{tC, tD}, AnyN: 2, Distinct: true},
	}})
	m, ok := c.Match(entries(tA, tC, tB, tD))
	if !ok {
		t.Fatal("no match: B after the any-step's first event is allowed")
	}
	if got, want := seqs(m), []uint64{0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("constituents = %v, want %v", got, want)
	}
	if _, ok := c.Match(entries(tA, tB, tC, tD)); ok {
		t.Error("B before the collection must block")
	}
	// Insufficient any events: backtracker must fail cleanly.
	if _, ok := c.Match(entries(tA, tC)); ok {
		t.Error("any(2) needs two events")
	}
}

func TestNegationWithConjunction(t *testing.T) {
	// seq(A; !D; all of B, C).
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{tA}},
		{Types: []event.Type{tD}, Neg: true},
		{Types: []event.Type{tB, tC}, All: true},
	}})
	m, ok := c.Match(entries(tA, tC, tD, tB))
	if !ok {
		t.Fatal("no match: D after the conjunction started is allowed")
	}
	if len(m.Constituents) != 3 {
		t.Errorf("constituents = %v", seqs(m))
	}
	if _, ok := c.Match(entries(tA, tD, tB, tC)); ok {
		t.Error("D before the conjunction must block")
	}
	// Incomplete conjunction fails.
	if _, ok := c.Match(entries(tA, tB, tB)); ok {
		t.Error("conjunction needs every type")
	}
}

func TestNegationWithCumulative(t *testing.T) {
	// seq(A; !B; cumulative 2 of C).
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{tA}},
		{Types: []event.Type{tB}, Neg: true},
		{Types: []event.Type{tC}, AnyN: 2, Cumulative: true},
	}})
	m, ok := c.Match(entries(tA, tC, tC, tC))
	if !ok {
		t.Fatal("no match")
	}
	if len(m.Constituents) != 4 {
		t.Errorf("cumulative should take all Cs: %v", seqs(m))
	}
	if _, ok := c.Match(entries(tA, tB, tC, tC)); ok {
		t.Error("B in the gap must block")
	}
	if _, ok := c.Match(entries(tA, tC)); ok {
		t.Error("cumulative minimum not met")
	}
	// Distinct cumulative under negation.
	cd := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{tA}},
		{Types: []event.Type{tB}, Neg: true},
		{Types: []event.Type{tC, tD}, AnyN: 2, Distinct: true, Cumulative: true},
	}})
	m, ok = cd.Match(entries(tA, tC, tC, tD))
	if !ok {
		t.Fatal("no match")
	}
	if len(m.Constituents) != 3 {
		t.Errorf("distinct cumulative = %v", seqs(m))
	}
}

func TestNegationWildcard(t *testing.T) {
	// seq(A; !*; C): nothing at all may sit between A and C.
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{tA}},
		{Neg: true},
		{Types: []event.Type{tC}},
	}})
	if _, ok := c.Match(entries(tA, tC)); !ok {
		t.Error("adjacent A,C should match")
	}
	if _, ok := c.Match(entries(tA, tD, tC)); ok {
		t.Error("any intervening event must block")
	}
}

func TestNegationPredicate(t *testing.T) {
	// Negation with a content predicate: only rising B blocks.
	rising := func(e event.Event) bool { return e.Kind == event.KindRising }
	c := MustCompile(Pattern{Steps: []Step{
		{Types: []event.Type{tA}},
		{Types: []event.Type{tB}, Neg: true, Pred: rising},
		{Types: []event.Type{tC}},
	}})
	ents := []window.Entry{
		{Ev: event.Event{Seq: 0, Type: tA}, Pos: 0},
		{Ev: event.Event{Seq: 1, Type: tB, Kind: event.KindFalling}, Pos: 1},
		{Ev: event.Event{Seq: 2, Type: tC}, Pos: 2},
	}
	if _, ok := c.Match(window.NewView(ents)); !ok {
		t.Error("falling B must not block")
	}
	ents[1].Ev.Kind = event.KindRising
	if _, ok := c.Match(window.NewView(ents)); ok {
		t.Error("rising B must block")
	}
}
