package core

import (
	"math"
	"testing"

	"repro/internal/event"
	"repro/internal/window"
)

func mkWindow(t *testing.T, types []event.Type) *window.Window {
	t.Helper()
	w := &window.Window{ExpectedSize: len(types)}
	for i, typ := range types {
		w.Add(event.Event{Seq: uint64(i), Type: typ}, i)
		w.Arrivals++
	}
	return w
}

func TestNewModelBuilderValidation(t *testing.T) {
	if _, err := NewModelBuilder(ModelBuilderConfig{Types: 0, N: 5}); err == nil {
		t.Error("Types=0 must fail")
	}
	if _, err := NewModelBuilder(ModelBuilderConfig{Types: 1, N: -1}); err == nil {
		t.Error("negative N must fail")
	}
	if _, err := NewModelBuilder(ModelBuilderConfig{Types: 1, N: 5}); err != nil {
		t.Errorf("valid config failed: %v", err)
	}
}

func TestBuildRequiresWindows(t *testing.T) {
	b, _ := NewModelBuilder(ModelBuilderConfig{Types: 1, N: 5})
	if _, err := b.Build(); err == nil {
		t.Error("Build without observations must fail")
	}
	b2, _ := NewModelBuilder(ModelBuilderConfig{Types: 1}) // deferred
	if _, err := b2.Build(); err == nil {
		t.Error("deferred Build without observations must fail")
	}
}

func TestModelBuildingBasic(t *testing.T) {
	// Windows of 4 events, types A,B,A,B; the match always uses A at
	// position 0 and B at position 3.
	const A, B = event.Type(0), event.Type(1)
	b, err := NewModelBuilder(ModelBuilderConfig{Types: 2, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w := mkWindow(t, []event.Type{A, B, A, B})
		matched := []window.Entry{w.Entries().At(0), w.Entries().At(3)}
		b.ObserveWindow(w, matched)
	}
	if b.WindowsSeen() != 10 || b.MatchesSeen() != 10 {
		t.Fatalf("seen %d/%d", b.WindowsSeen(), b.MatchesSeen())
	}
	if b.AvgWindowSize() != 4 {
		t.Fatalf("AvgWindowSize = %v", b.AvgWindowSize())
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Trained() {
		t.Fatal("model should be trained")
	}
	ut := m.UT()
	// Match constituents get max utility; everything else zero.
	if got := ut.At(A, 0); got != 100 {
		t.Errorf("UT(A,0) = %d, want 100", got)
	}
	if got := ut.At(B, 3); got != 100 {
		t.Errorf("UT(B,3) = %d, want 100", got)
	}
	for _, cell := range []struct {
		typ event.Type
		b   int
	}{{A, 1}, {A, 2}, {A, 3}, {B, 0}, {B, 1}, {B, 2}} {
		if got := ut.At(cell.typ, cell.b); got != 0 {
			t.Errorf("UT(%d,%d) = %d, want 0", cell.typ, cell.b, got)
		}
	}
	// Shares: S(A,0)=1, S(B,1)=1, S(A,2)=1, S(B,3)=1, rest 0.
	wantShares := map[[2]int]float64{
		{0, 0}: 1, {1, 1}: 1, {0, 2}: 1, {1, 3}: 1,
	}
	for ti := 0; ti < 2; ti++ {
		for p := 0; p < 4; p++ {
			want := wantShares[[2]int{ti, p}]
			if got := m.Share(event.Type(ti), p); math.Abs(got-want) > 1e-12 {
				t.Errorf("Share(%d,%d) = %v, want %v", ti, p, got, want)
			}
		}
	}
	// The shares sum to the average window size.
	total := 0.0
	for _, s := range m.shares {
		total += s
	}
	if math.Abs(total-4) > 1e-12 {
		t.Errorf("shares sum to %v, want 4", total)
	}
}

func TestModelUtilityProportionalToFrequency(t *testing.T) {
	// A at position 0 matches twice as often as B at position 1: utility
	// ratio should be 100 vs 50.
	const A, B = event.Type(0), event.Type(1)
	b, _ := NewModelBuilder(ModelBuilderConfig{Types: 2, N: 2})
	for i := 0; i < 10; i++ {
		w := mkWindow(t, []event.Type{A, B})
		matched := []window.Entry{w.Entries().At(0)}
		if i%2 == 0 {
			matched = append(matched, w.Entries().At(1))
		}
		b.ObserveWindow(w, matched)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.UT().At(A, 0); got != 100 {
		t.Errorf("UT(A,0) = %d, want 100", got)
	}
	if got := m.UT().At(B, 1); got != 50 {
		t.Errorf("UT(B,1) = %d, want 50", got)
	}
}

func TestModelNoMatchesUntrained(t *testing.T) {
	b, _ := NewModelBuilder(ModelBuilderConfig{Types: 1, N: 2})
	b.ObserveWindow(mkWindow(t, []event.Type{0, 0}), nil)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.Trained() {
		t.Error("model without matches must not be trained")
	}
}

func TestModelEmptyWindowIgnored(t *testing.T) {
	b, _ := NewModelBuilder(ModelBuilderConfig{Types: 1, N: 2})
	b.ObserveWindow(&window.Window{}, nil)
	if b.WindowsSeen() != 0 {
		t.Error("empty window must be ignored")
	}
}

func TestModelVariableWindowScaling(t *testing.T) {
	// N=4 but observed windows have ws=8: positions scale down by 2.
	const A = event.Type(0)
	b, _ := NewModelBuilder(ModelBuilderConfig{Types: 1, N: 4})
	w := mkWindow(t, []event.Type{A, A, A, A, A, A, A, A})
	// Constituent at window position 6 -> logical position 3.
	b.ObserveWindow(w, []window.Entry{w.Entries().At(6)})
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.UT().At(A, 3); got != 100 {
		t.Errorf("UT(A,3) = %d, want 100 (scaled from pos 6/ws 8)", got)
	}
	// Shares: each logical cell holds 2 window positions worth of events.
	for p := 0; p < 4; p++ {
		if got := m.Share(A, p); math.Abs(got-2) > 1e-12 {
			t.Errorf("Share(A,%d) = %v, want 2", p, got)
		}
	}
}

func TestModelDeferredNDerivation(t *testing.T) {
	// N unset: builder derives N from the average window size (3 and 5 -> 4).
	const A = event.Type(0)
	b, _ := NewModelBuilder(ModelBuilderConfig{Types: 1})
	w1 := mkWindow(t, []event.Type{A, A, A})
	b.ObserveWindow(w1, []window.Entry{w1.Entries().At(0)})
	w2 := mkWindow(t, []event.Type{A, A, A, A, A})
	b.ObserveWindow(w2, []window.Entry{w2.Entries().At(4)})
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 4 {
		t.Fatalf("derived N = %d, want 4", m.N())
	}
	// w1 pos 0 (ws 3) -> logical 0; w2 pos 4 (ws 5) -> logical 3.
	if got := m.UT().At(A, 0); got != 100 {
		t.Errorf("UT(A,0) = %d, want 100", got)
	}
	if got := m.UT().At(A, 3); got != 100 {
		t.Errorf("UT(A,3) = %d, want 100", got)
	}
}

func TestModelBins(t *testing.T) {
	const A = event.Type(0)
	b, _ := NewModelBuilder(ModelBuilderConfig{Types: 1, N: 8, BinSize: 4})
	w := mkWindow(t, []event.Type{A, A, A, A, A, A, A, A})
	b.ObserveWindow(w, []window.Entry{w.Entries().At(1), w.Entries().At(2)})
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.UT().Bins() != 2 {
		t.Fatalf("Bins = %d, want 2", m.UT().Bins())
	}
	if got := m.UT().At(A, 0); got != 100 {
		t.Errorf("bin0 = %d, want 100", got)
	}
	if got := m.UT().At(A, 1); got != 0 {
		t.Errorf("bin1 = %d, want 0", got)
	}
	// Shares aggregate per bin: 4 events per bin.
	if got := m.Share(A, 0); math.Abs(got-4) > 1e-12 {
		t.Errorf("Share bin0 = %v, want 4", got)
	}
}

func TestModelBuilderReset(t *testing.T) {
	const A = event.Type(0)
	b, _ := NewModelBuilder(ModelBuilderConfig{Types: 1, N: 2})
	w := mkWindow(t, []event.Type{A, A})
	b.ObserveWindow(w, []window.Entry{w.Entries().At(0)})
	b.Reset()
	if b.WindowsSeen() != 0 || b.MatchesSeen() != 0 || b.AvgWindowSize() != 0 {
		t.Error("Reset did not clear counters")
	}
	if _, err := b.Build(); err == nil {
		t.Error("Build after Reset must fail until new observations arrive")
	}
	// Retraining works after Reset.
	w2 := mkWindow(t, []event.Type{A, A})
	b.ObserveWindow(w2, []window.Entry{w2.Entries().At(1)})
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.UT().At(A, 1); got != 100 {
		t.Errorf("retrained UT(A,1) = %d", got)
	}
	if got := m.UT().At(A, 0); got != 0 {
		t.Errorf("stale statistics survived Reset: UT(A,0) = %d", got)
	}
}

func TestNewModelFromTableValidation(t *testing.T) {
	ut, _ := NewUtilityTable(2, 3, 1)
	if _, err := NewModelFromTable(nil, nil); err == nil {
		t.Error("nil table must fail")
	}
	if _, err := NewModelFromTable(ut, [][]float64{{1, 1, 1}}); err == nil {
		t.Error("row count mismatch must fail")
	}
	if _, err := NewModelFromTable(ut, [][]float64{{1, 1}, {1, 1, 1}}); err == nil {
		t.Error("column count mismatch must fail")
	}
	m, err := NewModelFromTable(ut, [][]float64{{1, 1, 1}, {0.5, 0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Trained() {
		t.Error("table-built model should be trained")
	}
	if m.Share(1, 2) != 0.5 {
		t.Errorf("Share = %v", m.Share(1, 2))
	}
	// Out-of-range shares read as 0.
	if m.Share(5, 0) != 0 || m.Share(0, 9) != 0 {
		t.Error("OOB Share must be 0")
	}
}
