package core

import (
	"testing"

	"repro/internal/event"
	"repro/internal/window"
)

// driftModel: type 0 has high utility in the first half of a 10-position
// window, zero elsewhere.
func driftModel(t *testing.T) *Model {
	t.Helper()
	ut, err := NewUtilityTable(1, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	shares := [][]float64{make([]float64, 10)}
	for p := 0; p < 10; p++ {
		if p < 5 {
			ut.Set(0, p, 80)
		}
		shares[0][p] = 1
	}
	m, err := NewModelFromTable(ut, shares)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func driftWindow(pos int) (*window.Window, []window.Entry) {
	w := &window.Window{ExpectedSize: 10}
	w.Arrivals = 10
	ev := event.Event{Type: 0}
	w.Add(ev, pos)
	return w, []window.Entry{{Ev: ev, Pos: pos}}
}

func TestNewDriftDetectorValidation(t *testing.T) {
	if _, err := NewDriftDetector(nil, DriftConfig{}); err == nil {
		t.Error("nil model must fail")
	}
	d, err := NewDriftDetector(driftModel(t), DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Reset(nil) is a bare rearm: the current model is kept.
	if err := d.Reset(nil); err != nil {
		t.Errorf("Reset(nil) rearm: %v", err)
	}
	if d.Model() == nil {
		t.Error("rearm dropped the model")
	}
}

// TestDriftRearmAfterAlarm covers the swap-then-rearm sequence: a bare
// Reset(nil) clears the alarm and statistic while keeping the reference
// model, and observing windows afterwards works (no nil-UT panic).
func TestDriftRearmAfterAlarm(t *testing.T) {
	d, err := NewDriftDetector(driftModel(t), DriftConfig{MinWindows: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		w, matched := driftWindow(i % 5)
		d.ObserveWindow(w, matched)
	}
	for i := 0; i < 300; i++ {
		w, matched := driftWindow(5 + i%5)
		d.ObserveWindow(w, matched)
	}
	if !d.Drifted() {
		t.Fatal("expected drift")
	}
	before := d.Model()
	if err := d.Reset(nil); err != nil {
		t.Fatal(err)
	}
	if d.Drifted() || d.Windows() != 0 {
		t.Error("rearm did not clear the alarm")
	}
	if d.Model() != before {
		t.Error("rearm replaced the model")
	}
	w, matched := driftWindow(0)
	d.ObserveWindow(w, matched)
	if d.Windows() != 1 {
		t.Errorf("post-rearm observation not counted: %d", d.Windows())
	}
}

func TestNoDriftOnStableStream(t *testing.T) {
	d, err := NewDriftDetector(driftModel(t), DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Constituents consistently in the high-utility region.
	for i := 0; i < 500; i++ {
		w, matched := driftWindow(i % 5)
		d.ObserveWindow(w, matched)
	}
	if d.Drifted() {
		t.Error("stable stream must not drift")
	}
	if d.Windows() != 500 {
		t.Errorf("Windows = %d", d.Windows())
	}
	if d.MismatchMean() != 0 {
		t.Errorf("MismatchMean = %v, want 0", d.MismatchMean())
	}
}

func TestDriftDetectedOnShift(t *testing.T) {
	d, err := NewDriftDetector(driftModel(t), DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: consistent.
	for i := 0; i < 100; i++ {
		w, matched := driftWindow(i % 5)
		d.ObserveWindow(w, matched)
	}
	if d.Drifted() {
		t.Fatal("premature drift")
	}
	// Phase 2: constituents move into the zero-utility half.
	for i := 0; i < 200 && !d.Drifted(); i++ {
		w, matched := driftWindow(5 + i%5)
		d.ObserveWindow(w, matched)
	}
	if !d.Drifted() {
		t.Fatal("shift not detected")
	}
	if d.MismatchMean() == 0 {
		t.Error("mismatch mean should have risen")
	}
}

func TestDriftWarmupSuppression(t *testing.T) {
	d, err := NewDriftDetector(driftModel(t), DriftConfig{MinWindows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		w, matched := driftWindow(5 + i%5) // always mismatching
		d.ObserveWindow(w, matched)
	}
	if d.Drifted() {
		t.Error("alarm must not fire during warm-up")
	}
}

func TestDriftResetClears(t *testing.T) {
	d, err := NewDriftDetector(driftModel(t), DriftConfig{MinWindows: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Stable phase, then a shift (Page-Hinkley detects mean increases,
	// not constant levels).
	for i := 0; i < 50; i++ {
		w, matched := driftWindow(i % 5)
		d.ObserveWindow(w, matched)
	}
	for i := 0; i < 300; i++ {
		w, matched := driftWindow(5 + i%5)
		d.ObserveWindow(w, matched)
	}
	if !d.Drifted() {
		t.Fatal("expected drift")
	}
	if err := d.Reset(driftModel(t)); err != nil {
		t.Fatal(err)
	}
	if d.Drifted() || d.Windows() != 0 || d.MismatchMean() != 0 {
		t.Error("Reset did not clear state")
	}
	// Healthy again after reset.
	for i := 0; i < 200; i++ {
		w, matched := driftWindow(i % 5)
		d.ObserveWindow(w, matched)
	}
	if d.Drifted() {
		t.Error("no drift after reset on stable stream")
	}
}

func TestDriftIgnoresUnmatchedWindows(t *testing.T) {
	d, err := NewDriftDetector(driftModel(t), DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := driftWindow(0)
	d.ObserveWindow(w, nil)
	d.ObserveWindow(nil, nil)
	d.ObserveWindow(&window.Window{}, []window.Entry{{}})
	if d.Windows() != 0 {
		t.Errorf("unmatched windows counted: %d", d.Windows())
	}
}
