package core

import (
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/window"
)

// dropIn is one decision of s in window win, its count discarded.
func dropIn(s *Shedder, win int, t event.Type, pos, ws int) bool {
	drop, _ := s.DropCounted(window.ID(win), t, pos, ws)
	return drop
}

func trainedModel(t *testing.T) *Model {
	t.Helper()
	return paperExampleModel(t)
}

func TestNewShedderValidation(t *testing.T) {
	if _, err := NewShedder(nil); err == nil {
		t.Error("nil model must fail")
	}
}

func TestShedderInactiveByDefault(t *testing.T) {
	s, err := NewShedder(trainedModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if s.Active() {
		t.Fatal("new shedder must be inactive")
	}
	if s.Drop(0, 0, 5) {
		t.Error("inactive shedder must not drop")
	}
	if s.Thresholds() != nil {
		t.Error("inactive shedder has no thresholds")
	}
}

func TestShedderRefusesUntrainedModel(t *testing.T) {
	ut, _ := NewUtilityTable(1, 4, 1)
	m := &Model{ut: ut, shares: make([]float64, 4), n: 4} // zero matches
	s, _ := NewShedder(m)
	err := s.Configure(Partitioning{Rho: 1, PSize: 4, WS: 4}, 1)
	if err == nil {
		t.Fatal("untrained model must refuse to shed")
	}
}

func TestShedderDropsLowUtilityOnly(t *testing.T) {
	// Paper example: with x=2 the threshold is 10; events with utility
	// <= 10 drop, others survive.
	s, _ := NewShedder(trainedModel(t))
	s.SetExactAmount(false)
	part := Partitioning{Rho: 1, PSize: 5, WS: 5}
	if err := s.Configure(part, 2); err != nil {
		t.Fatal(err)
	}
	if !s.Active() {
		t.Fatal("shedder should be active")
	}
	if got := s.Thresholds(); len(got) != 1 || got[0] != 10 {
		t.Fatalf("Thresholds = %v, want [10]", got)
	}
	const A, B = event.Type(0), event.Type(1)
	tests := []struct {
		name string
		typ  event.Type
		pos  int
		want bool
	}{
		{"A pos0 u=70 keep", A, 0, false},
		{"A pos1 u=15 keep", A, 1, false},
		{"A pos2 u=10 drop", A, 2, true},
		{"A pos3 u=5 drop", A, 3, true},
		{"A pos4 u=0 drop", A, 4, true},
		{"B pos0 u=0 drop", B, 0, true},
		{"B pos1 u=60 keep", B, 1, false},
		{"B pos2 u=30 keep", B, 2, false},
		{"B pos3 u=10 drop", B, 3, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.Drop(tt.typ, tt.pos, 5); got != tt.want {
				t.Errorf("Drop(%d,%d) = %v, want %v", tt.typ, tt.pos, got, tt.want)
			}
		})
	}
	if s.Decisions() != uint64(len(tests)) {
		t.Errorf("Decisions = %d, want %d", s.Decisions(), len(tests))
	}
	if s.Drops() != 5 {
		t.Errorf("Drops = %d, want 5", s.Drops())
	}
}

func TestShedderXZeroDeactivates(t *testing.T) {
	s, _ := NewShedder(trainedModel(t))
	part := Partitioning{Rho: 1, PSize: 5, WS: 5}
	if err := s.Configure(part, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Configure(part, 0); err != nil {
		t.Fatal(err)
	}
	if s.Active() {
		t.Error("x=0 must deactivate")
	}
}

func TestShedderDeactivate(t *testing.T) {
	s, _ := NewShedder(trainedModel(t))
	part := Partitioning{Rho: 1, PSize: 5, WS: 5}
	if err := s.Configure(part, 2); err != nil {
		t.Fatal(err)
	}
	s.Deactivate()
	if s.Active() {
		t.Fatal("Deactivate failed")
	}
	if s.Drop(0, 4, 5) {
		t.Error("deactivated shedder must not drop")
	}
	s.Deactivate() // idempotent
	// Reconfigure reuses the cached CDT (same partitioning).
	if err := s.Configure(part, 2); err != nil {
		t.Fatal(err)
	}
	if !s.Active() {
		t.Error("reactivation failed")
	}
	if s.X() != 2 {
		t.Errorf("X = %v", s.X())
	}
	if s.Partitioning() != part {
		t.Errorf("Partitioning = %+v", s.Partitioning())
	}
}

func TestShedderPerPartitionThresholds(t *testing.T) {
	// Two partitions with different utility mass: thresholds differ and
	// drop decisions respect the event's partition.
	ut, _ := NewUtilityTable(1, 4, 1)
	ut.Set(0, 0, 0)
	ut.Set(0, 1, 50)
	ut.Set(0, 2, 80)
	ut.Set(0, 3, 90)
	m, err := NewModelFromTable(ut, [][]float64{{1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewShedder(m)
	s.SetExactAmount(false)
	part := Partitioning{Rho: 2, PSize: 2, WS: 4}
	if err := s.Configure(part, 1); err != nil {
		t.Fatal(err)
	}
	ths := s.Thresholds()
	if ths[0] != 0 || ths[1] != 80 {
		t.Fatalf("thresholds = %v, want [0 80]", ths)
	}
	// Partition 0: only u=0 drops.
	if !s.Drop(0, 0, 4) {
		t.Error("pos0 (u=0) should drop")
	}
	if s.Drop(0, 1, 4) {
		t.Error("pos1 (u=50 > 0) should survive")
	}
	// Partition 1: u<=80 drops.
	if !s.Drop(0, 2, 4) {
		t.Error("pos2 (u=80) should drop")
	}
	if s.Drop(0, 3, 4) {
		t.Error("pos3 (u=90 > 80) should survive")
	}
}

func TestShedderUnknownWindowSizeFallsBackToN(t *testing.T) {
	s, _ := NewShedder(trainedModel(t))
	s.SetExactAmount(false)
	if err := s.Configure(Partitioning{Rho: 1, PSize: 5, WS: 5}, 2); err != nil {
		t.Fatal(err)
	}
	// ws=0: treated as N=5.
	if !s.Drop(0, 4, 0) { // A at pos4, u=0
		t.Error("fallback ws should drop low-utility event")
	}
	if s.Drop(0, 0, 0) { // A at pos0, u=70
		t.Error("fallback ws should keep high-utility event")
	}
}

func TestShedderSetModelResetsActivation(t *testing.T) {
	s, _ := NewShedder(trainedModel(t))
	if err := s.Configure(Partitioning{Rho: 1, PSize: 5, WS: 5}, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.SetModel(trainedModel(t)); err != nil {
		t.Fatal(err)
	}
	if s.Active() {
		t.Error("SetModel must deactivate until reconfigured")
	}
	if err := s.SetModel(nil); err == nil {
		t.Error("SetModel(nil) must fail")
	}
}

func TestShedderConcurrentDropAndConfigure(t *testing.T) {
	// Race-detector exercise: concurrent decisions while the detector
	// reconfigures.
	s, _ := NewShedder(trainedModel(t))
	part := Partitioning{Rho: 1, PSize: 5, WS: 5}
	stop := make(chan struct{})
	configDone := make(chan struct{})
	go func() {
		defer close(configDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				_ = s.Configure(part, 2)
			} else {
				s.Deactivate()
			}
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 10000; i++ {
				s.Drop(event.Type(i%2), i%5, 5)
			}
		}()
	}
	workers.Wait()
	close(stop)
	<-configDone
}

func TestShedderVariableWindowSize(t *testing.T) {
	// ws=10 vs N=5: positions scale down; partition mapping uses actual ws.
	s, _ := NewShedder(trainedModel(t))
	s.SetExactAmount(false)
	if err := s.Configure(Partitioning{Rho: 1, PSize: 5, WS: 5}, 2); err != nil {
		t.Fatal(err)
	}
	// Window of 10 events: pos 8,9 map to logical pos 4 (u=0 for A): drop.
	if !s.Drop(0, 9, 10) {
		t.Error("scaled low-utility event should drop")
	}
	// pos 0,1 map to logical 0 (u=70 for A): keep.
	if s.Drop(0, 0, 10) {
		t.Error("scaled high-utility event should survive")
	}
}

func TestShedderExactAmountBorderThinning(t *testing.T) {
	// Paper example at x=2: u_th = 10 with O(5) = 1.4 and O(10) = 2.3.
	// In exact mode, events below the threshold always drop; events at
	// exactly u=10 drop with probability (2-1.4)/0.9 ≈ 0.667 so that the
	// expected drops per window equal x.
	s, _ := NewShedder(trainedModel(t))
	if !s.ExactAmount() {
		t.Fatal("exact mode should be the default")
	}
	if err := s.Configure(Partitioning{Rho: 1, PSize: 5, WS: 5}, 2); err != nil {
		t.Fatal(err)
	}
	// Below threshold: always dropped.
	for i := 0; i < 100; i++ {
		if !dropIn(s, i, 0, 3, 5) { // A pos3, u=5 < 10
			t.Fatal("below-threshold event must always drop")
		}
	}
	// At threshold: dropped in ~2/3 of the windows.
	const trials = 30000
	drops := 0
	for i := 0; i < trials; i++ {
		if dropIn(s, i, 0, 2, 5) { // A pos2, u=10 == u_th
			drops++
		}
	}
	rate := float64(drops) / trials
	if rate < 0.62 || rate > 0.72 {
		t.Errorf("border drop rate = %v, want ~0.667", rate)
	}
	// Above threshold: never dropped.
	if s.Drop(0, 1, 5) { // A pos1, u=15
		t.Error("above-threshold event must survive")
	}
}

func TestShedderExactVsAtLeastExpectedDrops(t *testing.T) {
	// Over a full synthetic window, exact mode drops ≈ x events while
	// at-least mode drops every event at or below the threshold.
	ut, _ := NewUtilityTable(1, 10, 1)
	shares := [][]float64{make([]float64, 10)}
	for p := 0; p < 10; p++ {
		ut.Set(0, p, 0) // uniform utility: the worst case for overshoot
		shares[0][p] = 1
	}
	m, err := NewModelFromTable(ut, shares)
	if err != nil {
		t.Fatal(err)
	}
	part := Partitioning{Rho: 1, PSize: 10, WS: 10}
	const x, windows = 3.0, 4000

	countDrops := func(exact bool) float64 {
		s, _ := NewShedder(m)
		s.SetExactAmount(exact)
		if err := s.Configure(part, x); err != nil {
			t.Fatal(err)
		}
		total := 0
		for w := 0; w < windows; w++ {
			for p := 0; p < 10; p++ {
				if dropIn(s, w, 0, p, 10) {
					total++
				}
			}
		}
		return float64(total) / windows
	}
	atLeast := countDrops(false)
	if atLeast != 10 {
		t.Errorf("at-least mode dropped %v per window, want all 10", atLeast)
	}
	exact := countDrops(true)
	if exact < 2.8 || exact > 3.2 {
		t.Errorf("exact mode dropped %v per window, want ~3", exact)
	}
}

// --- Stale size predictions, batched counters, allocation freedom -------

// TestDropClampsStaleSizePrediction is the regression test for
// under-predicted time windows: when the window outgrows its predicted
// size (pos >= ws), the event must land in the last partition and read
// the last utility cell — exactly the decision made at pos = ws-1 — and
// the out-of-range position must never panic or skew the partition index.
func TestDropClampsStaleSizePrediction(t *testing.T) {
	s, err := NewShedder(trainedModel(t))
	if err != nil {
		t.Fatal(err)
	}
	s.SetExactAmount(false) // deterministic threshold comparison
	part := Partitioning{Rho: 5, PSize: 1, WS: 5}
	if err := s.Configure(part, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []event.Type{0, 1} {
		want := s.Drop(typ, 4, 5) // last in-range position
		for _, pos := range []int{5, 6, 50, 1 << 20} {
			if got := s.Drop(typ, pos, 5); got != want {
				t.Errorf("Drop(type %d, pos %d, ws 5) = %v, want %v (same as pos 4)",
					typ, pos, got, want)
			}
		}
	}
	// Negative positions clamp to the first partition likewise.
	want := s.Drop(0, 0, 5)
	if got := s.Drop(0, -3, 5); got != want {
		t.Errorf("Drop(pos -3) = %v, want %v (same as pos 0)", got, want)
	}
}

func TestDropCountedBatchesCounters(t *testing.T) {
	s, err := NewShedder(trainedModel(t))
	if err != nil {
		t.Fatal(err)
	}
	// Inactive: not a decision.
	if drop, counted := s.DropCounted(0, 0, 0, 5); drop || counted {
		t.Fatalf("inactive DropCounted = (%v, %v), want (false, false)", drop, counted)
	}
	if err := s.Configure(Partitioning{Rho: 1, PSize: 5, WS: 5}, 2); err != nil {
		t.Fatal(err)
	}
	var decisions, drops uint64
	for pos := 0; pos < 5; pos++ {
		drop, counted := s.DropCounted(0, 0, pos, 5)
		if !counted {
			t.Fatalf("active DropCounted at pos %d not counted", pos)
		}
		decisions++
		if drop {
			drops++
		}
	}
	if s.Decisions() != 0 || s.Drops() != 0 {
		t.Fatalf("DropCounted touched the shared counters: %d/%d", s.Decisions(), s.Drops())
	}
	s.TallyDecisions(decisions, drops)
	if s.Decisions() != decisions || s.Drops() != drops {
		t.Errorf("tally = %d/%d, want %d/%d", s.Decisions(), s.Drops(), decisions, drops)
	}
}

func TestDropZeroAlloc(t *testing.T) {
	s, err := NewShedder(trainedModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Configure(Partitioning{Rho: 5, PSize: 1, WS: 5}, 0.5); err != nil {
		t.Fatal(err)
	}
	pos := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Drop(event.Type(pos%2), pos%7, 5) // pos%7 also crosses the clamp path
		pos++
	}); allocs != 0 {
		t.Errorf("Drop allocates %.3f/decision, want 0", allocs)
	}
}
