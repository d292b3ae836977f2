package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/event"
	"repro/internal/window"
)

// swapModels builds two trained models over the same dimensions with
// opposite utility placement, so a swap visibly changes decisions.
func swapModels(t *testing.T) (*Model, *Model) {
	t.Helper()
	mk := func(firstHalfHigh bool) *Model {
		ut, err := NewUtilityTable(1, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		shares := [][]float64{make([]float64, 10)}
		for p := 0; p < 10; p++ {
			high := p < 5
			if !firstHalfHigh {
				high = !high
			}
			if high {
				ut.Set(0, p, 90)
			}
			shares[0][p] = 1
		}
		m, err := NewModelFromTable(ut, shares)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return mk(true), mk(false)
}

// TestSwapModelPreservesActiveConfig: swapping a model into an actively
// shedding shedder must keep it active under the same partitioning and
// drop amount, with thresholds re-derived from the new model — identical
// to a fresh shedder configured directly over the new model.
func TestSwapModelPreservesActiveConfig(t *testing.T) {
	a, b := swapModels(t)
	part := Partitioning{Rho: 2, PSize: 5, WS: 10}
	const x = 2.5

	s, err := NewShedder(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Configure(part, x); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapModel(b); err != nil {
		t.Fatal(err)
	}
	if !s.Active() {
		t.Fatal("swap deactivated an active shedder")
	}
	if s.Partitioning() != part || s.X() != x {
		t.Fatalf("swap disturbed the overload config: part=%+v x=%v", s.Partitioning(), s.X())
	}
	if s.Model() != b {
		t.Fatal("model not swapped")
	}

	ref, err := NewShedder(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Configure(part, x); err != nil {
		t.Fatal(err)
	}
	got, want := s.Thresholds(), ref.Thresholds()
	if len(got) != len(want) {
		t.Fatalf("threshold count %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("threshold[%d] = %d, want %d (fresh Configure over new model)", i, got[i], want[i])
		}
	}
}

func TestSwapModelInactiveAdopts(t *testing.T) {
	a, b := swapModels(t)
	s, err := NewShedder(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SwapModel(b); err != nil {
		t.Fatal(err)
	}
	if s.Active() {
		t.Error("inactive shedder became active on swap")
	}
	if s.Model() != b {
		t.Error("model not adopted")
	}
	if err := s.SwapModel(nil); err == nil {
		t.Error("SwapModel(nil) must fail")
	}
}

// TestSwapModelUntrainedDeactivates: swapping an untrained model into an
// active shedder must stop shedding (no evidence to discriminate).
func TestSwapModelUntrainedDeactivates(t *testing.T) {
	a, _ := swapModels(t)
	s, err := NewShedder(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Configure(Partitioning{Rho: 2, PSize: 5, WS: 10}, 2); err != nil {
		t.Fatal(err)
	}
	um, err := NewUntrainedModel(1, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SwapModel(um); err != nil {
		t.Fatal(err)
	}
	if s.Active() {
		t.Error("untrained swap left the shedder active")
	}
	if s.Drop(0, 0, 10) {
		t.Error("deactivated shedder dropped")
	}
}

// TestSwapModelConcurrentDrop hammers Drop from several goroutines while
// the model is swapped back and forth and the detector reconfigures —
// the lifecycle's hot-swap scenario. Run under -race; also asserts no
// decision is ever lost (decisions == drops + keeps accounting holds).
func TestSwapModelConcurrentDrop(t *testing.T) {
	a, b := swapModels(t)
	part := Partitioning{Rho: 2, PSize: 5, WS: 10}
	s, err := NewShedder(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Configure(part, 2); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var decided atomic.Uint64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pos := g
			for !stop.Load() {
				var dec, drops uint64
				for i := 0; i < 64; i++ {
					drop, counted := s.DropCounted(window.ID(pos/10), 0, pos%10, 10)
					if counted {
						dec++
						if drop {
							drops++
						}
					}
					pos++
				}
				s.TallyDecisions(dec, drops)
				decided.Add(dec)
			}
		}(g)
	}
	for i := 0; i < 500; i++ {
		m := a
		if i%2 == 0 {
			m = b
		}
		if err := s.SwapModel(m); err != nil {
			t.Errorf("swap %d: %v", i, err)
			break
		}
		if i%7 == 0 {
			if err := s.Configure(part, float64(1+i%4)); err != nil {
				t.Errorf("configure %d: %v", i, err)
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if s.Decisions() != decided.Load() {
		t.Errorf("decision counter lost updates: %d vs %d", s.Decisions(), decided.Load())
	}
	if !s.Active() {
		t.Error("shedder ended inactive")
	}
}

// TestSharedShedderDecidesAsSerial shares one shedder between four
// deciding goroutines, each over its own window IDs, while a fifth flips
// Configure, Deactivate and SwapModel (run under -race). Once the state
// is fixed again, every goroutine's decisions — at-threshold coins
// included — equal a single-goroutine pass: a decision depends on
// (window, position, state) alone.
func TestSharedShedderDecidesAsSerial(t *testing.T) {
	m := paperExampleModel(t)
	other := paperExampleModel(t)
	other.UT().Set(0, 2, 40) // a model whose swap moves A's border
	part := Partitioning{Rho: 1, PSize: 5, WS: 5}
	const x = 2.0 // u_th = 10, border probability 2/3 (see BorderThinning)
	s, err := NewShedder(m)
	if err != nil {
		t.Fatal(err)
	}
	const (
		deciders = 4
		windows  = 256 // per goroutine
		ws       = 5
	)
	pass := func(g int) []bool {
		out := make([]bool, 0, windows*ws)
		for w := g * windows; w < (g+1)*windows; w++ {
			for pos := 0; pos < ws; pos++ {
				drop, _ := s.DropCounted(window.ID(w), event.Type(w%2), pos, ws)
				out = append(out, drop)
			}
		}
		return out
	}
	settle := func() {
		if err := s.SwapModel(m); err != nil {
			t.Fatal(err)
		}
		if err := s.Configure(part, x); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	want := make([][]bool, deciders)
	for g := range want {
		want[g] = pass(g)
	}
	// Pass 0 holds A's and B's at-threshold cells (A pos2, B pos3): the
	// coin must have come down both ways.
	border := map[bool]int{}
	for w := 0; w < windows; w++ {
		border[want[0][w*ws+2+w%2]]++
	}
	if border[true] == 0 || border[false] == 0 {
		t.Fatalf("at-threshold outcomes %v; the check needs both", border)
	}

	settled := make(chan struct{})
	got := make([][]bool, deciders)
	var wg sync.WaitGroup
	for g := 0; g < deciders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-settled:
					got[g] = pass(g)
					return
				default:
					pass(g)
				}
			}
		}(g)
	}
	for i := 0; i < 300; i++ {
		var err error
		switch i % 4 {
		case 0:
			err = s.Configure(part, float64(1+i%3))
		case 1:
			s.Deactivate()
		case 2:
			err = s.SwapModel(other)
		case 3:
			err = s.SwapModel(m)
		}
		if err != nil {
			t.Fatalf("flip %d: %v", i, err)
		}
	}
	settle()
	close(settled)
	wg.Wait()
	for g := range want {
		for i := range want[g] {
			if got[g][i] != want[g][i] {
				t.Fatalf("goroutine %d decision %d = %v, single-goroutine pass %v", g, i, got[g][i], want[g][i])
			}
		}
	}
}
