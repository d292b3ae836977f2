package baseline

import (
	"math"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/window"
)

// DropProb reads the published drop probability of type t (0 when
// inactive or out of range).
func (b *BL) DropProb(t event.Type) float64 {
	probs := b.dropProb.Load()
	if probs == nil || t < 0 || int(t) >= b.types {
		return 0
	}
	return (*probs)[t]
}

// drop is one decision of d, its count discarded.
func drop(d operator.Decider, win window.ID, t event.Type, pos, ws int) bool {
	dropped, _ := d.DropCounted(win, t, pos, ws)
	return dropped
}

func blCfg() BLConfig {
	return BLConfig{
		Types: 3,
		Weights: pattern.TypeWeights{PerType: map[event.Type]float64{
			0: 2, // pattern needs type 0 twice
			1: 1,
			// type 2 never appears in the pattern
		}},
		Freq: []float64{4, 4, 12}, // per-window frequencies
		Seed: 42,
	}
}

func TestNewBLValidation(t *testing.T) {
	if _, err := NewBL(BLConfig{Types: 0}); err == nil {
		t.Error("Types=0 must fail")
	}
	if _, err := NewBL(BLConfig{Types: 2, Freq: []float64{1}}); err == nil {
		t.Error("Freq length mismatch must fail")
	}
	if _, err := NewBL(BLConfig{Types: 1, Freq: []float64{1}, UtilityDiscount: 2}); err == nil {
		t.Error("discount > 1 must fail")
	}
	if _, err := NewBL(BLConfig{Types: 1, Freq: []float64{1}, UtilityDiscount: -1}); err == nil {
		t.Error("negative discount must fail")
	}
}

func TestBLUtilityIsPatternRepetition(t *testing.T) {
	b, err := NewBL(blCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Utility(0); got != 2 {
		t.Errorf("Utility(0) = %v, want 2", got)
	}
	if got := b.Utility(1); got != 1 {
		t.Errorf("Utility(1) = %v, want 1", got)
	}
	if got := b.Utility(2); got != 0 {
		t.Errorf("Utility(2) = %v, want 0", got)
	}
	if b.Utility(-1) != 0 || b.Utility(9) != 0 {
		t.Error("OOB utility must be 0")
	}
}

func TestBLWildcardSpreadByFrequency(t *testing.T) {
	b, err := NewBL(BLConfig{
		Types:   2,
		Weights: pattern.TypeWeights{PerType: map[event.Type]float64{}, Wildcard: 10},
		Freq:    []float64{5, 15},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wildcard weight 10 spread 25%/75% by frequency.
	if math.Abs(b.Utility(0)-2.5) > 1e-12 || math.Abs(b.Utility(1)-7.5) > 1e-12 {
		t.Errorf("utilities = %v/%v, want 2.5/7.5", b.Utility(0), b.Utility(1))
	}
}

func TestBLQuotasDiscountedByUtility(t *testing.T) {
	b, err := NewBL(blCfg()) // beta defaults to 0.8
	if err != nil {
		t.Fatal(err)
	}
	if b.Active() {
		t.Fatal("inactive by default")
	}
	b.SetDropAmount(10, 20)
	if !b.Active() {
		t.Fatal("should be active")
	}
	// Weights: t0 = 4*(1-0.8*2/2) = 0.8; t1 = 4*(1-0.8*1/2) = 2.4;
	// t2 = 12*(1-0) = 12. Total = 15.2.
	// Quotas: t0 = 10*0.8/15.2 ≈ 0.526; prob = 0.526/4 ≈ 0.1316
	//         t1 = 10*2.4/15.2 ≈ 1.579; prob ≈ 0.3947
	//         t2 = 10*12/15.2 ≈ 7.895; prob ≈ 0.6579
	wantProbs := []float64{0.131578, 0.394736, 0.657894}
	for typ, want := range wantProbs {
		if got := b.DropProb(event.Type(typ)); math.Abs(got-want) > 1e-4 {
			t.Errorf("DropProb(%d) = %v, want %v", typ, got, want)
		}
	}
	// The expected total drops per window equal x:
	// sum(prob * freq) = 0.1316*4 + 0.3947*4 + 0.6579*12 = 10.
	total := 0.0
	for typ, f := range []float64{4, 4, 12} {
		total += b.DropProb(event.Type(typ)) * f
	}
	if math.Abs(total-10) > 1e-6 {
		t.Errorf("expected drops per window = %v, want 10", total)
	}
}

func TestBLHighUtilityTypesShieldedButNotExempt(t *testing.T) {
	// The defining weakness of BL (per the paper): because it cannot tell
	// which instances of a pattern type matter, pattern types still lose
	// instances under load.
	b, err := NewBL(blCfg())
	if err != nil {
		t.Fatal(err)
	}
	b.SetDropAmount(10, 20)
	if b.DropProb(0) <= 0 {
		t.Error("max-utility type should still have a small quota with beta < 1")
	}
	if b.DropProb(0) >= b.DropProb(1) || b.DropProb(1) >= b.DropProb(2) {
		t.Errorf("quotas must grow as utility falls: %v %v %v",
			b.DropProb(0), b.DropProb(1), b.DropProb(2))
	}
}

func TestBLBetaOneExemptsMaxUtility(t *testing.T) {
	cfg := blCfg()
	cfg.UtilityDiscount = 1
	b, err := NewBL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.SetDropAmount(10, 20)
	if got := b.DropProb(0); got != 0 {
		t.Errorf("beta=1 must exempt max-utility type, got %v", got)
	}
	if b.DropProb(2) <= 0 {
		t.Error("zero-utility type must carry quota")
	}
}

func TestBLBetaOneDegenerateFallsBackToFrequency(t *testing.T) {
	// All types at maximum utility with beta = 1: weights vanish; BL must
	// fall back to frequency-proportional dropping rather than shed
	// nothing (the latency bound cannot be sacrificed).
	b, err := NewBL(BLConfig{
		Types:           2,
		Weights:         pattern.TypeWeights{PerType: map[event.Type]float64{0: 1, 1: 1}},
		Freq:            []float64{10, 30},
		UtilityDiscount: 1,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.SetDropAmount(8, 40)
	// Frequency-proportional: quota t0 = 8*10/40 = 2 -> p = 0.2; same for t1.
	if got := b.DropProb(0); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("DropProb(0) = %v, want 0.2", got)
	}
	if got := b.DropProb(1); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("DropProb(1) = %v, want 0.2", got)
	}
}

func TestBLSamplingMatchesProbability(t *testing.T) {
	b, err := NewBL(blCfg())
	if err != nil {
		t.Fatal(err)
	}
	b.SetDropAmount(10, 20)
	want := b.DropProb(2)
	const trials = 40000
	drops := 0
	for i := 0; i < trials; i++ {
		if drop(b, window.ID(i/20), 2, i%20, 20) {
			drops++
		}
	}
	got := float64(drops) / trials
	if math.Abs(got-want) > 0.02 {
		t.Errorf("empirical drop rate = %v, want ~%v", got, want)
	}
}

func TestBLProbabilityClamp(t *testing.T) {
	b, err := NewBL(blCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Demand far beyond supply: probabilities clamp to 1.
	b.SetDropAmount(1000, 20)
	if got := b.DropProb(2); got != 1 {
		t.Errorf("DropProb(2) = %v, want 1", got)
	}
	if !drop(b, 0, 2, 0, 20) {
		t.Error("probability 1 must always drop")
	}
}

func TestBLDeactivate(t *testing.T) {
	b, err := NewBL(blCfg())
	if err != nil {
		t.Fatal(err)
	}
	b.SetDropAmount(5, 20)
	b.Deactivate()
	if b.Active() {
		t.Fatal("Deactivate failed")
	}
	for i := 0; i < 100; i++ {
		if drop(b, window.ID(i), 2, 0, 20) {
			t.Fatal("inactive BL must not drop")
		}
	}
	b.SetDropAmount(0, 20)
	if b.Active() {
		t.Error("x=0 must deactivate")
	}
}

func TestBLOOBTypeNeverDrops(t *testing.T) {
	b, _ := NewBL(blCfg())
	b.SetDropAmount(100, 20)
	if drop(b, 0, event.Type(9), 0, 20) || drop(b, 0, event.NoType, 0, 20) {
		t.Error("out-of-range types must not drop")
	}
	if b.DropProb(event.Type(9)) != 0 || b.DropProb(event.NoType) != 0 {
		t.Error("OOB DropProb must be 0")
	}
}

func TestRandomShedder(t *testing.T) {
	r := NewRandom(7)
	if r.Active() {
		t.Fatal("inactive by default")
	}
	for i := 0; i < 100; i++ {
		if drop(r, window.ID(i), 0, 0, 10) {
			t.Fatal("inactive random must not drop")
		}
	}
	r.SetDropAmount(3, 10) // 30%
	if !r.Active() {
		t.Fatal("should be active")
	}
	const trials = 50000
	drops := 0
	for i := 0; i < trials; i++ {
		if drop(r, window.ID(i/10), 0, i%10, 10) {
			drops++
		}
	}
	rate := float64(drops) / trials
	if math.Abs(rate-0.3) > 0.02 {
		t.Errorf("drop rate = %v, want ~0.3", rate)
	}
	r.Deactivate()
	if r.Active() {
		t.Error("Deactivate failed")
	}
}

func TestRandomClampAndZero(t *testing.T) {
	r := NewRandom(7)
	r.SetDropAmount(100, 10) // clamp to probability 1
	if !drop(r, 0, 0, 0, 10) {
		t.Error("probability 1 must always drop")
	}
	r.SetDropAmount(0, 10)
	if r.Active() {
		t.Error("x=0 must deactivate")
	}
	r.SetDropAmount(5, 0)
	if r.Active() {
		t.Error("ws=0 must deactivate")
	}
}

// TestSharedBaselinesDecideAsSerial shares one BL and one Random between
// four deciding goroutines, each over its own window IDs, while a fifth
// flips SetDropAmount/Deactivate (run under -race). Once the state is
// fixed again, every goroutine's decisions equal a single-goroutine pass:
// a decision depends on (window, position, state) alone.
func TestSharedBaselinesDecideAsSerial(t *testing.T) {
	bl, err := NewBL(blCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRandom(7)
	for _, tc := range []struct {
		name  string
		d     operator.Decider
		set   func(x float64)
		deact func()
	}{
		{"bl", bl, func(x float64) { bl.SetDropAmount(x, 20) }, bl.Deactivate},
		{"random", r, func(x float64) { r.SetDropAmount(x, 20) }, r.Deactivate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const fixedX = 7.0
			tc.set(fixedX)
			checkSharedDecisions(t, tc.d, func(i int) {
				if i%3 == 0 {
					tc.deact()
				} else {
					tc.set(float64(1 + i%11))
				}
			}, func() { tc.set(fixedX) })
		})
	}
}

// checkSharedDecisions records a single-goroutine pass of d over four
// disjoint window ranges, then lets four goroutines decide those ranges
// concurrently while flip(i) churns d's state; after restore() fixes the
// state again, each goroutine's next pass must equal its recorded range.
func checkSharedDecisions(t *testing.T, d operator.Decider, flip func(i int), restore func()) {
	t.Helper()
	const (
		deciders = 4
		windows  = 64 // per goroutine
		ws       = 20
	)
	pass := func(g int) []bool {
		out := make([]bool, 0, windows*ws)
		for w := g * windows; w < (g+1)*windows; w++ {
			for pos := 0; pos < ws; pos++ {
				out = append(out, drop(d, window.ID(w), event.Type(pos%3), pos, ws))
			}
		}
		return out
	}
	want := make([][]bool, deciders)
	drops := 0
	for g := range want {
		want[g] = pass(g)
		for _, dropped := range want[g] {
			if dropped {
				drops++
			}
		}
	}
	if drops == 0 || drops == deciders*windows*ws {
		t.Fatalf("fixed state drops %d of %d memberships; the check needs both outcomes", drops, deciders*windows*ws)
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
	for i := 0; i < 500; i++ {
		flip(i)
	}
	restore()
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
