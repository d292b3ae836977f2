package core

import (
	"math"
	"testing"
	"testing/quick"
)

// paperExampleModel reconstructs the running example of Section 3.3:
// Table 1's utility table over two types A, B and window size 5, with
// position shares chosen to reproduce the CDT of Figure 2 exactly:
//
//	O(0)=1.2  O(5)=1.4  O(10)=2.3  O(15)=2.8  O(30)=3.7  O(60)=4.2  O(70)=5
func paperExampleModel(t *testing.T) *Model {
	t.Helper()
	ut, err := NewUtilityTable(2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	const A, B = 0, 1
	utA := []int{70, 15, 10, 5, 0}
	utB := []int{0, 60, 30, 10, 0}
	for p := 0; p < 5; p++ {
		ut.Set(A, p, utA[p])
		ut.Set(B, p, utB[p])
	}
	shares := [][]float64{
		{0.8, 0.5, 0.1, 0.2, 0.5}, // S(A, 1..5)
		{0.2, 0.5, 0.9, 0.8, 0.5}, // S(B, 1..5)
	}
	m, err := NewModelFromTable(ut, shares)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunningExamplePaper(t *testing.T) {
	m := paperExampleModel(t)
	part := Partitioning{Rho: 1, PSize: 5, WS: 5}
	cdt, err := BuildCDT(m, part)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2's cumulative utility occurrences.
	want := map[int]float64{
		0: 1.2, 5: 1.4, 10: 2.3, 15: 2.8, 30: 3.7, 60: 4.2, 70: 5, 100: 5,
	}
	for u, w := range want {
		if got := cdt.At(0, u); math.Abs(got-w) > 1e-9 {
			t.Errorf("CDT(%d) = %v, want %v", u, got, w)
		}
	}
	// "To drop x = 2 events from each window, CDT(10) = 2.3 > x, thus we
	// use the utility threshold u_th = 10."
	if got := cdt.Threshold(0, 2); got != 10 {
		t.Errorf("Threshold(x=2) = %d, want 10", got)
	}
	// Additional thresholds implied by the figure.
	if got := cdt.Threshold(0, 1); got != 0 {
		t.Errorf("Threshold(x=1) = %d, want 0 (O(0)=1.2 >= 1)", got)
	}
	if got := cdt.Threshold(0, 5); got != 70 {
		t.Errorf("Threshold(x=5) = %d, want 70", got)
	}
	// Impossible demand: drop more than the window holds.
	if got := cdt.Threshold(0, 50); got != MaxUtility {
		t.Errorf("Threshold(x=50) = %d, want %d", got, MaxUtility)
	}
}

func TestComputePartitioning(t *testing.T) {
	tests := []struct {
		name      string
		ws        int
		qmax, f   float64
		wantRho   int
		wantPSize int
	}{
		// Buffer = qmax - f*qmax = 200; ws fits in one partition.
		{"single partition", 100, 1000, 0.8, 1, 100},
		// Buffer = 200, ws = 700 -> rho = 4, psize = 175.
		{"multi partition", 700, 1000, 0.8, 4, 175},
		// Exact fit.
		{"exact", 200, 1000, 0.8, 1, 200},
		{"just over", 201, 1000, 0.8, 2, 101},
		// Degenerate buffer (< 1 event) clamps to per-event shedding.
		{"tiny buffer", 5, 1, 0.9, 5, 1},
		// Zero/negative ws clamps.
		{"zero ws", 0, 100, 0.8, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := ComputePartitioning(tt.ws, tt.qmax, tt.f)
			if p.Rho != tt.wantRho || p.PSize != tt.wantPSize {
				t.Errorf("got rho=%d psize=%d, want rho=%d psize=%d",
					p.Rho, p.PSize, tt.wantRho, tt.wantPSize)
			}
		})
	}
}

func TestBuildCDTValidation(t *testing.T) {
	if _, err := BuildCDT(nil, Partitioning{Rho: 1}); err == nil {
		t.Error("nil model must fail")
	}
	m := paperExampleModel(t)
	if _, err := BuildCDT(m, Partitioning{Rho: 0}); err == nil {
		t.Error("rho=0 must fail")
	}
}

func TestCDTPerPartition(t *testing.T) {
	// Utilities increase along the window: the first partition holds all
	// the low-utility mass.
	ut, _ := NewUtilityTable(1, 4, 1)
	for p := 0; p < 4; p++ {
		ut.Set(0, p, p*10) // 0, 10, 20, 30
	}
	m, err := NewModelFromTable(ut, [][]float64{{1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	part := Partitioning{Rho: 2, PSize: 2, WS: 4}
	cdt, err := BuildCDT(m, part)
	if err != nil {
		t.Fatal(err)
	}
	if cdt.Rho() != 2 {
		t.Fatalf("Rho() = %d", cdt.Rho())
	}
	// Partition 0 holds positions 0,1 (utilities 0,10); partition 1 holds
	// 2,3 (20,30).
	if got := cdt.At(0, 0); got != 1 {
		t.Errorf("part0 O(0) = %v, want 1", got)
	}
	if got := cdt.At(0, 10); got != 2 {
		t.Errorf("part0 O(10) = %v, want 2", got)
	}
	if got := cdt.At(1, 10); got != 0 {
		t.Errorf("part1 O(10) = %v, want 0", got)
	}
	if got := cdt.At(1, 30); got != 2 {
		t.Errorf("part1 O(30) = %v, want 2", got)
	}
	// Per-partition thresholds for x=1 differ: part 0 can drop at u=0,
	// part 1 needs u=20.
	if got := cdt.Threshold(0, 1); got != 0 {
		t.Errorf("part0 threshold = %d", got)
	}
	if got := cdt.Threshold(1, 1); got != 20 {
		t.Errorf("part1 threshold = %d", got)
	}
	ths := cdt.Thresholds(1)
	if len(ths) != 2 || ths[0] != 0 || ths[1] != 20 {
		t.Errorf("Thresholds = %v", ths)
	}
}

func TestCDTOutOfRange(t *testing.T) {
	m := paperExampleModel(t)
	cdt, _ := BuildCDT(m, Partitioning{Rho: 1, PSize: 5, WS: 5})
	if cdt.At(-1, 0) != 0 || cdt.At(5, 0) != 0 || cdt.At(0, -1) != 0 || cdt.At(0, 101) != 0 {
		t.Error("out-of-range At must be 0")
	}
	if cdt.Threshold(-1, 1) != 0 || cdt.Threshold(9, 1) != 0 {
		t.Error("out-of-range Threshold must be 0")
	}
}

// Property: CDT rows are monotone non-decreasing in u, and the total mass
// equals the sum of all shares (within float tolerance).
func TestCDTMonotoneProperty(t *testing.T) {
	f := func(seed int64, rhoRaw uint8) bool {
		rho := int(rhoRaw)%4 + 1
		rng := newTestRand(seed)
		types, n := rng.Intn(4)+1, rng.Intn(30)+rho
		ut, err := NewUtilityTable(types, n, 1)
		if err != nil {
			return false
		}
		shares := make([][]float64, types)
		total := 0.0
		for ti := 0; ti < types; ti++ {
			shares[ti] = make([]float64, n)
			for p := 0; p < n; p++ {
				ut.Set(intToType(ti), p, rng.Intn(101))
				s := rng.Float64()
				shares[ti][p] = s
				total += s
			}
		}
		m, err := NewModelFromTable(ut, shares)
		if err != nil {
			return false
		}
		cdt, err := BuildCDT(m, ComputePartitioning(n, float64(n)/float64(rho)/0.2+1, 0.8))
		if err != nil {
			return false
		}
		grand := 0.0
		for p := 0; p < cdt.Rho(); p++ {
			prev := 0.0
			for u := 0; u <= MaxUtility; u++ {
				v := cdt.At(p, u)
				if v < prev-1e-12 {
					return false
				}
				prev = v
			}
			grand += cdt.At(p, MaxUtility)
		}
		return math.Abs(grand-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Threshold(part, x) returns the minimal u with O(u) >= x.
func TestThresholdMinimalityProperty(t *testing.T) {
	m := paperExampleModel(t)
	cdt, _ := BuildCDT(m, Partitioning{Rho: 1, PSize: 5, WS: 5})
	f := func(xRaw uint8) bool {
		x := float64(xRaw%6) + 0.1
		u := cdt.Threshold(0, x)
		if cdt.At(0, u) < x-thresholdEpsilon && u != MaxUtility {
			return false
		}
		if u > 0 && cdt.At(0, u-1) >= x-thresholdEpsilon {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
