package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/window"
)

// MeasureShedderOverhead times the O(1) shedding decision (a utility-table
// lookup plus threshold comparison) against a calibrated per-event
// processing cost, reproducing Figure 10: LS overhead as a percentage of
// event processing time for growing window sizes, with M = 500 event
// types as in the paper's largest configuration.
//
// processingNsPerEvent is the reference cost of processing one event in
// the operator; pass a measured value (see CalibrateProcessingCost) or 0
// to use a conservative default of 1µs (th = 1M events/s — a *fast*
// operator, which makes the reported overhead an upper bound).
func MeasureShedderOverhead(windowSizes []int, types int, processingNsPerEvent float64) (*Figure, error) {
	if types <= 0 {
		types = 500
	}
	if processingNsPerEvent <= 0 {
		processingNsPerEvent = 1000
	}
	fig := &Figure{
		ID:     "Fig10",
		Title:  fmt.Sprintf("LS overhead vs window size (M=%d, processing=%.0fns/event)", types, processingNsPerEvent),
		XLabel: "window size",
		YLabel: "% overhead",
	}
	ser := Series{Label: "LS overhead"}
	rng := rand.New(rand.NewSource(42))
	for _, ws := range windowSizes {
		perDecision, err := timeShedderDecision(ws, types, rng)
		if err != nil {
			return nil, err
		}
		ser.X = append(ser.X, float64(ws))
		ser.Y = append(ser.Y, 100*perDecision/processingNsPerEvent)
		fig.Notes = append(fig.Notes, fmt.Sprintf("ws=%d: %.1f ns/decision", ws, perDecision))
	}
	fig.Series = []Series{ser}
	return fig, nil
}

// timeShedderDecision measures the average wall time of one Drop call on
// a model with the given dimensions, touching positions across the whole
// table to defeat cache-friendly access patterns just as a real window
// stream does.
func timeShedderDecision(ws, types int, rng *rand.Rand) (float64, error) {
	ut, err := core.NewUtilityTable(types, ws, 1)
	if err != nil {
		return 0, err
	}
	shares := make([][]float64, types)
	for t := 0; t < types; t++ {
		shares[t] = make([]float64, ut.Bins())
		for b := range shares[t] {
			ut.Set(event.Type(t), b, rng.Intn(101))
			shares[t][b] = rng.Float64()
		}
	}
	model, err := core.NewModelFromTable(ut, shares)
	if err != nil {
		return 0, err
	}
	shedder, err := core.NewShedder(model)
	if err != nil {
		return 0, err
	}
	part := core.ComputePartitioning(ws, float64(ws)/2, 0.8)
	if err := shedder.Configure(part, 1); err != nil {
		return 0, err
	}
	// Pre-generate lookup coordinates so RNG cost stays out of the loop.
	const samples = 1 << 16
	typesIdx := make([]event.Type, samples)
	posIdx := make([]int, samples)
	for i := range typesIdx {
		typesIdx[i] = event.Type(rng.Intn(types))
		posIdx[i] = rng.Intn(ws)
	}
	// Warm up, then measure.
	sink := false
	for i := 0; i < samples; i++ {
		drop, _ := shedder.DropCounted(0, typesIdx[i], posIdx[i], ws)
		sink = drop || sink
	}
	const rounds = 8
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < samples; i++ {
			drop, _ := shedder.DropCounted(window.ID(r), typesIdx[i], posIdx[i], ws)
			sink = drop || sink
		}
	}
	elapsed := time.Since(start)
	_ = sink
	return float64(elapsed.Nanoseconds()) / float64(rounds*samples), nil
}

// RunningExample renders the paper's running example (Section 3.3):
// Table 1's utility table, the CDT of Figure 2, and the threshold chosen
// for x = 2.
func RunningExample() (string, error) {
	ut, err := core.NewUtilityTable(2, 5, 1)
	if err != nil {
		return "", err
	}
	utA := []int{70, 15, 10, 5, 0}
	utB := []int{0, 60, 30, 10, 0}
	for p := 0; p < 5; p++ {
		ut.Set(0, p, utA[p])
		ut.Set(1, p, utB[p])
	}
	shares := [][]float64{
		{0.8, 0.5, 0.1, 0.2, 0.5},
		{0.2, 0.5, 0.9, 0.8, 0.5},
	}
	model, err := core.NewModelFromTable(ut, shares)
	if err != nil {
		return "", err
	}
	cdt, err := core.BuildCDT(model, core.Partitioning{Rho: 1, PSize: 5, WS: 5})
	if err != nil {
		return "", err
	}
	var b []byte
	b = append(b, "=== Table 1 + Figure 2: running example ===\n"...)
	b = append(b, "UT (utility per type and position):\n  pos:      1    2    3    4    5\n"...)
	for t, name := range []string{"A", "B"} {
		b = append(b, fmt.Sprintf("  %s:   ", name)...)
		for p := 0; p < 5; p++ {
			b = append(b, fmt.Sprintf("%5d", ut.At(event.Type(t), p))...)
		}
		b = append(b, '\n')
	}
	b = append(b, "CDT (cumulative utility occurrences O(u)):\n"...)
	for _, u := range []int{0, 5, 10, 15, 30, 60, 70} {
		b = append(b, fmt.Sprintf("  O(%3d) = %.1f\n", u, cdt.At(0, u))...)
	}
	b = append(b, fmt.Sprintf("threshold for x=2: u_th = %d (paper: 10)\n", cdt.Threshold(0, 2))...)
	return string(b), nil
}
