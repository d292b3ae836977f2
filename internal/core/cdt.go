package core

import (
	"fmt"

	"repro/internal/event"
)

// Partitioning describes how windows are split into dropping intervals
// (Section 3.4, "Dropping Interval"): a window is divided into Rho
// partitions of PSize events each so that every partition fits into the
// queue headroom (qmax - f*qmax) that remains before the latency bound is
// violated.
type Partitioning struct {
	Rho   int // ρ: number of partitions per window
	PSize int // psize: partition size in events (relative to window size WS)
	WS    int // window size the partitioning was computed for
}

// ComputePartitioning derives the partitioning for a window of ws events
// given the maximum tolerable queue size qmax and trigger fraction f:
// ρ = ceil(ws / (qmax - f*qmax)), psize = ws / ρ.
//
// The buffer is clamped to at least one event so that a degenerate
// configuration still sheds (with per-event granularity) instead of
// dividing by zero.
func ComputePartitioning(ws int, qmax, f float64) Partitioning {
	if ws <= 0 {
		ws = 1
	}
	buffer := qmax - f*qmax
	if buffer < 1 {
		buffer = 1
	}
	rho := int(float64(ws)/buffer + 0.999999)
	if rho < 1 {
		rho = 1
	}
	if rho > ws {
		rho = ws
	}
	psize := (ws + rho - 1) / rho
	return Partitioning{Rho: rho, PSize: psize, WS: ws}
}

// CDT holds the cumulative utility occurrences O(u) per partition
// (Section 3.3 and Algorithm 1): CDT(part, u) is the expected number of
// events per partition whose utility is <= u. Utility values index the
// array directly, so threshold lookup is a linear scan over at most 101
// cells.
type CDT struct {
	rho int
	cum []float64 // [rho][MaxUtility+1]
}

// BuildCDT computes the per-partition cumulative utility occurrence
// tables from a model's UT and position shares (Algorithm 1, generalized
// to ρ partitions as required by Section 3.4: "we compute CDT for each
// partition of size psize within UT").
func BuildCDT(m *Model, part Partitioning) (*CDT, error) {
	if m == nil {
		return nil, fmt.Errorf("core: BuildCDT needs a model")
	}
	if part.Rho <= 0 {
		return nil, fmt.Errorf("core: BuildCDT needs Rho > 0, got %d", part.Rho)
	}
	ut := m.UT()
	c := &CDT{
		rho: part.Rho,
		cum: make([]float64, part.Rho*(MaxUtility+1)),
	}
	// Count occurrences o_u of each utility value, weighted by the
	// position shares S(T, P) (fractional occurrences: each position is
	// shared between event types).
	bins := ut.Bins()
	n := ut.N()
	for t := 0; t < ut.Types(); t++ {
		for b := 0; b < bins; b++ {
			share := m.Share(event.Type(t), b)
			if share == 0 {
				continue
			}
			u := ut.At(event.Type(t), b)
			// Map the bin's center position (in UT space) onto a partition
			// of the window: partitions are defined over window positions,
			// scaled into UT coordinates.
			center := b*ut.BinSize() + ut.BinSize()/2
			if center >= n {
				center = n - 1
			}
			p := center * part.Rho / n
			if p >= part.Rho {
				p = part.Rho - 1
			}
			c.cum[p*(MaxUtility+1)+u] += share
		}
	}
	// Accumulate in ascending utility order (Algorithm 1, lines 7-9).
	for p := 0; p < part.Rho; p++ {
		row := c.cum[p*(MaxUtility+1) : (p+1)*(MaxUtility+1)]
		for u := 1; u <= MaxUtility; u++ {
			row[u] += row[u-1]
		}
	}
	return c, nil
}

// Rho returns the number of partitions the CDT covers.
func (c *CDT) Rho() int { return c.rho }

// At returns O(u) for the given partition: the expected number of events
// per window-partition with utility <= u.
func (c *CDT) At(part, u int) float64 {
	if part < 0 || part >= c.rho || u < 0 || u > MaxUtility {
		return 0
	}
	return c.cum[part*(MaxUtility+1)+u]
}

// thresholdEpsilon absorbs float accumulation error when comparing the
// cumulative occurrences against the requested drop amount.
const thresholdEpsilon = 1e-9

// Threshold returns the utility threshold u_th for the partition: the
// smallest u with O(u) >= x (Algorithm 2, lines 1-7). If even dropping
// every event cannot reach x, it returns MaxUtility (drop everything in
// the partition).
func (c *CDT) Threshold(part int, x float64) int {
	if part < 0 || part >= c.rho {
		return 0
	}
	row := c.cum[part*(MaxUtility+1) : (part+1)*(MaxUtility+1)]
	for u := 0; u <= MaxUtility; u++ {
		if row[u] >= x-thresholdEpsilon {
			return u
		}
	}
	return MaxUtility
}

// Thresholds computes u_th for every partition at drop amount x.
func (c *CDT) Thresholds(x float64) []int {
	out := make([]int, c.rho)
	for p := range out {
		out[p] = c.Threshold(p, x)
	}
	return out
}
