package core

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/window"
)

// Model is the trained utility model: the utility table UT plus the
// position shares S(T, P) — the probability-weighted expected number of
// events of each type per position bin per window — which Algorithm 1
// needs to turn UT into cumulative utility occurrences.
//
// A Model is immutable; retraining produces a fresh Model that the shedder
// swaps in atomically.
type Model struct {
	ut     *UtilityTable
	shares []float64 // [types][bins] expected events per window
	n      int       // logical window size N

	windows int // windows observed during training
	matches int // complex events observed during training
}

// UT returns the utility table.
func (m *Model) UT() *UtilityTable { return m.ut }

// N returns the logical window size the model was trained for.
func (m *Model) N() int { return m.n }

// Windows reports how many windows the model was trained on.
func (m *Model) Windows() int { return m.windows }

// Matches reports how many complex events contributed statistics.
func (m *Model) Matches() int { return m.matches }

// Share returns S(T, b): the expected number of events of type t in
// position bin b of a window.
func (m *Model) Share(t event.Type, b int) float64 {
	if t < 0 || int(t) >= m.ut.types || b < 0 || b >= m.ut.bins {
		return 0
	}
	return m.shares[int(t)*m.ut.bins+b]
}

// ExpectedEventsPerWindow sums the position shares: the average window
// size as seen in UT coordinates.
func (m *Model) ExpectedEventsPerWindow() float64 {
	total := 0.0
	for _, s := range m.shares {
		total += s
	}
	return total
}

// Trained reports whether the model carries enough evidence to shed
// safely: at least one observed complex event. An untrained model would
// assign utility 0 everywhere and a threshold lookup would then drop
// arbitrary events.
func (m *Model) Trained() bool { return m.matches > 0 && m.windows > 0 }

// ModelBuilderConfig configures model construction.
type ModelBuilderConfig struct {
	// Types is M, the number of event types (registry size).
	Types int
	// N is the logical window size (positions in UT). For count-based
	// windows this is the window size; for time-based windows, the average
	// seen window size (Section 3.6). If 0, the builder derives N from the
	// average observed window size at Build time.
	N int
	// BinSize aggregates bs neighboring positions per cell (0/1 = off).
	BinSize int
}

// ModelBuilder accumulates statistics from processed windows and the
// complex events detected in them (Section 3.3: "we collect statistics,
// from the already detected complex events, on the types and relative
// positions within windows"). Building the model is explicitly allowed to
// be heavier than shedding; it runs off the hot path.
//
// The builder is not safe for concurrent use; the operator owns it.
type ModelBuilder struct {
	cfg ModelBuilderConfig

	// Raw statistics at full position resolution when N is known up
	// front; otherwise buffered windows are replayed at Build time.
	matchCounts []float64 // [types][bins] constituents of complex events
	posCounts   []float64 // [types][bins] all window events (for shares)
	windows     int
	matchesSeen int
	sizeSum     uint64

	// When N is unknown (cfg.N == 0), observations are buffered until
	// Build so they can be scaled to the derived N.
	deferred    bool
	bufWindows  [][]window.Entry
	bufSizes    []int
	bufMatchIdx [][]int // per window: indices into entries that matched
}

// NewModelBuilder returns a builder for the given configuration.
func NewModelBuilder(cfg ModelBuilderConfig) (*ModelBuilder, error) {
	if cfg.Types <= 0 {
		return nil, fmt.Errorf("core: model builder needs Types > 0, got %d", cfg.Types)
	}
	if cfg.N < 0 {
		return nil, fmt.Errorf("core: model builder needs N >= 0, got %d", cfg.N)
	}
	if cfg.BinSize <= 0 {
		cfg.BinSize = 1
	}
	b := &ModelBuilder{cfg: cfg}
	if cfg.N > 0 {
		bins := (cfg.N + cfg.BinSize - 1) / cfg.BinSize
		b.matchCounts = make([]float64, cfg.Types*bins)
		b.posCounts = make([]float64, cfg.Types*bins)
	} else {
		b.deferred = true
	}
	return b, nil
}

// scaledBin maps a position in a window of size ws to a bin index in a
// table with logical size n and the builder's bin size, using the center
// of the event's scaled range.
func scaledBin(pos, ws, n, binSize, bins int) int {
	if pos < 0 {
		pos = 0
	}
	p := pos
	if ws > 0 && ws != n {
		// Center mapping of the scaled range keeps building and shedding
		// lookups aligned for both scale-up and scale-down.
		p = (2*pos + 1) * n / (2 * ws)
	}
	if p >= n {
		p = n - 1
	}
	b := p / binSize
	if b >= bins {
		b = bins - 1
	}
	return b
}

// ObserveWindow records a closed window and the complex event detected in
// it (match may be nil when no complex event was found). Only kept entries
// are visible here — during training the shedder is inactive, so kept
// entries are the full window.
func (b *ModelBuilder) ObserveWindow(w *window.Window, matched []window.Entry) {
	ws := w.Size()
	if ws == 0 {
		return
	}
	b.windows++
	b.sizeSum += uint64(ws)
	if matched != nil {
		b.matchesSeen++
	}
	if b.deferred {
		v := w.Entries()
		b.bufWindows = append(b.bufWindows, w.CopyKept(nil))
		b.bufSizes = append(b.bufSizes, ws)
		idx := make([]int, 0, len(matched))
		for _, m := range matched {
			if i := v.Index(m.Pos); i >= 0 {
				idx = append(idx, i)
			}
		}
		b.bufMatchIdx = append(b.bufMatchIdx, idx)
		return
	}
	n := b.cfg.N
	bins := (n + b.cfg.BinSize - 1) / b.cfg.BinSize
	v := w.Entries()
	for i := 0; i < v.Len(); i++ {
		t := v.Type(i)
		if t < 0 || int(t) >= b.cfg.Types {
			continue // outside the configured registry slice: no cell to count
		}
		bin := scaledBin(v.Pos(i), ws, n, b.cfg.BinSize, bins)
		b.posCounts[int(t)*bins+bin]++
	}
	for _, ent := range matched {
		if ent.Ev.Type < 0 || int(ent.Ev.Type) >= b.cfg.Types {
			continue
		}
		bin := scaledBin(ent.Pos, ws, n, b.cfg.BinSize, bins)
		b.matchCounts[int(ent.Ev.Type)*bins+bin]++
	}
}

// WindowsSeen reports the number of observed windows.
func (b *ModelBuilder) WindowsSeen() int { return b.windows }

// MatchesSeen reports the number of observed complex events.
func (b *ModelBuilder) MatchesSeen() int { return b.matchesSeen }

// AvgWindowSize returns the mean size of observed windows.
func (b *ModelBuilder) AvgWindowSize() float64 {
	if b.windows == 0 {
		return 0
	}
	return float64(b.sizeSum) / float64(b.windows)
}

// Merge folds another builder's accumulated statistics into b, leaving o
// untouched. Both builders must share the same configuration (types, N,
// bin size). Merging per-shard builders is numerically identical to
// feeding all their windows through a single builder, which is what lets
// shards accumulate statistics without contention and a supervisor
// combine them at (re)training time.
func (b *ModelBuilder) Merge(o *ModelBuilder) error {
	if o == nil {
		return nil
	}
	if o.cfg != b.cfg {
		return fmt.Errorf("core: cannot merge model builders with different configs (%+v vs %+v)",
			o.cfg, b.cfg)
	}
	if b.deferred {
		b.bufWindows = append(b.bufWindows, o.bufWindows...)
		b.bufSizes = append(b.bufSizes, o.bufSizes...)
		b.bufMatchIdx = append(b.bufMatchIdx, o.bufMatchIdx...)
	} else {
		for i, c := range o.matchCounts {
			b.matchCounts[i] += c
		}
		for i, c := range o.posCounts {
			b.posCounts[i] += c
		}
	}
	b.windows += o.windows
	b.matchesSeen += o.matchesSeen
	b.sizeSum += o.sizeSum
	return nil
}

// Snapshot returns an independent copy of the builder's current
// statistics: cheap — proportional to the table size, not to the windows
// observed — so a supervisor can capture a shard's state while the shard
// keeps accumulating. Buffered windows (deferred mode) are shared
// structurally; they are immutable once observed.
func (b *ModelBuilder) Snapshot() *ModelBuilder {
	cp := &ModelBuilder{
		cfg:         b.cfg,
		windows:     b.windows,
		matchesSeen: b.matchesSeen,
		sizeSum:     b.sizeSum,
		deferred:    b.deferred,
	}
	if b.matchCounts != nil {
		cp.matchCounts = append([]float64(nil), b.matchCounts...)
		cp.posCounts = append([]float64(nil), b.posCounts...)
	}
	if b.deferred {
		cp.bufWindows = append([][]window.Entry(nil), b.bufWindows...)
		cp.bufSizes = append([]int(nil), b.bufSizes...)
		cp.bufMatchIdx = append([][]int(nil), b.bufMatchIdx...)
	}
	return cp
}

// Config returns the builder's (defaulted) configuration.
func (b *ModelBuilder) Config() ModelBuilderConfig { return b.cfg }

// Reset clears all accumulated statistics, for retraining after input
// distribution change (Section 3.6, "Model Retraining").
func (b *ModelBuilder) Reset() {
	for i := range b.matchCounts {
		b.matchCounts[i] = 0
	}
	for i := range b.posCounts {
		b.posCounts[i] = 0
	}
	b.windows = 0
	b.matchesSeen = 0
	b.sizeSum = 0
	b.bufWindows = nil
	b.bufSizes = nil
	b.bufMatchIdx = nil
}

// Build constructs the immutable Model from the accumulated statistics.
// Utilities are the per-cell match-constituent counts normalized by the
// maximum cell count and scaled to [0, 100] (Section 3.3).
func (b *ModelBuilder) Build() (*Model, error) {
	n := b.cfg.N
	matchCounts, posCounts := b.matchCounts, b.posCounts
	if b.deferred {
		if b.windows == 0 {
			return nil, fmt.Errorf("core: cannot build model: no windows observed")
		}
		n = int(b.AvgWindowSize() + 0.5)
		if n <= 0 {
			n = 1
		}
		bins := (n + b.cfg.BinSize - 1) / b.cfg.BinSize
		matchCounts = make([]float64, b.cfg.Types*bins)
		posCounts = make([]float64, b.cfg.Types*bins)
		for wi, ents := range b.bufWindows {
			ws := b.bufSizes[wi]
			for _, ent := range ents {
				if ent.Ev.Type < 0 || int(ent.Ev.Type) >= b.cfg.Types {
					continue
				}
				bin := scaledBin(ent.Pos, ws, n, b.cfg.BinSize, bins)
				posCounts[int(ent.Ev.Type)*bins+bin]++
			}
			for _, i := range b.bufMatchIdx[wi] {
				ent := ents[i]
				if ent.Ev.Type < 0 || int(ent.Ev.Type) >= b.cfg.Types {
					continue
				}
				bin := scaledBin(ent.Pos, ws, n, b.cfg.BinSize, bins)
				matchCounts[int(ent.Ev.Type)*bins+bin]++
			}
		}
	}
	if b.windows == 0 {
		return nil, fmt.Errorf("core: cannot build model: no windows observed")
	}

	ut, err := NewUtilityTable(b.cfg.Types, n, b.cfg.BinSize)
	if err != nil {
		return nil, err
	}
	maxCount := 0.0
	for _, c := range matchCounts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount > 0 {
		bins := ut.Bins()
		for t := 0; t < b.cfg.Types; t++ {
			for bin := 0; bin < bins; bin++ {
				c := matchCounts[t*bins+bin]
				u := int(c/maxCount*MaxUtility + 0.5)
				ut.Set(event.Type(t), bin, u)
			}
		}
	}

	shares := make([]float64, len(posCounts))
	for i, c := range posCounts {
		shares[i] = c / float64(b.windows)
	}
	return &Model{
		ut:      ut,
		shares:  shares,
		n:       n,
		windows: b.windows,
		matches: b.matchesSeen,
	}, nil
}

// NewUntrainedModel returns a model with no training evidence: all
// utilities and shares are zero and Trained() reports false, so a shedder
// built over it refuses to shed. It is the starting point of the online
// model lifecycle — a pipeline or query registers untrained and comes
// online once the lifecycle's first model is built and swapped in.
func NewUntrainedModel(types, n, binSize int) (*Model, error) {
	ut, err := NewUtilityTable(types, n, binSize)
	if err != nil {
		return nil, err
	}
	return &Model{
		ut:     ut,
		shares: make([]float64, types*ut.Bins()),
		n:      n,
	}, nil
}

// NewModelFromTable assembles a Model directly from a utility table and
// explicit position shares — used by tests and by the paper's running
// example, where UT and the shares are given (Table 1 and Figure 2).
// shares is indexed [type][bin] and must match the table dimensions.
func NewModelFromTable(ut *UtilityTable, shares [][]float64) (*Model, error) {
	if ut == nil {
		return nil, fmt.Errorf("core: nil utility table")
	}
	if len(shares) != ut.Types() {
		return nil, fmt.Errorf("core: shares rows = %d, want %d", len(shares), ut.Types())
	}
	flat := make([]float64, ut.Types()*ut.Bins())
	for t, row := range shares {
		if len(row) != ut.Bins() {
			return nil, fmt.Errorf("core: shares row %d has %d cols, want %d", t, len(row), ut.Bins())
		}
		copy(flat[t*ut.Bins():], row)
	}
	return &Model{
		ut:      ut.clone(),
		shares:  flat,
		n:       ut.N(),
		windows: 1,
		matches: 1,
	}, nil
}
