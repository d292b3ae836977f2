// Package baseline implements the comparator load shedders of the eSPICE
// evaluation (Section 4.1): BL, a state-of-the-art-style strategy after
// He et al. (ICDT '14) that assigns utilities to event *types* from their
// repetition in the pattern and their frequency in windows and sheds by
// uniform sampling within types; and a fully random shedder.
//
// Neither baseline considers the order of events in patterns or input
// streams — the property eSPICE adds.
package baseline

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/window"
)

// DefaultUtilityDiscount is the default weight reduction applied to the
// drop quota of maximum-utility types (see BLConfig.UtilityDiscount).
const DefaultUtilityDiscount = 0.8

// BLConfig configures the BL shedder.
type BLConfig struct {
	// Types is M, the number of event types.
	Types int
	// Weights is the pattern's type repetition statistic (from
	// pattern.Compiled.TypeWeights), possibly merged over several
	// patterns.
	Weights pattern.TypeWeights
	// Freq[t] is the average number of events of type t per window,
	// collected during training.
	Freq []float64
	// UtilityDiscount (beta in [0,1]) controls how strongly a type's
	// utility shields it from dropping: the per-type drop weight is
	// freq * (1 - beta*normalizedUtility). beta = 1 exempts
	// maximum-utility types completely; beta = 0 ignores utilities
	// (pure frequency-proportional sampling). Defaults to
	// DefaultUtilityDiscount, mirroring the paper's observation that BL
	// still drops pattern-relevant instances because it cannot tell which
	// instances of a type matter.
	UtilityDiscount float64
	// Seed seeds the sampling coin (core.Coin).
	Seed int64
}

// BL is the baseline shedder. Per window it decides the amount of events
// to drop from each event type — types with higher utility (repetition in
// the pattern) receive proportionally smaller drop quotas — and drops the
// required amount from each type by uniform sampling within the type.
// Decisions depend only on the event type, never on position: BL has no
// notion of the order of events in the pattern or stream.
//
// Configuration (SetDropAmount) and decisions (DropCounted) may run on
// different goroutines: the per-type drop probabilities are published
// atomically and immutable once published, and the sampling coin is a
// pure function of (seed, window, position), so one BL serves every
// shard of a pipeline.
type BL struct {
	types    int
	utility  []float64 // per-type utility (repetition in the pattern)
	freq     []float64 // events per window per type
	beta     float64
	seed     uint64
	dropProb atomic.Pointer[[]float64] // per-type drop probability; nil when inactive
}

// NewBL builds the baseline shedder from pattern and window statistics.
func NewBL(cfg BLConfig) (*BL, error) {
	if cfg.Types <= 0 {
		return nil, fmt.Errorf("baseline: Types must be > 0, got %d", cfg.Types)
	}
	if len(cfg.Freq) != cfg.Types {
		return nil, fmt.Errorf("baseline: Freq has %d entries, want %d", len(cfg.Freq), cfg.Types)
	}
	beta := cfg.UtilityDiscount
	if beta == 0 {
		beta = DefaultUtilityDiscount
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("baseline: UtilityDiscount must be in [0,1], got %v", beta)
	}
	b := &BL{
		types:   cfg.Types,
		utility: make([]float64, cfg.Types),
		freq:    append([]float64(nil), cfg.Freq...),
		beta:    beta,
		seed:    uint64(cfg.Seed),
	}
	// A type's utility is its repetition in the pattern. Wildcard steps
	// (satisfiable by any type) spread their weight over observed types
	// proportionally to frequency.
	totalFreq := 0.0
	for _, f := range b.freq {
		totalFreq += f
	}
	for t := 0; t < cfg.Types; t++ {
		rep := cfg.Weights.PerType[event.Type(t)]
		if cfg.Weights.Wildcard > 0 && totalFreq > 0 {
			rep += cfg.Weights.Wildcard * b.freq[t] / totalFreq
		}
		b.utility[t] = rep
	}
	return b, nil
}

// Utility exposes the per-type utility (for tests and inspection).
func (b *BL) Utility(t event.Type) float64 {
	if t < 0 || int(t) >= b.types {
		return 0
	}
	return b.utility[t]
}

// Active reports whether shedding is enabled.
func (b *BL) Active() bool { return b.dropProb.Load() != nil }

// SetDropAmount activates shedding such that approximately x events are
// dropped per window: the demand is distributed over the event types
// proportionally to freq * (1 - beta*normalizedUtility), and within each
// type events are dropped by uniform sampling with probability
// quota/freq. ws is accepted for interface symmetry with other shedders;
// BL's quotas derive from the trained per-window frequencies.
func (b *BL) SetDropAmount(x float64, ws int) {
	_ = ws
	if x <= 0 {
		b.Deactivate()
		return
	}
	probs := b.dropProbs(x)
	b.dropProb.Store(&probs)
}

// dropProbs derives the per-type drop probabilities for x drops per
// window.
func (b *BL) dropProbs(x float64) []float64 {
	probs := make([]float64, b.types)
	maxU := 0.0
	for _, u := range b.utility {
		if u > maxU {
			maxU = u
		}
	}
	weights := make([]float64, b.types)
	totalW := 0.0
	for t := 0; t < b.types; t++ {
		if b.freq[t] <= 0 {
			continue
		}
		shield := 0.0
		if maxU > 0 {
			shield = b.beta * b.utility[t] / maxU
		}
		weights[t] = b.freq[t] * (1 - shield)
		totalW += weights[t]
	}
	if totalW <= 0 {
		// Degenerate: everything maximally shielded with beta == 1; fall
		// back to frequency-proportional dropping so the latency bound
		// still holds (quality is sacrificed, as BL must under overload).
		for t := 0; t < b.types; t++ {
			weights[t] = b.freq[t]
			totalW += weights[t]
		}
		if totalW <= 0 {
			return probs
		}
	}
	for t := 0; t < b.types; t++ {
		if weights[t] <= 0 || b.freq[t] <= 0 {
			continue
		}
		quota := x * weights[t] / totalW
		p := quota / b.freq[t]
		probs[t] = min(p, 1)
	}
	return probs
}

// Deactivate stops shedding.
func (b *BL) Deactivate() { b.dropProb.Store(nil) }

// DropCounted implements operator.Decider: a membership of type t drops
// when the coin of (window, position) falls below the type's drop
// probability. Window size is ignored: BL has no notion of order.
func (b *BL) DropCounted(win window.ID, t event.Type, pos, _ int) (drop, counted bool) {
	probs := b.dropProb.Load()
	if probs == nil {
		return false, false
	}
	if t < 0 || int(t) >= b.types {
		return false, true
	}
	return core.Coin(b.seed, win, pos) < (*probs)[t], true
}

// TallyDecisions implements operator.Decider; BL keeps no counters.
func (*BL) TallyDecisions(uint64, uint64) {}

// Random drops every membership with a fixed probability — the "completely
// random event shedder" the paper mentions as comprehensively outperformed.
// Like BL it publishes its probability atomically and draws from
// core.Coin, so one Random serves every shard of a pipeline.
type Random struct {
	seed uint64
	prob atomic.Pointer[float64] // nil when inactive
}

// NewRandom builds a random shedder with the given seed.
func NewRandom(seed int64) *Random { return &Random{seed: uint64(seed)} }

// SetDropAmount activates dropping of approximately x events per window
// of size ws, i.e. probability x/ws per membership.
func (r *Random) SetDropAmount(x float64, ws int) {
	if x <= 0 || ws <= 0 {
		r.Deactivate()
		return
	}
	p := min(x/float64(ws), 1)
	r.prob.Store(&p)
}

// Deactivate stops shedding.
func (r *Random) Deactivate() { r.prob.Store(nil) }

// Active reports whether shedding is enabled.
func (r *Random) Active() bool { return r.prob.Load() != nil }

// DropCounted implements operator.Decider.
func (r *Random) DropCounted(win window.ID, _ event.Type, pos, _ int) (drop, counted bool) {
	p := r.prob.Load()
	if p == nil {
		return false, false
	}
	return core.Coin(r.seed, win, pos) < *p, true
}

// TallyDecisions implements operator.Decider; Random keeps no counters.
func (*Random) TallyDecisions(uint64, uint64) {}
