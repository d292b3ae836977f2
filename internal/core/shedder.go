package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/window"
)

// Shedder is the eSPICE load shedder LS (Section 3.5, Algorithm 2). Its
// per-event decision is a single utility-table lookup plus a partition
// threshold comparison — O(1) — so it can sit on the hot path of an
// already overloaded operator.
//
// The shedder is configured by the overload detector through Configure
// and Deactivate; decisions are read through DropCounted. Configuration
// and decisions may happen on different goroutines: the state is swapped
// atomically and is immutable once published, and a decision is a pure
// function of (window, position, published state) — the at-threshold
// coin included — so every shard of a pipeline shares one shedder and
// makes the decisions a serial run makes.
type Shedder struct {
	state atomic.Pointer[shedState]

	// exact selects exact-amount dropping: events strictly below the
	// threshold always drop, events exactly at the threshold drop with
	// the probability that makes the expected drops per partition equal
	// x. Algorithm 2 as printed drops *at least* x (every event <= u_th);
	// with the heavily skewed utility tables real training produces, that
	// over-drops by a wide margin, drains the queue far below the
	// trigger, and turns shedding into a low-duty-cycle burst process.
	// Exact mode realizes the paper's stated goal ("drop x events from
	// each partition") and yields the steady latency plateau of Figure 7.
	// Disable with SetExactAmount(false) for the literal algorithm.
	exact atomic.Bool

	// decisions/drops are lightweight counters for observability; they
	// are only approximate under concurrency (atomic adds).
	decisions atomic.Uint64
	drops     atomic.Uint64
}

type shedState struct {
	model *Model
	part  Partitioning
	cdt   *CDT
	uth   []int // per-partition utility thresholds
	// borderProb is the probability of dropping an event whose utility
	// equals the partition threshold, when exact-amount dropping is on;
	// 1.0 reproduces Algorithm 2 literally (drop at least x).
	borderProb []float64
	x          float64
}

// NewShedder returns an inactive shedder backed by the given model, with
// exact-amount dropping enabled.
func NewShedder(model *Model) (*Shedder, error) {
	if model == nil {
		return nil, fmt.Errorf("core: shedder needs a model")
	}
	s := &Shedder{}
	s.state.Store(&shedState{model: model})
	s.exact.Store(true)
	return s, nil
}

// SetExactAmount toggles exact-amount dropping (see the field comment);
// false reproduces Algorithm 2 literally (drop at least x).
func (s *Shedder) SetExactAmount(on bool) { s.exact.Store(on) }

// ExactAmount reports whether exact-amount dropping is enabled.
func (s *Shedder) ExactAmount() bool { return s.exact.Load() }

// SetModel swaps in a retrained model. The shedder deactivates until the
// next Configure call, since thresholds derived from the old model may
// not fit the new utility distribution. Use SwapModel to keep an active
// overload configuration shedding across the swap.
func (s *Shedder) SetModel(model *Model) error {
	if model == nil {
		return fmt.Errorf("core: SetModel needs a model")
	}
	for {
		old := s.state.Load()
		if s.state.CompareAndSwap(old, &shedState{model: model}) {
			return nil
		}
	}
}

// SwapModel atomically republishes the shedder around a retrained model
// without disturbing an active overload configuration: when shedding is
// active, the CDT and the per-partition thresholds are re-derived from
// the new model under the current partitioning and drop amount x, and the
// whole state is swapped in one atomic publish — concurrent decisions
// see either the old model with its thresholds or the new model with its
// thresholds, never a mix. An inactive shedder just adopts the model.
// Swapping in an untrained model deactivates shedding until the next
// Configure (there is no evidence to discriminate utilities).
// Safe to call concurrently with decisions, Configure and Deactivate.
func (s *Shedder) SwapModel(model *Model) error {
	if model == nil {
		return fmt.Errorf("core: SwapModel needs a model")
	}
	for {
		old := s.state.Load()
		next := &shedState{model: model}
		if old.uth != nil && model.Trained() {
			cdt, err := BuildCDT(model, old.part)
			if err != nil {
				return err
			}
			next = activeShedState(model, old.part, cdt, old.x)
		}
		if s.state.CompareAndSwap(old, next) {
			return nil
		}
	}
}

// Model returns the current model.
func (s *Shedder) Model() *Model { return s.state.Load().model }

// Active reports whether shedding is currently enabled.
func (s *Shedder) Active() bool { return s.state.Load().uth != nil }

// X returns the currently configured drop amount per partition.
func (s *Shedder) X() float64 { return s.state.Load().x }

// Partitioning returns the active partitioning (zero value when
// inactive).
func (s *Shedder) Partitioning() Partitioning { return s.state.Load().part }

// Thresholds returns a copy of the active per-partition thresholds, or
// nil when inactive.
func (s *Shedder) Thresholds() []int {
	st := s.state.Load()
	if st.uth == nil {
		return nil
	}
	return append([]int(nil), st.uth...)
}

// Configure activates shedding: drop x events from every partition of
// every window, under the given partitioning. It rebuilds the CDT only
// when the partitioning changed (the utility thresholds for a new x are a
// cheap lookup). An untrained model refuses to shed — there is no
// evidence to discriminate utilities yet.
func (s *Shedder) Configure(part Partitioning, x float64) error {
	for {
		old := s.state.Load()
		if !old.model.Trained() {
			return fmt.Errorf("core: refusing to shed with an untrained model")
		}
		if x <= 0 {
			s.Deactivate()
			return nil
		}
		cdt := old.cdt
		if cdt == nil || old.part != part {
			var err error
			cdt, err = BuildCDT(old.model, part)
			if err != nil {
				return err
			}
		}
		// Publish-by-CAS: a concurrent SwapModel may have republished the
		// state while the CDT was building; retrying re-reads the model so
		// thresholds never mix models.
		if s.state.CompareAndSwap(old, activeShedState(old.model, part, cdt, x)) {
			return nil
		}
	}
}

// activeShedState derives the published shedding state for a model under
// a partitioning and per-partition drop amount x: threshold lookup plus
// the at-threshold border probabilities for exact-amount dropping.
// Shared by Configure and SwapModel so both derive identically.
func activeShedState(model *Model, part Partitioning, cdt *CDT, x float64) *shedState {
	uth := cdt.Thresholds(x)
	border := make([]float64, len(uth))
	for p, u := range uth {
		border[p] = 1
		atU := cdt.At(p, u)
		below := 0.0
		if u > 0 {
			below = cdt.At(p, u-1)
		}
		if mass := atU - below; mass > 0 && x > below {
			if q := (x - below) / mass; q < 1 {
				border[p] = q
			}
		}
	}
	return &shedState{
		model:      model,
		part:       part,
		cdt:        cdt,
		uth:        uth,
		borderProb: border,
		x:          x,
	}
}

// Deactivate stops shedding; the model and any cached CDT are kept.
func (s *Shedder) Deactivate() {
	for {
		old := s.state.Load()
		if old.uth == nil {
			return
		}
		next := &shedState{model: old.model, part: old.part, cdt: old.cdt}
		if s.state.CompareAndSwap(old, next) {
			return
		}
	}
}

// Drop decides as window 0 (see DropCounted) and updates the
// observability counters with two atomic adds per call. It is kept only
// to time one decision in benchmarks/e2e: every call at the same
// position draws the same coin, so Drop does not thin at-threshold
// events across calls. Callers that shed use DropCounted with the
// window ID, plus TallyDecisions.
func (s *Shedder) Drop(t event.Type, pos, ws int) bool {
	drop, counted := s.DropCounted(0, t, pos, ws)
	if counted {
		s.decisions.Add(1)
		if drop {
			s.drops.Add(1)
		}
	}
	return drop
}

// DropCounted implements applyLS (Algorithm 2): it reports whether the
// event of type t at position pos within window win of (predicted) size
// ws should be dropped from that window, and whether the call counts as
// a decision (shedding active). The same event may be dropped from one
// window and kept in another, because its position — and hence its
// utility — differs per window. An event exactly at its partition's
// threshold drops when Coin(win, pos) falls below the partition's border
// probability. Callers tally the outcomes locally and flush them through
// TallyDecisions once per processing batch.
func (s *Shedder) DropCounted(win window.ID, t event.Type, pos, ws int) (drop, counted bool) {
	st := s.state.Load()
	if st.uth == nil {
		return false, false
	}
	if ws <= 0 {
		ws = st.model.N()
	}
	if pos < 0 {
		pos = 0
	}
	if pos >= ws {
		// Stale size prediction (the window outgrew ws): late events
		// belong to the last partition and read the last utility cell,
		// exactly as if the prediction had been pos+1.
		pos = ws - 1
	}
	// Partition of the event: partitions divide the actual window size.
	part := pos * st.part.Rho / ws
	if part >= st.part.Rho {
		part = st.part.Rho - 1
	}
	u := st.model.UT().Utility(t, pos, ws)
	switch {
	case u < st.uth[part]:
		return true, true
	case u == st.uth[part]:
		q := 1.0
		if s.exact.Load() {
			q = st.borderProb[part]
		}
		return q >= 1 || Coin(coinSeed, win, pos) < q, true
	}
	return false, true
}

// TallyDecisions folds a batch of locally counted DropCounted outcomes
// into the shedder's observability counters. Safe for concurrent use.
func (s *Shedder) TallyDecisions(decisions, drops uint64) {
	if decisions > 0 {
		s.decisions.Add(decisions)
	}
	if drops > 0 {
		s.drops.Add(drops)
	}
}

// coinSeed seeds the eSPICE shedder's at-threshold coin.
const coinSeed = 0x9E3779B97F4A7C15

// Coin is the shedders' one source of chance: a uniform value in [0, 1)
// that is a pure function of a seed, a window and a position in it — one
// splitmix64 finalisation of their mix. Window IDs are assigned by the
// windowing policy, so a membership draws the same coin on the serial,
// sharded and engine paths, whichever goroutine decides it.
func Coin(seed uint64, win window.ID, pos int) float64 {
	z := seed + uint64(win)*0x9E3779B97F4A7C15 + uint64(pos)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Decisions reports how many shedding decisions were taken while active.
func (s *Shedder) Decisions() uint64 { return s.decisions.Load() }

// Drops reports how many of those decisions dropped the event.
func (s *Shedder) Drops() uint64 { return s.drops.Load() }
