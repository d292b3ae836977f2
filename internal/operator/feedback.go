package operator

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/window"
)

// FeedbackTap is the sampled window-close observer of the online model
// lifecycle: it forwards every k-th closed window (kept entries plus the
// detected complex event's constituents) to an in-flight model builder
// and, once a reference model exists, to a drift detector.
//
// Cost model: the tap sits on the window-close path, so its steady-state
// cost is bounded by the sampling rate — non-sampled closes pay one
// counter increment and no allocation, sampled closes pay one short
// mutex section plus the builder/detector observation. The tap never
// retains the window or its entries past the call (the builder copies
// what it must buffer), honoring the window pooling contract: by the
// time entries would be poisoned by the window's release, the tap is
// done with them.
//
// A tap belongs to exactly one window-closing Owner (the serial
// operator's, or one shard's); the builder behind it is additionally
// guarded by a mutex so a lifecycle supervisor can snapshot, merge and
// reset it from its own goroutine.
type FeedbackTap struct {
	every uint64 // sample every k-th closed window (>= 1)
	count uint64 // closes since the last sample; tap-goroutine only

	mu      sync.Mutex
	builder *core.ModelBuilder
	drift   *core.DriftDetector

	closed  atomic.Uint64 // windows seen
	sampled atomic.Uint64 // windows forwarded
}

// NewFeedbackTap builds a tap over the given model builder, observing
// every k-th closed window (every <= 1 observes all of them).
func NewFeedbackTap(builder *core.ModelBuilder, every int) (*FeedbackTap, error) {
	if builder == nil {
		return nil, fmt.Errorf("operator: feedback tap needs a model builder")
	}
	if every < 1 {
		every = 1
	}
	return &FeedbackTap{every: uint64(every), builder: builder}, nil
}

// SetDrift installs (or replaces) the drift detector fed by sampled
// windows. Safe to call while the tap observes traffic.
func (t *FeedbackTap) SetDrift(d *core.DriftDetector) {
	t.mu.Lock()
	t.drift = d
	t.mu.Unlock()
}

// OnWindowClose implements WindowCloseHook; Owner.SetTap installs it on
// an owner's close path.
func (t *FeedbackTap) OnWindowClose(w *window.Window, matched []window.Entry) {
	t.closed.Add(1)
	t.count++
	if t.count < t.every {
		return
	}
	t.count = 0
	t.mu.Lock()
	t.builder.ObserveWindow(w, matched)
	d := t.drift
	t.mu.Unlock()
	if d != nil {
		// The detector is internally synchronized and reads the entries
		// before returning; no retention.
		d.ObserveWindow(w, matched)
	}
	t.sampled.Add(1)
}

// WindowsClosed reports how many window closes the tap has seen.
func (t *FeedbackTap) WindowsClosed() uint64 { return t.closed.Load() }

// WindowsSampled reports how many closed windows were forwarded.
func (t *FeedbackTap) WindowsSampled() uint64 { return t.sampled.Load() }

// BuilderStats reads the tap builder's accumulation counters (windows
// observed, complex events observed) without disturbing it.
func (t *FeedbackTap) BuilderStats() (windows, matches int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.builder.WindowsSeen(), t.builder.MatchesSeen()
}

// DrainInto merges the tap's accumulated statistics into dst and resets
// the tap's builder, so the next accumulation round starts clean. The
// supervisor calls it on every tap at (re)training time.
func (t *FeedbackTap) DrainInto(dst *core.ModelBuilder) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := dst.Merge(t.builder); err != nil {
		return err
	}
	t.builder.Reset()
	return nil
}

// ResetBuilder discards the tap's accumulated statistics — the lifecycle
// uses it when a drift alarm invalidates everything gathered under the
// old distribution.
func (t *FeedbackTap) ResetBuilder() {
	t.mu.Lock()
	t.builder.Reset()
	t.mu.Unlock()
}
