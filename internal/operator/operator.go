// Package operator implements the CEP operator of Figure 1 in the eSPICE
// paper: it consumes primitive events in stream order, routes them into
// windows, applies the load shedder, while it is active, to every
// (event, window) membership, runs the pattern matcher when windows
// close, and emits complex events.
//
// The operator treats the matcher as a black box exactly as the paper
// assumes: the load shedder interacts with it only through the detected
// complex events (via the OnWindowClose hook used for model building) and
// the per-membership Drop decision.
package operator

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/window"
)

// Decider is the shedding decision interface. While it is Active, it is
// called once per (event, window) membership with the window's ID, the
// event type, the event's position in that window, and the window's
// (predicted) size; while it is inactive, an Owner keeps every
// membership without asking, so an unshed event costs O(1) per owner.
// A decision must be O(1), since it sits on the hot path, and a pure
// function of those coordinates and the decider's published state: all
// shards of a pipeline share one decider, and serial and sharded runs
// must decide alike.
type Decider interface {
	// Active reports whether shedding is enabled. An Owner reads it once
	// per event and, while it is false, asks nothing else: an inactive
	// decider keeps every membership.
	Active() bool
	// DropCounted returns the drop decision and whether the call counts
	// as a decision (shedding active).
	DropCounted(win window.ID, t event.Type, pos, ws int) (drop, counted bool)
	// TallyDecisions folds locally accumulated decision/drop counts into
	// the decider's counters; the Owner flushes once per processing
	// batch, two atomic adds per batch instead of two per membership.
	TallyDecisions(decisions, drops uint64)
}

// ComplexEvent is the operator's output: a detected situation with the
// identity of its constituent primitive events.
type ComplexEvent struct {
	WindowID     window.ID
	WindowOpen   uint64   // sequence number of the window's opening event
	Pattern      string   // name of the matched pattern
	Constituents []uint64 // constituent event sequence numbers, in order
	DetectedAt   event.Time
}

// Key returns a canonical identity for quality comparison: two runs
// detect "the same" complex event iff window and constituents agree.
func (c ComplexEvent) Key() string {
	// Window IDs are deterministic per stream (windows are opened by the
	// pre-shedding stream), so WindowID plus constituents is stable.
	b := make([]byte, 0, 16+12*len(c.Constituents))
	b = appendUint(b, uint64(c.WindowID))
	for _, s := range c.Constituents {
		b = append(b, ':')
		b = appendUint(b, s)
	}
	return string(b)
}

func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// WindowCloseHook observes every closed window together with the
// constituents of the complex event detected in it (nil when none). The
// eSPICE model builder attaches here.
type WindowCloseHook func(w *window.Window, matched []window.Entry)

// Config assembles an operator.
type Config struct {
	// Window is the windowing policy (required).
	Window window.Spec
	// Patterns are tried in order per closed window; with
	// MaxMatchesPerWindow == 1 the first pattern that matches wins.
	// At least one pattern is required.
	Patterns []*pattern.Compiled
	// Shedder is consulted per membership; nil disables shedding.
	Shedder Decider
	// OnWindowClose is invoked for every closed window (optional).
	OnWindowClose WindowCloseHook
	// MaxMatchesPerWindow bounds matches per window; 0 defaults to 1,
	// the paper's evaluation setting ("the number of complex events per
	// window is one"). Values > 1 use the pattern's consumption policy.
	MaxMatchesPerWindow int
}

// Stats aggregates operator counters.
type Stats struct {
	EventsProcessed  uint64 // events routed (post-queue)
	Memberships      uint64 // (event, window) incidences seen
	MembershipsKept  uint64 // incidences surviving shedding
	MembershipsShed  uint64 // incidences dropped by the shedder
	WindowsClosed    uint64
	ComplexEvents    uint64
	WindowsWithMatch uint64
}

// Owner is one window-owning operator instance: it holds the windows
// placed on it (a window.Owner), makes the shedding decision for every
// membership, and closes windows — match, feedback tap, close hook,
// recycle — keeping the operator counters. The serial Operator drives
// one from its Policy's steps; each shard of the sharded runtime drives
// one from the partitioner's ops. Single-goroutine.
type Owner struct {
	win     window.Owner
	matcher *Matcher
	shedder Decider
	tap     *FeedbackTap
	hook    WindowCloseHook

	stats            Stats
	decisions, drops uint64 // batched decisions not yet tallied
}

// NewOwner builds an owner over cfg's patterns, shedder and close hook.
func NewOwner(cfg Config) (*Owner, error) {
	if len(cfg.Patterns) == 0 {
		return nil, fmt.Errorf("operator: at least one pattern is required")
	}
	for i, p := range cfg.Patterns {
		if p == nil {
			return nil, fmt.Errorf("operator: pattern %d is nil", i)
		}
	}
	return &Owner{
		matcher: NewMatcher(cfg.Patterns, cfg.MaxMatchesPerWindow),
		shedder: cfg.Shedder,
		hook:    cfg.OnWindowClose,
	}, nil
}

// SetTap installs the online model lifecycle's feedback tap, fed every
// closed window before the close hook (nil disables).
func (o *Owner) SetTap(t *FeedbackTap) { o.tap = t }

// Stats returns the owner's counters.
func (o *Owner) Stats() Stats { return o.stats }

// Windows returns the owner's windows.
func (o *Owner) Windows() *window.Owner { return &o.win }

// Open opens the window a Policy opened; its opening event is the next
// one routed.
func (o *Owner) Open(r window.Rec) { o.win.Open(r) }

// Route gives e a position in every open window and returns how many of
// those memberships were kept: e is stored once, in the ring. Without an
// active decider every membership is kept and no window is touched;
// otherwise each membership gets its shedding decision and a dropped
// one sets a bit.
func (o *Owner) Route(e event.Event) (kept int) {
	open := o.win.Push(e)
	if o.shedder == nil || !o.shedder.Active() {
		kept = len(open)
	} else {
		for _, w := range open {
			pos := o.win.Pos(w)
			if o.shed(w.ID, e.Type, pos, w.ExpectedSize) {
				w.Drop(pos)
			} else {
				kept++
			}
		}
	}
	o.stats.Memberships += uint64(len(open))
	o.stats.MembershipsKept += uint64(kept)
	o.stats.MembershipsShed += uint64(len(open) - kept)
	return kept
}

// shed is the membership shedding decision, counted for a later Tally.
func (o *Owner) shed(win window.ID, t event.Type, pos, ws int) bool {
	dropped, counted := o.shedder.DropCounted(win, t, pos, ws)
	if counted {
		o.decisions++
		if dropped {
			o.drops++
		}
	}
	return dropped
}

// Tally folds the batched decisions made since the last Tally into the
// decider's counters.
func (o *Owner) Tally() {
	if o.decisions > 0 {
		o.shedder.TallyDecisions(o.decisions, o.drops)
		o.decisions, o.drops = 0, 0
	}
}

// Close closes window id at time now: seals and binds it, matches it,
// feeds the tap and the close hook, and recycles it. The window's
// complex events are appended to ces.
func (o *Owner) Close(id window.ID, now event.Time, ces []ComplexEvent) []ComplexEvent {
	w := o.win.Close(id)
	o.stats.WindowsClosed++
	before := len(ces)
	ces, matched, found := o.matcher.MatchClosed(w, now, ces)
	o.stats.ComplexEvents += uint64(len(ces) - before)
	if found {
		o.stats.WindowsWithMatch++
	}
	if o.tap != nil {
		o.tap.OnWindowClose(w, matched)
	}
	if o.hook != nil {
		o.hook(w, matched)
	}
	// The matcher, the tap and the hook are done with the window.
	o.win.Release(w)
	return ces
}

// Operator is a single CEP operator instance: a window Policy driving an
// Owner inline. It is a single-goroutine component: the owner
// (simulator or runtime pump) calls Process serially.
type Operator struct {
	policy *window.Policy
	own    *Owner
	out    []ComplexEvent // reused buffer returned by Process/Flush
}

// New builds an operator from the configuration.
func New(cfg Config) (*Operator, error) {
	own, err := NewOwner(cfg)
	if err != nil {
		return nil, err
	}
	policy, err := window.NewPolicy(cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("operator: %w", err)
	}
	return &Operator{policy: policy, own: own}, nil
}

// SetTap installs a feedback tap (see Owner.SetTap).
func (o *Operator) SetTap(t *FeedbackTap) { o.own.SetTap(t) }

// Stats returns a snapshot of the operator counters.
func (o *Operator) Stats() Stats { return o.own.stats }

// ExpectedSize returns the window-size prediction new windows open with.
func (o *Operator) ExpectedSize() int { return o.policy.ExpectedSize() }

// Process consumes the next event in stream order and returns any complex
// events completed by it. The returned slice is reused across calls. In
// steady state (warm window pool, ring and matcher scratch) processing an
// event allocates nothing; only complex-event emission allocates, since
// those escape to the caller.
func (o *Operator) Process(e event.Event) []ComplexEvent {
	o.out = o.out[:0]
	o.own.stats.EventsProcessed++
	st := o.policy.Step(e)
	o.closeAll(st.Before, e.TS)
	if st.Opened {
		o.own.Open(st.Open)
	}
	o.own.Route(e)
	o.closeAll(st.After, e.TS)
	o.own.Tally()
	return o.out
}

// Flush closes all remaining windows at end of stream and returns their
// complex events. The returned slice is reused.
func (o *Operator) Flush(now event.Time) []ComplexEvent {
	o.out = o.out[:0]
	o.closeAll(o.policy.Flush(), now)
	return o.out
}

func (o *Operator) closeAll(closed []window.Rec, now event.Time) {
	for _, r := range closed {
		o.out = o.own.Close(r.ID, now, o.out)
	}
}

// Matcher runs the per-closed-window matching policy of every Owner
// (and of callers matching windows they filled themselves):
// patterns are tried in order, the first matching pattern wins, and with
// maxMatches == 1 only its first instance is taken. A Matcher owns the
// reusable match scratch, so it belongs to exactly one processing
// goroutine; the Compiled patterns behind it stay shared.
type Matcher struct {
	patterns   []*pattern.Compiled
	maxMatches int

	scratch pattern.MatchScratch
	matches []pattern.Match
	matched []window.Entry
}

// NewMatcher builds a matcher over the compiled patterns; maxMatches <= 0
// defaults to 1 (the paper's one-complex-event-per-window setting).
func NewMatcher(patterns []*pattern.Compiled, maxMatches int) *Matcher {
	if maxMatches <= 0 {
		maxMatches = 1
	}
	return &Matcher{patterns: patterns, maxMatches: maxMatches}
}

// MatchClosed matches one closed window's Entries: complex events are
// appended to ces and returned together with the matched constituent
// entries and whether any pattern matched. The matched entries are
// values in the matcher's scratch, valid only until the next MatchClosed
// call; copy them to retain them (an Owner hands them to the
// OnWindowClose hook under exactly that contract).
func (mt *Matcher) MatchClosed(w *window.Window, now event.Time, ces []ComplexEvent) ([]ComplexEvent, []window.Entry, bool) {
	entries := *w.Entries()
	for _, p := range mt.patterns {
		mt.matches = mt.matches[:0]
		if mt.maxMatches == 1 {
			if m, ok := p.MatchWith(&mt.scratch, entries); ok {
				mt.matches = append(mt.matches, m)
			}
		} else {
			mt.matches = p.MatchAllWith(&mt.scratch, entries, mt.maxMatches, mt.matches)
		}
		if len(mt.matches) == 0 {
			continue
		}
		mt.matched = mt.matched[:0]
		for _, m := range mt.matches {
			ces = append(ces, ComplexEvent{
				WindowID:     w.ID,
				WindowOpen:   w.OpenSeq,
				Pattern:      p.Pattern().Name,
				Constituents: m.Seqs(),
				DetectedAt:   now,
			})
			mt.matched = append(mt.matched, m.Constituents...)
		}
		return ces, mt.matched, true
	}
	return ces, nil, false
}
