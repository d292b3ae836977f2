// Package operator implements the CEP operator of Figure 1 in the eSPICE
// paper: it consumes primitive events in stream order, routes them into
// windows, applies the load shedder to every (event, window) membership,
// runs the pattern matcher when windows close, and emits complex events.
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

// Decider is the shedding decision interface: called once per
// (event, window) membership with the event type, the event's position in
// that window, and the window's (predicted) size. Implementations must be
// O(1); they sit on the hot path.
type Decider interface {
	Drop(t event.Type, pos, ws int) bool
}

// BatchingDecider is an optional Decider extension for deciders that
// keep observability counters behind atomics (core.Shedder): the caller
// makes raw decisions through DropCounted, tallies them locally, and
// flushes once per processing batch through TallyDecisions — two atomic
// adds per batch instead of two per membership. The operator and the
// sharded runtime detect this interface and prefer it automatically.
type BatchingDecider interface {
	Decider
	// DropCounted returns the drop decision and whether the call counts
	// as a decision (shedding active).
	DropCounted(t event.Type, pos, ws int) (drop, counted bool)
	// TallyDecisions folds locally accumulated decision/drop counts into
	// the decider's counters.
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

// ShedDecision runs one membership shedding decision through the
// batching fast path when available (batched non-nil), accumulating the
// counter deltas into *decisions/*drops for a later TallyDecisions
// flush; otherwise it falls back to the plain Decider. Shared by the
// serial operator and the sharded runtime so the two deployments count
// identically.
func ShedDecision(plain Decider, batched BatchingDecider, t event.Type, pos, ws int,
	decisions, drops *uint64) bool {
	if batched != nil {
		dropped, counted := batched.DropCounted(t, pos, ws)
		if counted {
			*decisions++
			if dropped {
				*drops++
			}
		}
		return dropped
	}
	if plain != nil {
		return plain.Drop(t, pos, ws)
	}
	return false
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

// Operator is a single CEP operator instance. It is a single-goroutine
// component: the owner (simulator or runtime pump) calls Process serially.
type Operator struct {
	mgr     *window.Manager
	ring    window.Ring // every routed event, once; windows read it at close
	matcher *Matcher
	shedder Decider
	batched BatchingDecider // non-nil when shedder supports batching
	onClose WindowCloseHook

	stats Stats
	out   []ComplexEvent // reused buffer returned by Process/Flush
}

// New builds an operator from the configuration.
func New(cfg Config) (*Operator, error) {
	if len(cfg.Patterns) == 0 {
		return nil, fmt.Errorf("operator: at least one pattern is required")
	}
	for i, p := range cfg.Patterns {
		if p == nil {
			return nil, fmt.Errorf("operator: pattern %d is nil", i)
		}
	}
	mgr, err := window.NewManager(cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("operator: %w", err)
	}
	o := &Operator{
		mgr:     mgr,
		matcher: NewMatcher(cfg.Patterns, cfg.MaxMatchesPerWindow),
		onClose: cfg.OnWindowClose,
	}
	o.SetShedder(cfg.Shedder)
	return o, nil
}

// SetShedder installs or replaces the shedding decider (nil disables).
// Must be called from the processing goroutine.
func (o *Operator) SetShedder(d Decider) {
	o.shedder = d
	o.batched, _ = d.(BatchingDecider)
}

// Stats returns a snapshot of the operator counters.
func (o *Operator) Stats() Stats { return o.stats }

// WindowManager exposes the underlying manager (read-only use: expected
// size, averages).
func (o *Operator) WindowManager() *window.Manager { return o.mgr }

// Process consumes the next event in stream order and returns any complex
// events completed by it. The returned slice is reused across calls. In
// steady state (warm window pool, ring and matcher scratch) processing an
// event allocates nothing; only complex-event emission allocates, since
// those escape to the caller.
//
// Route gives every open window a membership, so an event with any
// membership is pushed to the ring once and every open window's
// position p is the ring's event Start+p: a kept membership writes
// nothing, a dropped one sets a bit.
func (o *Operator) Process(e event.Event) []ComplexEvent {
	o.out = o.out[:0]
	o.stats.EventsProcessed++
	member, closed := o.mgr.Route(e)
	if len(member) > 0 {
		at := o.ring.Push(e)
		var decisions, drops, shed uint64
		for _, mb := range member {
			if mb.Pos == 0 {
				mb.W.Start = at // opened by e
			}
			if ShedDecision(o.shedder, o.batched, e.Type, mb.Pos, mb.W.ExpectedSize,
				&decisions, &drops) {
				mb.W.Drop(mb.Pos)
				shed++
			}
		}
		o.stats.Memberships += uint64(len(member))
		o.stats.MembershipsShed += shed
		o.stats.MembershipsKept += uint64(len(member)) - shed
		if decisions > 0 {
			o.batched.TallyDecisions(decisions, drops)
		}
	}
	o.closeAll(closed, e.TS)
	return o.out
}

// Flush closes all remaining windows at end of stream and returns their
// complex events. The returned slice is reused.
func (o *Operator) Flush(now event.Time) []ComplexEvent {
	o.out = o.out[:0]
	o.closeAll(o.mgr.Flush(), now)
	return o.out
}

// closeAll matches and recycles the closed windows, then trims the ring
// to what the still-open windows reference.
func (o *Operator) closeAll(closed []*window.Window, now event.Time) {
	if len(closed) == 0 {
		return
	}
	for _, w := range closed {
		o.closeWindow(w, now)
	}
	if w := o.mgr.Oldest(); w != nil {
		o.ring.Trim(w.Start)
	} else {
		o.ring.Trim(o.ring.End())
	}
}

func (o *Operator) closeWindow(w *window.Window, now event.Time) {
	o.stats.WindowsClosed++
	w.Bind(&o.ring)
	before := len(o.out)
	var matchedEntries []window.Entry
	var found bool
	o.out, matchedEntries, found = o.matcher.MatchClosed(w, now, o.out)
	o.stats.ComplexEvents += uint64(len(o.out) - before)
	if found {
		o.stats.WindowsWithMatch++
	}
	if o.onClose != nil {
		o.onClose(w, matchedEntries)
	}
	// The matcher and the hook are done with the window: recycle it.
	o.mgr.Release(w)
}

// Matcher runs the per-closed-window matching policy shared by the
// serial operator, the window-parallel executor and the sharded runtime:
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
// call; copy them to retain them (the serial operator hands them to the
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
