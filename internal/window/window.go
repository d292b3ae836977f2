// Package window partitions input event streams into (possibly
// overlapping) windows, as assumed by the eSPICE paper (Section 2): a
// window operator upstream of the CEP operator splits the stream using
// count-based, time-based, or pattern-based (logical-predicate) policies.
//
// A primitive event may belong to several overlapping windows and has an
// independent position in each of them; that position is the load
// shedder's second learning feature. Positions are assigned on arrival,
// before any shedding decision, so that model building and shedding agree
// on the coordinates of every event.
package window

import (
	"fmt"
	"sync/atomic"

	"repro/internal/event"
)

// ID identifies a window uniquely within one Policy.
type ID uint64

// Mode selects how windows are measured.
type Mode int

// Window measurement modes.
const (
	// ModeCount windows span a fixed number of events (count-based).
	ModeCount Mode = iota
	// ModeTime windows span a fixed virtual-time length (time-based).
	ModeTime
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeCount:
		return "count"
	case ModeTime:
		return "time"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// OpenPredicate decides whether an incoming event opens a new window
// (pattern-based window splitting, e.g. "a new window is opened for each
// incoming striker event").
type OpenPredicate func(e event.Event) bool

// Spec describes a windowing policy.
//
// Exactly one opening rule applies: if Open is non-nil, a new window opens
// on every event satisfying it; otherwise Slide (count mode) or SlideTime
// (time mode) opens windows periodically. The opening event is part of the
// window it opens, at position 0.
type Spec struct {
	Mode   Mode
	Count  int        // window size in events (ModeCount)
	Length event.Time // window span (ModeTime)

	Open      OpenPredicate // logical predicate opening (may be nil)
	Slide     int           // open every Slide events (ModeCount, Open == nil)
	SlideTime event.Time    // open every SlideTime (ModeTime, Open == nil)

	// Close, when set, closes every open window as soon as an event
	// satisfying it arrives — the pattern-based window splitting strategy
	// (Section 2 of the paper lists logical-predicate closing alongside
	// count and time). The closing event is not part of the windows it
	// closes; the mode's size bound still applies as a backstop, so
	// windows stay bounded even if the predicate never fires.
	Close OpenPredicate

	// SizeHint seeds the expected-size predictor for time-based windows
	// (events per window); ignored for count-based windows. When zero, the
	// predictor starts from the first closed window's size.
	SizeHint int
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	switch s.Mode {
	case ModeCount:
		if s.Count <= 0 {
			return fmt.Errorf("window: count-based spec needs Count > 0, got %d", s.Count)
		}
		if s.Open == nil && s.Slide <= 0 {
			return fmt.Errorf("window: count-based spec needs Open predicate or Slide > 0")
		}
	case ModeTime:
		if s.Length <= 0 {
			return fmt.Errorf("window: time-based spec needs Length > 0, got %d", s.Length)
		}
		if s.Open == nil && s.SlideTime <= 0 {
			return fmt.Errorf("window: time-based spec needs Open predicate or SlideTime > 0")
		}
	default:
		return fmt.Errorf("window: unknown mode %d", s.Mode)
	}
	return nil
}

// Entry is an event kept in a window together with its arrival position
// (0-based, counting dropped events too). Entries are handed out as
// values: a window stores positions, and its events live once in the
// owner's Ring.
type Entry struct {
	Ev  event.Event
	Pos int
}

// Window is one window instance: the unit of pattern matching and of
// shedding decisions. A window stores no events: its owner keeps every
// event it routes once, in a Ring, and position p of the window is the
// ring's event Start+p. The window records only how many positions it
// handed out and which of them the shedder dropped; at close the owner
// Binds it to its ring segment and the matcher reads the kept entries
// through Entries.
//
// Windows are pooled: once a closed window has been handed back via
// Owner.Release, the struct is recycled for a future window. Release detaches it first — a retained *Window reads
// Size() == 0 and an empty Entries() — but the ring a View read is
// shared with windows still open, so consumers of closed windows
// (matchers, OnWindowClose hooks) must not retain the *Window or its
// View past their return; entries taken out of a View (At, CopyKept)
// are values and may be kept.
type Window struct {
	ID      ID
	OpenSeq uint64     // sequence number of the opening event
	OpenTS  event.Time // timestamp of the opening event

	// ExpectedSize is ws as known at shedding time: exact for count-based
	// windows, predicted for time-based windows (Section 3.6: the incoming
	// window size must be predicted to compute relative positions).
	ExpectedSize int

	// Start is the absolute index, in the owner's Ring, of the event at
	// position 0; the owner sets it when the window opens.
	Start    uint64
	Arrivals int // positions handed out, including dropped events
	Dropped  int
	closed   bool

	drops []uint64      // bit p set: position p was dropped; grows only on a drop
	view  View          // kept entries, set by Bind (or rebuilt after Add)
	idx   []int32       // backing of view's kept-position index, reused
	evs   []event.Event // Add's own event buffer, indexed by position
	stale bool          // evs changed since view was built
}

// Drop records that the shedder dropped the event at position pos.
func (w *Window) Drop(pos int) {
	w.mark(pos)
	w.Dropped++
}

// mark sets position pos in the drop bitmask.
func (w *Window) mark(pos int) {
	word := pos >> 6
	for len(w.drops) <= word {
		w.drops = append(w.drops, 0)
	}
	w.drops[word] |= 1 << (uint(pos) & 63)
}

// Bind points the window's entries at its segment of the owner's ring,
// without copying: Entries then reads the ring in place. When something
// was dropped, Bind builds the kept-position index once. The owner calls
// it when the window closes, before matching; the view is valid until
// the window is released or the ring is trimmed.
func (w *Window) Bind(r *Ring) {
	w.view, w.idx = viewOf(r.Segment(w.Start, w.Arrivals), w.drops, w.idx)
	w.stale = false
}

// Add stores e at position pos in the window's own event buffer, for
// windows filled outside an owner loop (tests, benchmarks, callers
// driving a Manager directly, whose windows read only what was added). Positions must increase from
// call to call; positions skipped since the previous Add are marked
// dropped (the Dropped counter stays the caller's to keep).
func (w *Window) Add(e event.Event, pos int) {
	for p := len(w.evs); p < pos; p++ {
		w.mark(p)
		w.evs = append(w.evs, event.Event{})
	}
	w.evs = append(w.evs, e)
	w.stale = true
}

// Entries returns the window's kept entries in window order. The view
// belongs to the window: it is valid until the window is released.
func (w *Window) Entries() *View {
	if w.stale {
		w.view, w.idx = viewOf(w.evs, w.drops, w.idx)
		w.stale = false
	}
	return &w.view
}

// Size returns the total number of events routed to the window (kept +
// dropped). After the window closes this is the true window size ws.
func (w *Window) Size() int { return w.Arrivals }

// CopyKept appends copies of the window's kept entries to dst and returns
// the extended slice, for hooks and taps that must keep entries past
// their OnWindowClose return.
func (w *Window) CopyKept(dst []Entry) []Entry {
	v := w.Entries()
	for i := 0; i < v.Len(); i++ {
		dst = append(dst, v.At(i))
	}
	return dst
}

// Closed reports whether the window's owner has closed it.
func (w *Window) Closed() bool { return w.closed }

// Membership records that an event belongs to a window at a position.
type Membership struct {
	W   *Window
	Pos int
}

// Pool recycles Window structs and their bitmask and index buffers. It
// is the freelist behind every Owner: a single-goroutine component (one
// owner puts and gets), with only the observability counters behind
// atomics so Stats snapshots may read them from other goroutines.
type Pool struct {
	free []*Window

	gets   atomic.Uint64
	puts   atomic.Uint64
	misses atomic.Uint64
}

// Get returns a recycled window (zeroed, with its buffer capacity intact)
// or allocates a fresh one when the pool is empty, counting a miss.
func (p *Pool) Get() *Window {
	p.gets.Add(1)
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return w
	}
	p.misses.Add(1)
	return &Window{}
}

// Put recycles a window: the struct is zeroed — detached from its ring
// segment, so a retained reference reads Size() == 0 and an empty
// Entries() — and its buffers are kept for reuse. The ring is shared
// with windows still open, so nothing in it is clobbered.
func (p *Pool) Put(w *Window) {
	if w == nil {
		return
	}
	p.puts.Add(1)
	clear(w.evs) // drop Add-buffered events' attribute references
	*w = Window{drops: w.drops[:0], idx: w.idx[:0], evs: w.evs[:0]}
	p.free = append(p.free, w)
}

// Gets reports how many windows were handed out.
func (p *Pool) Gets() uint64 { return p.gets.Load() }

// Puts reports how many windows were recycled into the pool: at any
// moment Puts + Misses >= Gets (the surplus is the free list plus live
// windows allocated by misses), and once every window has closed and
// been recycled, Gets == Puts exactly.
func (p *Pool) Puts() uint64 { return p.puts.Load() }

// Misses reports how many Gets had to allocate because the pool was
// empty — in steady state (every closed window released) this stops
// growing once the working set of concurrently open windows is warm, so
// a climbing miss count is the signature of a pool leak.
func (p *Pool) Misses() uint64 { return p.misses.Load() }

// Manager drives a Policy and a buffered Owner together for callers
// outside an owner loop (tests, benchmarks): Route hands out each
// event's memberships and the closed windows, and the caller fills
// windows itself through Window.Add — a position never added reads as
// dropped. Single-goroutine.
type Manager struct {
	policy *Policy
	owner  Owner

	memberBuf []Membership
	closedBuf []*Window
}

// NewManager builds a manager for the given spec. The spec must validate.
func NewManager(spec Spec) (*Manager, error) {
	p, err := NewPolicy(spec)
	if err != nil {
		return nil, err
	}
	return &Manager{policy: p, owner: Owner{buffered: true}}, nil
}

// TotalOpened reports how many windows were ever opened.
func (m *Manager) TotalOpened() uint64 { return uint64(m.policy.nextID) }

// TotalClosed reports how many windows were ever closed.
func (m *Manager) TotalClosed() uint64 { return m.TotalOpened() - uint64(len(m.policy.open)) }

// Route processes the next event in stream order. It returns the windows
// the event belongs to (with the event's position in each) and the
// windows that closed before or because of this event, in close order.
//
// The returned slices are reused across calls: callers must consume them
// before the next Route or Flush call and must not retain them.
func (m *Manager) Route(e event.Event) (member []Membership, closed []*Window) {
	st := m.policy.Step(e)
	m.closedBuf = m.closedBuf[:0]
	m.close(st.Before)
	if st.Opened {
		m.owner.Open(st.Open)
	}
	m.memberBuf = m.memberBuf[:0]
	for _, w := range m.owner.Push(e) {
		m.memberBuf = append(m.memberBuf, Membership{W: w, Pos: w.Arrivals - 1})
	}
	m.close(st.After)
	return m.memberBuf, m.closedBuf
}

// Flush closes all remaining open windows (end of stream). The returned
// slice is reused; see Route.
func (m *Manager) Flush() []*Window {
	m.closedBuf = m.closedBuf[:0]
	m.close(m.policy.Flush())
	return m.closedBuf
}

func (m *Manager) close(recs []Rec) {
	for _, r := range recs {
		m.closedBuf = append(m.closedBuf, m.owner.Close(r.ID))
	}
}

// Release hands a closed window back to the manager for reuse (see
// Owner.Release). Call it after the window's consumers have returned;
// the window and its View must not be referenced afterwards. Releasing
// is optional (an unreleased window is simply garbage collected) and
// must happen on the manager's goroutine.
func (m *Manager) Release(w *Window) { m.owner.Release(w) }
