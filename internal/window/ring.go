package window

import "repro/internal/event"

// Ring is an owner's single copy of the events its open windows still
// reference. Every open window of an owner receives every event the
// owner routes while it is open, so window w's position p is simply the
// event at absolute index w.Start+p: windows store positions, not
// copies. The Owner pushes each routed event once and trims the ring
// to the oldest open window's Start after closes. Single-goroutine.
//
// Storage is one slice compacted in place: a trim only advances the
// logical head until the dead prefix is at least as long as the live
// part (and RingSlack), then the live part is copied down. Each event
// is therefore copied O(1) times amortized, and after a Trim the slice
// holds at most Live() + max(Live(), RingSlack) events.
type Ring struct {
	buf  []event.Event
	base uint64 // absolute index of buf[0]
	head uint64 // absolute index of the oldest live event
}

// RingSlack is the dead prefix below which Trim never compacts, so tiny
// rings do not copy on every close.
const RingSlack = 64

// Push appends e and returns its absolute index.
func (r *Ring) Push(e event.Event) uint64 {
	r.buf = append(r.buf, e)
	return r.End() - 1
}

// End returns the absolute index the next pushed event gets: a window
// opening before its opening event is pushed starts here.
func (r *Ring) End() uint64 { return r.base + uint64(len(r.buf)) }

// Len reports how many events the ring holds, dead prefix included.
func (r *Ring) Len() int { return len(r.buf) }

// Live reports how many events lie at or after the trim point.
func (r *Ring) Live() int { return int(r.End() - r.head) }

// Segment returns the n events starting at absolute index start. The
// slice aliases the ring: it is valid until the next Trim.
func (r *Ring) Segment(start uint64, n int) []event.Event {
	i := start - r.base
	return r.buf[i : i+uint64(n) : i+uint64(n)]
}

// Trim releases every event before absolute index start (clamped to
// End); no window may reference them any more. Views over the ring must
// not be in use across a Trim, since compaction moves the live events.
func (r *Ring) Trim(start uint64) {
	if end := r.End(); start > end {
		start = end
	}
	if start <= r.head {
		return
	}
	r.head = start
	dead := int(start - r.base)
	if dead < RingSlack || dead < len(r.buf)-dead {
		return
	}
	n := copy(r.buf, r.buf[dead:])
	clear(r.buf[n:]) // drop the moved-out events' attribute references
	r.buf = r.buf[:n]
	r.base = start
}

// View is an in-order, read-only view of a window's kept entries. It
// reads a position-indexed event segment in place: kept entry i is the
// event at position idx[i] (or at position i when nothing was dropped),
// so building a view copies no event. For a window bound to its owner's
// ring the segment is the ring's; for a window filled with Add it is the
// window's own buffer. A View is valid only until its window is
// released. Its methods take a pointer: a View is seven words, too large
// to copy once per entry the matcher reads.
type View struct {
	evs []event.Event // the event at each position
	idx []int32       // kept positions in order; nil when every position is kept
	n   int
}

// NewView builds the view of explicit entries, which must be in window
// order (strictly increasing, non-negative positions), exactly as a
// window filled with Add: it copies the events once into a buffer
// indexed by position, and builds a kept-position index when positions
// have gaps. Build it once to match a fixed entry slice repeatedly
// without allocating.
func NewView(ents []Entry) View {
	var w Window
	for _, e := range ents {
		w.Add(e.Ev, e.Pos)
	}
	return *w.Entries()
}

// viewOf builds the view of a position-indexed event segment, leaving
// out the positions marked in drops; idx is reused as the index backing
// and the (possibly grown) backing is returned with the view.
func viewOf(evs []event.Event, drops []uint64, idx []int32) (View, []int32) {
	if len(drops) == 0 {
		return View{evs: evs, n: len(evs)}, idx
	}
	idx = idx[:0]
	for p := range evs {
		if w := p >> 6; w >= len(drops) || drops[w]&(1<<(uint(p)&63)) == 0 {
			idx = append(idx, int32(p))
		}
	}
	return View{evs: evs, idx: idx, n: len(idx)}, idx
}

// Len returns the number of kept entries.
func (v *View) Len() int { return v.n }

// Pos returns kept entry i's position in the window.
func (v *View) Pos(i int) int {
	if v.idx != nil {
		return int(v.idx[i])
	}
	return i
}

// Type returns kept entry i's event type.
func (v *View) Type(i int) event.Type {
	if v.idx != nil {
		return v.evs[v.idx[i]].Type
	}
	return v.evs[i].Type
}

// Event returns kept entry i's event.
func (v *View) Event(i int) event.Event {
	if v.idx != nil {
		return v.evs[v.idx[i]]
	}
	return v.evs[i]
}

// At returns kept entry i as a value.
func (v *View) At(i int) Entry {
	p := i
	if v.idx != nil {
		p = int(v.idx[i])
	}
	return Entry{Ev: v.evs[p], Pos: p}
}

// Index returns the index of the kept entry at window position pos, or
// -1 when that position was not kept. Positions increase with the
// index, so this is a binary search (or O(1) when nothing was dropped).
func (v *View) Index(pos int) int {
	if v.idx == nil {
		if pos >= 0 && pos < v.n {
			return pos
		}
		return -1
	}
	lo, hi := 0, v.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.Pos(mid) < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < v.n && v.Pos(lo) == pos {
		return lo
	}
	return -1
}
