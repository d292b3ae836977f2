package window

import (
	"cmp"
	"slices"

	"repro/internal/event"
)

// Owner is the one home of a set of open windows, the Ring their
// events live in and the Pool their structs recycle through. It
// enforces what a Policy decided and holds no windowing logic of its
// own. Single-goroutine.
type Owner struct {
	open   []*Window // in ascending ID, which is opening order
	ring   Ring
	pool   Pool
	sealed int // closed windows not yet released

	// buffered marks a Manager's owner: its windows are filled by
	// Window.Add, so events bypass the ring and a close binds nothing.
	buffered bool
}

// Open opens the window r describes; its position 0 is the next event
// pushed.
func (o *Owner) Open(r Rec) *Window {
	w := o.pool.Get()
	w.ID = r.ID
	w.OpenSeq = r.OpenSeq
	w.OpenTS = r.OpenTS
	w.ExpectedSize = r.ExpectedSize
	w.Start = o.ring.End()
	o.open = append(o.open, w)
	return w
}

// Push routes e to every open window: e is stored once in the ring and
// each window hands out its next position, which is Arrivals-1 once
// Push returns. The returned windows are valid until the next Open or
// Close.
func (o *Owner) Push(e event.Event) []*Window {
	if len(o.open) == 0 {
		return nil
	}
	if !o.buffered {
		o.ring.Push(e)
	}
	for _, w := range o.open {
		w.Arrivals++
	}
	return o.open
}

// Close removes window id from the open windows, seals it and binds it
// to its ring segment; the window and its View are valid until Release.
// Closing a window the owner does not hold panics.
func (o *Owner) Close(id ID) *Window {
	i, ok := slices.BinarySearchFunc(o.open, id, func(w *Window, id ID) int { return cmp.Compare(w.ID, id) })
	if !ok {
		panic("window: Close of a window the owner does not hold")
	}
	w := o.open[i]
	o.open = slices.Delete(o.open, i, i+1)
	w.closed = true
	if !o.buffered {
		w.Bind(&o.ring)
	}
	o.sealed++
	return w
}

// Release recycles a closed window (see Pool.Put) once its consumers
// are done with it and, when no other closed window is outstanding,
// trims the ring to the oldest open window. Still-open windows and
// double releases are ignored.
func (o *Owner) Release(w *Window) {
	if w == nil || !w.closed {
		return
	}
	o.pool.Put(w)
	if o.sealed--; o.sealed > 0 {
		return
	}
	if w := o.Oldest(); w != nil {
		o.ring.Trim(w.Start)
	} else {
		o.ring.Trim(o.ring.End())
	}
}

// Oldest returns the earliest-opened window still open, or nil.
func (o *Owner) Oldest() *Window {
	if len(o.open) == 0 {
		return nil
	}
	return o.open[0]
}

// Ring returns the owner's event ring, for inspection.
func (o *Owner) Ring() *Ring { return &o.ring }

// Pool returns the owner's window pool, whose counters may be read
// from any goroutine.
func (o *Owner) Pool() *Pool { return &o.pool }
