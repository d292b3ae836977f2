package window

import (
	"math"
	"slices"

	"repro/internal/event"
)

// Rec is a Policy's payload-free record of one window: the identity an
// owner opens it under and, on a close, how many events it received.
type Rec struct {
	ID           ID
	OpenSeq      uint64     // sequence number of the opening event
	OpenTS       event.Time // timestamp of the opening event
	ExpectedSize int        // ws as predicted when the window opened
	Arrivals     int        // events routed to the window; set on closes

	at uint64 // events the Policy had routed when the window opened
}

// Step is what one event does to the windows, in the order an owner
// applies it: close Before (time expiry, then the Close predicate; the
// event is in none of them), open Open when Opened (at most one window,
// the event at position 0), route the event to every open window, close
// After (the count windows it filled). A Step and its slices are reused
// by the next Step or Flush call.
type Step struct {
	Before []Rec
	Opened bool
	Open   Rec
	After  []Rec
}

// Policy is the windowing policy of a Spec without the windows: per
// event it decides which windows close and open, keeping compact
// records of the open ones in opening order; an Owner (or a partitioner
// placing windows on shards) enforces the decisions. Every open window
// receives every event, so count windows fill up in opening order and
// their closes are read at the front; time windows are scanned only
// once an event reaches the earliest expiry tracked. A step is thus
// O(1) unless something closes, also for out-of-order timestamps.
// Single-goroutine.
type Policy struct {
	spec   Spec
	nextID ID
	open   []Rec      // open windows in opening order
	routed uint64     // events routed so far
	expiry event.Time // earliest OpenTS+Length over open (ModeTime)

	sinceOpen  int        // events since last slide-open (count mode)
	lastOpenTS event.Time // timestamp of last slide-open (time mode)

	// Expected-size predictor for time-based windows: exponential moving
	// average over closed window sizes.
	expSize float64

	step   Step
	closed []Rec // backing of Step.Before and Step.After
}

// noExpiry is the expiry tracked while no time window is open.
const noExpiry = event.Time(math.MaxInt64)

// NewPolicy builds the policy of a spec. The spec must validate.
func NewPolicy(spec Spec) (*Policy, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Policy{spec: spec, expiry: noExpiry}
	if spec.Mode == ModeTime && spec.SizeHint > 0 {
		p.expSize = float64(spec.SizeHint)
	}
	return p, nil
}

// ExpectedSize returns the current window-size prediction used for
// relative-position scaling (exact Count for count-based windows).
func (p *Policy) ExpectedSize() int {
	if p.spec.Mode == ModeCount {
		return p.spec.Count
	}
	if p.expSize <= 0 {
		return 0
	}
	return int(p.expSize + 0.5)
}

// Step decides what the next event in stream order does to the windows.
// Time-based windows close when an event at or past their end arrives;
// count-based windows close once they hold Count arrivals.
func (p *Policy) Step(e event.Event) *Step {
	st := &p.step
	p.closed = p.closed[:0]
	if p.spec.Mode == ModeTime && e.TS >= p.expiry {
		p.expire(e.TS)
	}
	// Pattern-based closing: a matching event seals all open windows
	// before it is routed (it belongs to windows it opens, not closes).
	if p.spec.Close != nil && p.spec.Close(e) {
		p.closeFront(len(p.open))
	}
	st.Opened = p.shouldOpen(e)
	if st.Opened {
		st.Open = Rec{ID: p.nextID, OpenSeq: e.Seq, OpenTS: e.TS, ExpectedSize: p.ExpectedSize(), at: p.routed}
		p.nextID++
		p.open = append(p.open, st.Open)
		if p.spec.Mode == ModeTime {
			p.expiry = min(p.expiry, e.TS+p.spec.Length)
		}
	}
	p.routed++
	before := len(p.closed)
	if p.spec.Mode == ModeCount {
		n := 0
		for n < len(p.open) && p.routed-p.open[n].at >= uint64(p.spec.Count) {
			n++
		}
		p.closeFront(n)
	}
	st.Before, st.After = p.closed[:before:before], p.closed[before:]
	return st
}

// Flush closes every open window (end of stream), in opening order.
func (p *Policy) Flush() []Rec {
	p.closed = p.closed[:0]
	p.closeFront(len(p.open))
	return p.closed
}

func (p *Policy) shouldOpen(e event.Event) bool {
	if p.spec.Open != nil {
		return p.spec.Open(e)
	}
	switch p.spec.Mode {
	case ModeCount:
		openNow := p.sinceOpen == 0
		p.sinceOpen++
		if p.sinceOpen == p.spec.Slide {
			p.sinceOpen = 0
		}
		return openNow
	case ModeTime:
		if p.nextID == 0 || e.TS >= p.lastOpenTS+p.spec.SlideTime {
			p.lastOpenTS = e.TS
			return true
		}
	}
	return false
}

// expire closes, in opening order, every time window whose span ended
// at or before now, and re-derives the earliest expiry of the rest.
func (p *Policy) expire(now event.Time) {
	p.expiry = noExpiry
	p.open = slices.DeleteFunc(p.open, func(r Rec) bool {
		if end := r.OpenTS + p.spec.Length; now < end {
			p.expiry = min(p.expiry, end)
			return false
		}
		p.close(r)
		return true
	})
}

// closeFront closes the n earliest-opened windows.
func (p *Policy) closeFront(n int) {
	if n == 0 {
		return
	}
	for _, r := range p.open[:n] {
		p.close(r)
	}
	p.open = slices.Delete(p.open, 0, n)
	if len(p.open) == 0 {
		p.expiry = noExpiry
	}
}

func (p *Policy) close(r Rec) {
	r.Arrivals = int(p.routed - r.at)
	p.closed = append(p.closed, r)
	if p.spec.Mode == ModeTime && r.Arrivals > 0 {
		// EMA with a mild smoothing factor: adapts to rate changes but is
		// robust to single odd windows.
		const alpha = 0.1
		if p.expSize <= 0 {
			p.expSize = float64(r.Arrivals)
		} else {
			p.expSize = (1-alpha)*p.expSize + alpha*float64(r.Arrivals)
		}
	}
}
