package window

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/event"
)

// refManager is the windowing scan the Policy replaced, kept unchanged
// (less its counters) as an independent reference: per event it walks every open window to
// close, open and hand out positions. Production no longer runs it; the
// tests below check that Policy steps decide exactly what it decides.
type refManager struct {
	spec   Spec
	nextID ID
	open   []*Window // in opening order

	sinceOpen  int        // events since last slide-open (count mode)
	lastOpenTS event.Time // timestamp of last slide-open (time mode)
	opened     bool       // at least one window opened so far

	expSize float64

	memberBuf []Membership
	closedBuf []*Window
	pool      Pool
}

func newRefManager(spec Spec) *refManager {
	m := &refManager{spec: spec}
	if spec.Mode == ModeTime && spec.SizeHint > 0 {
		m.expSize = float64(spec.SizeHint)
	}
	return m
}

func (m *refManager) Route(e event.Event) (member []Membership, closed []*Window) {
	m.memberBuf = m.memberBuf[:0]
	m.closedBuf = m.closedBuf[:0]

	// 1. Close expired time windows (their span ended strictly before e).
	if m.spec.Mode == ModeTime {
		m.closeExpired(e.TS)
	}
	// 1b. Pattern-based closing: a matching event seals all open windows
	// before it is routed (it belongs to windows it opens, not closes).
	if m.spec.Close != nil && m.spec.Close(e) {
		for _, w := range m.open {
			m.closeWindow(w)
		}
		m.open = m.open[:0]
	}

	// 2. Possibly open a new window at this event.
	if m.shouldOpen(e) {
		w := m.pool.Get()
		w.ID = m.nextID
		w.OpenSeq = e.Seq
		w.OpenTS = e.TS
		w.ExpectedSize = m.predictSize()
		m.nextID++
		m.open = append(m.open, w)
	}

	// 3. Assign the event a position in every open window.
	for _, w := range m.open {
		m.memberBuf = append(m.memberBuf, Membership{W: w, Pos: w.Arrivals})
		w.Arrivals++
	}

	// 4. Close count windows that reached their size.
	if m.spec.Mode == ModeCount {
		remaining := m.open[:0]
		for _, w := range m.open {
			if w.Arrivals >= m.spec.Count {
				m.closeWindow(w)
			} else {
				remaining = append(remaining, w)
			}
		}
		m.open = remaining
	}

	return m.memberBuf, m.closedBuf
}

func (m *refManager) Flush() []*Window {
	m.closedBuf = m.closedBuf[:0]
	for _, w := range m.open {
		m.closeWindow(w)
	}
	m.open = m.open[:0]
	return m.closedBuf
}

func (m *refManager) shouldOpen(e event.Event) bool {
	if m.spec.Open != nil {
		return m.spec.Open(e)
	}
	switch m.spec.Mode {
	case ModeCount:
		openNow := m.sinceOpen == 0
		m.sinceOpen++
		if m.sinceOpen == m.spec.Slide {
			m.sinceOpen = 0
		}
		return openNow
	case ModeTime:
		if !m.opened || e.TS >= m.lastOpenTS+m.spec.SlideTime {
			m.opened = true
			m.lastOpenTS = e.TS
			return true
		}
	}
	return false
}

func (m *refManager) closeExpired(now event.Time) {
	remaining := m.open[:0]
	for _, w := range m.open {
		if now >= w.OpenTS+m.spec.Length {
			m.closeWindow(w)
		} else {
			remaining = append(remaining, w)
		}
	}
	m.open = remaining
}

func (m *refManager) closeWindow(w *Window) {
	w.closed = true
	m.closedBuf = append(m.closedBuf, w)
	if m.spec.Mode == ModeTime && w.Arrivals > 0 {
		const alpha = 0.1
		if m.expSize <= 0 {
			m.expSize = float64(w.Arrivals)
		} else {
			m.expSize = (1-alpha)*m.expSize + alpha*float64(w.Arrivals)
		}
	}
}

func (m *refManager) predictSize() int {
	if m.spec.Mode == ModeCount {
		return m.spec.Count
	}
	if m.expSize <= 0 {
		return 0
	}
	return int(m.expSize + 0.5)
}

// refRec is what the reference decided about one window, in the shape
// of a Policy record.
func refRec(w *Window) Rec {
	return Rec{ID: w.ID, OpenSeq: w.OpenSeq, OpenTS: w.OpenTS, ExpectedSize: w.ExpectedSize, Arrivals: w.Arrivals}
}

// policyRec drops the Policy's private bookkeeping, leaving what an
// owner reads.
func policyRec(r Rec) Rec {
	r.at = 0
	return r
}

// checkPolicyMatchesReference replays events through a Policy and the
// reference scan side by side and reports the first event at which they
// disagree: the window opened (ID, OpenSeq, OpenTS, ExpectedSize), the
// windows closed before and after routing with their arrivals, the
// event's memberships, and the end-of-stream flush.
func checkPolicyMatchesReference(spec Spec, events []event.Event) error {
	p, err := NewPolicy(spec)
	if err != nil {
		return err
	}
	ref := newRefManager(spec)
	var want Step
	for i, e := range events {
		member, closed := ref.Route(e)
		want = Step{}
		in := map[ID]bool{}
		for _, mb := range member {
			in[mb.W.ID] = true
			if mb.Pos == 0 {
				want.Opened, want.Open = true, refRec(mb.W)
				want.Open.Arrivals = 0
			}
		}
		for _, w := range closed {
			if in[w.ID] { // e was routed to it: a close after routing
				want.After = append(want.After, refRec(w))
			} else {
				want.Before = append(want.Before, refRec(w))
			}
		}
		st := p.Step(e)
		got := Step{Opened: st.Opened}
		if st.Opened {
			got.Open = policyRec(st.Open)
		}
		for _, r := range st.Before {
			got.Before = append(got.Before, policyRec(r))
		}
		for _, r := range st.After {
			got.After = append(got.After, policyRec(r))
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("event %d (%v): step\n got %+v\nwant %+v", i, e, got, want)
		}
		// Count windows fill up in opening order: the ones closed after
		// routing are the oldest the event joined.
		var members []ID
		for _, r := range st.After {
			members = append(members, r.ID)
		}
		for _, r := range p.open {
			members = append(members, r.ID)
		}
		for j, mb := range member {
			if j >= len(members) || members[j] != mb.W.ID || mb.Pos != int(p.routed-p.recAt(mb.W.ID, st.After)) {
				return fmt.Errorf("event %d: memberships differ: policy windows %v, reference %+v", i, members, member)
			}
		}
		if len(members) != len(member) {
			return fmt.Errorf("event %d: %d memberships, reference %d", i, len(members), len(member))
		}
		if p.ExpectedSize() != ref.predictSize() {
			return fmt.Errorf("event %d: expected size %d, reference %d", i, p.ExpectedSize(), ref.predictSize())
		}
	}
	var got, want2 []Rec
	for _, r := range p.Flush() {
		got = append(got, policyRec(r))
	}
	for _, w := range ref.Flush() {
		want2 = append(want2, refRec(w))
	}
	if !reflect.DeepEqual(got, want2) {
		return fmt.Errorf("flush:\n got %+v\nwant %+v", got, want2)
	}
	return nil
}

// recAt returns, for a window open after the last step or closed by it
// after routing, the routed count at which it opened plus one: the
// event just routed sits at position routed-recAt.
func (p *Policy) recAt(id ID, after []Rec) uint64 {
	for _, r := range p.open {
		if r.ID == id {
			return r.at + 1
		}
	}
	for _, r := range after {
		if r.ID == id {
			return r.at + 1
		}
	}
	return 0
}

// policyCase draws a windowing spec and a stream: spec's bits pick the
// geometry — count or time windows, slide
// opening (with Slide > Count gaps) or predicate opening, an optional
// Close predicate, a SizeHint — and each byte of stream is one event,
// its low bits the type and the rest a timestamp step that may go
// backwards, so timestamps arrive out of order.
func policyCase(spec uint64, stream []byte) (Spec, []event.Event) {
	bits := func(n int) int {
		v := int(spec & (1<<n - 1))
		spec >>= n
		return v
	}
	var s Spec
	if bits(1) == 0 {
		s.Mode, s.Count, s.Slide = ModeCount, 1+bits(5), 1+bits(6)
	} else {
		s.Mode = ModeTime
		s.Length = event.Time(1+bits(6)) * event.Millisecond
		s.SlideTime = event.Time(1+bits(5)) * event.Millisecond
		if bits(1) == 1 {
			s.SizeHint = 1 + bits(5)
		}
	}
	if bits(1) == 1 {
		openT := event.Type(bits(2))
		s.Open = func(e event.Event) bool { return e.Type == openT }
	}
	if bits(1) == 1 {
		closeT, every := event.Type(bits(2)), uint64(1+bits(4))
		s.Close = func(e event.Event) bool { return e.Type == closeT && e.Seq%every == 0 }
	}
	backwards := bits(1) == 1
	events := make([]event.Event, len(stream))
	ts := event.Time(1000) * event.Millisecond
	for i, b := range stream {
		step := event.Time(b>>2) * event.Millisecond / 8
		if backwards && b&0x80 != 0 {
			step = -step / 2
		}
		ts += step
		events[i] = event.Event{Seq: uint64(i), TS: ts, Type: event.Type(b & 3)}
	}
	return s, events
}

// TestPolicyMatchesReference is the property behind sharing one Policy
// between the serial operator and the sharded partitioner: over seeded
// random specs — the count/slide, time/slide and predicate-open with
// Close geometries, SizeHint, Slide > Count gaps, Close predicates on
// count windows — and streams with in-order and out-of-order
// timestamps, every step decides what the reference scan decides.
func TestPolicyMatchesReference(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := make([]byte, 50+rng.Intn(600))
		rng.Read(stream)
		spec, events := policyCase(rng.Uint64(), stream)
		geometry := spec.Mode.String()
		if spec.Open != nil {
			geometry += "/open"
		}
		if spec.Close != nil {
			geometry += "/close"
		}
		if spec.Mode == ModeCount && spec.Slide > spec.Count {
			geometry += "/gaps"
		}
		if spec.SizeHint > 0 {
			geometry += "/hint"
		}
		seen[geometry] = true
		if err := checkPolicyMatchesReference(spec, events); err != nil {
			t.Fatalf("seed %d, %s: %v", seed, geometry, err)
		}
	}
	for _, g := range []string{"count/gaps", "count/close", "count/open/close", "time", "time/hint", "time/open/close"} {
		if !seen[g] {
			t.Errorf("no seed drew the %s geometry", g)
		}
	}
}

// TestPolicyOutOfOrderExpiry pins the case the earliest-expiry shortcut
// must get right: a window opened by a late timestamp expires before an
// older window opened by an early one, so expiry is not at the front.
func TestPolicyOutOfOrderExpiry(t *testing.T) {
	spec := Spec{Mode: ModeTime, Length: 10, Open: func(event.Event) bool { return true }}
	events := []event.Event{{Seq: 0, TS: 100}, {Seq: 1, TS: 50}, {Seq: 2, TS: 105}, {Seq: 3, TS: 61}, {Seq: 4, TS: 112}}
	if err := checkPolicyMatchesReference(spec, events); err != nil {
		t.Fatal(err)
	}
}

func FuzzPolicyMatchesReference(f *testing.F) {
	f.Add(uint64(0), []byte("count windows, sliding"))
	f.Add(uint64(0x3f<<1), []byte{1, 2, 3, 0, 0, 9, 200, 7, 4, 4})
	f.Add(uint64(1|5<<1|20<<7|3<<12|1<<18|1<<21), []byte("time windows with a close predicate\x80\xff\x81"))
	f.Add(uint64(1|40<<1|2<<7|1<<17|1<<20|2<<21|9<<23|1<<27), []byte{0xfc, 0x80, 0x13, 0xfe, 0x02, 0x91, 0x44, 0xc0})
	f.Fuzz(func(t *testing.T, spec uint64, stream []byte) {
		if len(stream) > 1024 {
			stream = stream[:1024]
		}
		s, events := policyCase(spec, stream)
		if err := checkPolicyMatchesReference(s, events); err != nil {
			t.Fatal(err)
		}
	})
}
