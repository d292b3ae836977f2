package window

import (
	"testing"
	"testing/quick"

	"repro/internal/event"
)

func ev(seq uint64, ts event.Time) event.Event {
	return event.Event{Seq: seq, TS: ts}
}

func typed(seq uint64, ts event.Time, t event.Type) event.Event {
	return event.Event{Seq: seq, TS: ts, Type: t}
}

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    Spec
		wantErr bool
	}{
		{"count ok", Spec{Mode: ModeCount, Count: 10, Slide: 5}, false},
		{"count pred ok", Spec{Mode: ModeCount, Count: 10, Open: func(event.Event) bool { return true }}, false},
		{"count missing size", Spec{Mode: ModeCount, Slide: 5}, true},
		{"count missing opener", Spec{Mode: ModeCount, Count: 10}, true},
		{"time ok", Spec{Mode: ModeTime, Length: event.Second, SlideTime: event.Second}, false},
		{"time pred ok", Spec{Mode: ModeTime, Length: event.Second, Open: func(event.Event) bool { return true }}, false},
		{"time missing length", Spec{Mode: ModeTime, SlideTime: event.Second}, true},
		{"time missing opener", Spec{Mode: ModeTime, Length: event.Second}, true},
		{"bad mode", Spec{Mode: Mode(9), Count: 1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.spec.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestModeString(t *testing.T) {
	if ModeCount.String() != "count" || ModeTime.String() != "time" {
		t.Error("mode names wrong")
	}
	if Mode(7).String() != "mode(7)" {
		t.Errorf("got %q", Mode(7).String())
	}
}

func TestNewManagerRejectsBadSpec(t *testing.T) {
	if _, err := NewManager(Spec{Mode: ModeCount}); err == nil {
		t.Fatal("expected error")
	}
}

func TestCountSlidingWindows(t *testing.T) {
	// ws=4, slide=2: windows [0..3], [2..5], [4..7], ...
	m, err := NewManager(Spec{Mode: ModeCount, Count: 4, Slide: 2})
	if err != nil {
		t.Fatal(err)
	}
	type closedWin struct {
		openSeq uint64
		size    int
	}
	var got []closedWin
	for i := uint64(0); i < 10; i++ {
		member, closed := m.Route(ev(i, 0))
		// Every event belongs to at least one window.
		if len(member) == 0 {
			t.Fatalf("event %d in no window", i)
		}
		for _, c := range closed {
			got = []closedWin(append(got, closedWin{c.OpenSeq, c.Size()}))
		}
	}
	want := []closedWin{{0, 4}, {2, 4}, {4, 4}, {6, 4}}
	if len(got) != len(want) {
		t.Fatalf("closed %d windows, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Flush the trailing partial windows.
	rest := m.Flush()
	if len(rest) != 1 {
		t.Fatalf("Flush closed %d windows, want 1", len(rest))
	}
	if rest[0].OpenSeq != 8 || rest[0].Size() != 2 {
		t.Errorf("flushed window = open %d size %d", rest[0].OpenSeq, rest[0].Size())
	}
}

func TestCountWindowPositions(t *testing.T) {
	m, err := NewManager(Spec{Mode: ModeCount, Count: 3, Slide: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With slide=1 every event opens a window; event i has position
	// i - w.OpenSeq in window w.
	for i := uint64(0); i < 6; i++ {
		member, _ := m.Route(ev(i, 0))
		for _, mb := range member {
			wantPos := int(i - mb.W.OpenSeq)
			if mb.Pos != wantPos {
				t.Errorf("event %d in window open@%d: pos %d, want %d", i, mb.W.OpenSeq, mb.Pos, wantPos)
			}
		}
	}
}

func TestPredicateOpenedCountWindows(t *testing.T) {
	leader := event.Type(7)
	m, err := NewManager(Spec{
		Mode:  ModeCount,
		Count: 3,
		Open:  func(e event.Event) bool { return e.Type == leader },
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := []event.Type{1, 7, 2, 3, 7, 4, 5, 6}
	var closed []*Window
	for i, typ := range seqs {
		_, cl := m.Route(typed(uint64(i), 0, typ))
		closed = append(closed, cl...)
	}
	closed = append(closed, m.Flush()...)
	if len(closed) != 2 {
		t.Fatalf("closed %d windows, want 2", len(closed))
	}
	// First window opens at the leader event (seq 1) and spans 3 events.
	if closed[0].OpenSeq != 1 || closed[0].Size() != 3 {
		t.Errorf("w0: open %d size %d", closed[0].OpenSeq, closed[0].Size())
	}
	// Second opens at seq 4.
	if closed[1].OpenSeq != 4 || closed[1].Size() != 3 {
		t.Errorf("w1: open %d size %d", closed[1].OpenSeq, closed[1].Size())
	}
}

func TestTimeWindowsPredicateOpen(t *testing.T) {
	str := event.Type(1)
	m, err := NewManager(Spec{
		Mode:   ModeTime,
		Length: 10 * event.Second,
		Open:   func(e event.Event) bool { return e.Type == str },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Striker event at t=0 opens a 10s window; events at 1s..9s inside,
	// event at 10s closes it (exclusive end).
	if member, _ := m.Route(typed(0, 0, str)); len(member) != 1 || member[0].Pos != 0 {
		t.Fatalf("opener membership = %+v", member)
	}
	if member, _ := m.Route(typed(1, 5*event.Second, 2)); len(member) != 1 || member[0].Pos != 1 {
		t.Fatalf("inside membership = %+v", member)
	}
	member, closed := m.Route(typed(2, 10*event.Second, 2))
	if len(member) != 0 {
		t.Errorf("event at window end must not join, got %+v", member)
	}
	if len(closed) != 1 || closed[0].Size() != 2 {
		t.Fatalf("closed = %+v", closed)
	}
}

func TestOverlappingTimeWindowsPositions(t *testing.T) {
	// Every event opens a window (predicate always true): heavy overlap.
	m, err := NewManager(Spec{
		Mode:   ModeTime,
		Length: 3 * event.Second,
		Open:   func(event.Event) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Events at t=0,1,2: each belongs to all windows opened at <= its ts.
	for i := 0; i < 3; i++ {
		member, _ := m.Route(ev(uint64(i), event.Time(i)*event.Second))
		if len(member) != i+1 {
			t.Fatalf("event %d: %d memberships, want %d", i, len(member), i+1)
		}
		// In the window opened by event j, this event's position is i-j.
		for _, mb := range member {
			j := int(mb.W.OpenSeq)
			if mb.Pos != i-j {
				t.Errorf("event %d in w%d: pos %d, want %d", i, j, mb.Pos, i-j)
			}
		}
	}
}

func TestTimeSlideWindows(t *testing.T) {
	m, err := NewManager(Spec{
		Mode:      ModeTime,
		Length:    4 * event.Second,
		SlideTime: 2 * event.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var closedSizes []int
	for i := 0; i < 10; i++ {
		_, closed := m.Route(ev(uint64(i), event.Time(i)*event.Second))
		for _, c := range closed {
			closedSizes = append(closedSizes, c.Size())
		}
	}
	// Windows open at t=0,2,4,6,8; each spans 4s and sees 4 events
	// (1 event per second).
	for i, s := range closedSizes {
		if s != 4 {
			t.Errorf("closed window %d size = %d, want 4", i, s)
		}
	}
	if len(closedSizes) < 3 {
		t.Fatalf("only %d windows closed", len(closedSizes))
	}
}

func TestExpectedSizePrediction(t *testing.T) {
	m, err := NewManager(Spec{
		Mode:     ModeTime,
		Length:   2 * event.Second,
		Open:     func(e event.Event) bool { return e.Kind == event.KindPossession },
		SizeHint: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.policy.ExpectedSize() != 20 {
		t.Fatalf("initial ExpectedSize = %d, want hint 20", m.policy.ExpectedSize())
	}
	// Stream at 10 events/sec: windows hold 20 events; prediction should
	// stay near 20.
	seq := uint64(0)
	for s := 0; s < 50; s++ {
		for i := 0; i < 10; i++ {
			e := ev(seq, event.Time(s)*event.Second+event.Time(i)*100*event.Millisecond)
			if i == 0 && s%3 == 0 {
				e.Kind = event.KindPossession
			}
			m.Route(e)
			seq++
		}
	}
	got := m.policy.ExpectedSize()
	if got < 15 || got > 25 {
		t.Errorf("ExpectedSize = %d, want ~20", got)
	}
}

func TestCountExpectedSizeExact(t *testing.T) {
	m, err := NewManager(Spec{Mode: ModeCount, Count: 42, Slide: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.policy.ExpectedSize() != 42 {
		t.Errorf("ExpectedSize = %d, want 42", m.policy.ExpectedSize())
	}
	member, _ := m.Route(ev(0, 0))
	if member[0].W.ExpectedSize != 42 {
		t.Errorf("window ExpectedSize = %d, want 42", member[0].W.ExpectedSize)
	}
}

func TestWindowAddAndDropAccounting(t *testing.T) {
	var w Window
	w.Arrivals = 5
	w.Add(ev(0, 0), 0)
	w.Add(ev(2, 0), 2)
	w.Dropped = 3
	v := w.Entries()
	if v.Len() != 2 {
		t.Fatalf("kept entries = %d", v.Len())
	}
	if v.Pos(1) != 2 || v.At(1).Ev.Seq != 2 {
		t.Errorf("entry 1 = %+v", v.At(1))
	}
	if v.Index(1) != -1 || v.Index(2) != 1 {
		t.Errorf("Index(1), Index(2) = %d, %d; want -1, 1", v.Index(1), v.Index(2))
	}
	if w.Size() != 5 {
		t.Errorf("Size() = %d", w.Size())
	}
}

// TestBindReadsRingInPlace pins the owner path: a window stores only
// Start, Arrivals and drop marks, and Bind exposes its ring segment
// minus the dropped positions, without copying.
func TestBindReadsRingInPlace(t *testing.T) {
	var r Ring
	r.Push(ev(100, 0)) // before the window opened
	w := &Window{Start: r.End()}
	for i := uint64(0); i < 5; i++ {
		r.Push(ev(i, event.Time(i)))
		w.Arrivals++
	}
	w.Drop(1)
	w.Drop(3)
	w.Bind(&r)
	v := w.Entries()
	if v.Len() != 3 || w.Dropped != 2 {
		t.Fatalf("kept %d, dropped %d; want 3, 2", v.Len(), w.Dropped)
	}
	for i, want := range []int{0, 2, 4} {
		if e := v.At(i); e.Pos != want || e.Ev.Seq != uint64(want) || v.Type(i) != e.Ev.Type {
			t.Errorf("entry %d = %+v, want position and seq %d", i, e, want)
		}
		if v.Index(want) != i {
			t.Errorf("Index(%d) = %d, want %d", want, v.Index(want), i)
		}
	}
	if v.Index(3) != -1 {
		t.Errorf("dropped position 3 indexed at %d", v.Index(3))
	}

	// No drops: the view is the segment itself, and no index is built.
	w2 := &Window{Start: w.Start + 2, Arrivals: 3}
	w2.Bind(&r)
	if v2 := w2.Entries(); v2.Len() != 3 || v2.Pos(2) != 2 || v2.Event(0).Seq != 2 || v2.Index(2) != 2 {
		t.Errorf("undropped view = len %d, pos(2) %d", v2.Len(), v2.Pos(2))
	}
}

// TestNewViewRoundTrips checks that explicit entries read back unchanged
// through the position-indexed layout, with gaps indexed and a gap-free
// run read directly.
func TestNewViewRoundTrips(t *testing.T) {
	for _, positions := range [][]int{{0, 1, 2}, {1, 4, 5, 9}, {}} {
		ents := make([]Entry, len(positions))
		for i, p := range positions {
			ents[i] = Entry{Ev: typed(uint64(10+i), event.Time(p), event.Type(p)), Pos: p}
		}
		v := NewView(ents)
		if v.Len() != len(ents) {
			t.Fatalf("positions %v: Len() = %d", positions, v.Len())
		}
		for i, want := range ents {
			got := v.At(i)
			if got.Pos != want.Pos || got.Ev.Seq != want.Ev.Seq || got.Ev.TS != want.Ev.TS ||
				v.Pos(i) != want.Pos || v.Type(i) != want.Ev.Type {
				t.Errorf("positions %v: entry %d = %+v, want %+v", positions, i, got, want)
			}
			if v.Index(want.Pos) != i {
				t.Errorf("positions %v: Index(%d) = %d, want %d", positions, want.Pos, v.Index(want.Pos), i)
			}
		}
		if len(positions) > 1 && positions[0] > 0 && v.Index(0) != -1 {
			t.Errorf("positions %v: gap position 0 indexed at %d", positions, v.Index(0))
		}
	}
}

// TestRingTrimCompacts checks that trimming keeps absolute indices
// stable across compaction and bounds what the ring holds.
func TestRingTrimCompacts(t *testing.T) {
	var r Ring
	for i := uint64(0); i < 1000; i++ {
		at := r.Push(ev(i, 0))
		if at != i {
			t.Fatalf("Push %d returned index %d", i, at)
		}
		if i >= 10 {
			r.Trim(i - 10) // keep the last ten events live
		}
		if bound := r.Live() + max(r.Live(), RingSlack); r.Len() > bound {
			t.Fatalf("after %d pushes the ring holds %d events, bound %d", i+1, r.Len(), bound)
		}
	}
	seg := r.Segment(990, 10)
	for i, e := range seg {
		if e.Seq != uint64(990+i) {
			t.Fatalf("segment[%d] = seq %d after compaction", i, e.Seq)
		}
	}
	r.Trim(r.End() + 5) // past the end: clamped
	if r.Live() != 0 || r.End() != 1000 {
		t.Errorf("after a full trim: live %d, end %d", r.Live(), r.End())
	}
}

func TestManagerCounters(t *testing.T) {
	m, err := NewManager(Spec{Mode: ModeCount, Count: 2, Slide: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		m.Route(ev(i, 0))
	}
	if m.TotalOpened() != 5 || m.TotalClosed() != 5 {
		t.Errorf("opened/closed = %d/%d, want 5/5", m.TotalOpened(), m.TotalClosed())
	}
	if len(m.policy.open) != 0 || len(m.owner.open) != 0 {
		t.Errorf("open windows left: policy %d, owner %d", len(m.policy.open), len(m.owner.open))
	}
}

// Property: for tumbling count windows (slide == count), every event is in
// exactly one window, positions within each window are 0..count-1, and all
// windows except possibly the last have exactly count events.
func TestTumblingCountPartitionProperty(t *testing.T) {
	f := func(rawCount uint8, rawN uint16) bool {
		count := int(rawCount)%20 + 1
		n := int(rawN) % 500
		m, err := NewManager(Spec{Mode: ModeCount, Count: count, Slide: count})
		if err != nil {
			return false
		}
		var sizes []int
		memberships := 0
		for i := 0; i < n; i++ {
			member, closed := m.Route(ev(uint64(i), 0))
			if len(member) != 1 {
				return false
			}
			memberships += len(member)
			for _, c := range closed {
				sizes = append(sizes, c.Size())
			}
		}
		for _, c := range m.Flush() {
			sizes = append(sizes, c.Size())
		}
		total := 0
		for i, s := range sizes {
			if i < len(sizes)-1 && s != count {
				return false
			}
			total += s
		}
		return total == n && memberships == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: positions within any window are strictly increasing and dense
// (0,1,2,...) in arrival order.
func TestPositionDensityProperty(t *testing.T) {
	f := func(rawSlide uint8, rawN uint16) bool {
		slide := int(rawSlide)%5 + 1
		n := int(rawN)%300 + 1
		m, err := NewManager(Spec{Mode: ModeCount, Count: 10, Slide: slide})
		if err != nil {
			return false
		}
		lastPos := make(map[ID]int)
		for i := 0; i < n; i++ {
			member, _ := m.Route(ev(uint64(i), 0))
			for _, mb := range member {
				prev, seen := lastPos[mb.W.ID]
				if !seen {
					if mb.Pos != 0 {
						return false
					}
				} else if mb.Pos != prev+1 {
					return false
				}
				lastPos[mb.W.ID] = mb.Pos
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPatternBasedClose(t *testing.T) {
	// Session-like windows: open on possession, close on whistle (kind
	// none from type 9), bounded by a 100-event backstop.
	openT, closeT := event.Type(1), event.Type(9)
	m, err := NewManager(Spec{
		Mode:  ModeCount,
		Count: 100,
		Open:  func(e event.Event) bool { return e.Type == openT },
		Close: func(e event.Event) bool { return e.Type == closeT },
	})
	if err != nil {
		t.Fatal(err)
	}
	var closed []*Window
	route := func(seq uint64, typ event.Type) []Membership {
		member, cl := m.Route(event.Event{Seq: seq, Type: typ})
		closed = append(closed, cl...)
		return append([]Membership(nil), member...)
	}
	route(0, openT)            // opens w0
	route(1, 2)                // inside
	member := route(2, closeT) // closes w0, not a member
	if len(member) != 0 {
		t.Errorf("closing event joined a window: %+v", member)
	}
	if len(closed) != 1 || closed[0].Size() != 2 {
		t.Fatalf("closed = %+v", closed)
	}
	// A close event that also satisfies Open: closes old, opens new.
	m2, err := NewManager(Spec{
		Mode:  ModeCount,
		Count: 100,
		Open:  func(e event.Event) bool { return e.Type == openT },
		Close: func(e event.Event) bool { return e.Type == openT },
	})
	if err != nil {
		t.Fatal(err)
	}
	m2.Route(event.Event{Seq: 0, Type: openT})
	member2, cl2 := m2.Route(event.Event{Seq: 1, Type: openT})
	if len(cl2) != 1 || cl2[0].Size() != 1 {
		t.Fatalf("re-open close: closed = %+v", cl2)
	}
	if len(member2) != 1 || member2[0].Pos != 0 {
		t.Fatalf("re-open close: member = %+v", member2)
	}
}

func TestPatternCloseBackstopStillApplies(t *testing.T) {
	openT := event.Type(1)
	m, err := NewManager(Spec{
		Mode:  ModeCount,
		Count: 3,
		Open:  func(e event.Event) bool { return e.Type == openT },
		Close: func(e event.Event) bool { return e.Type == event.Type(99) }, // never fires
	})
	if err != nil {
		t.Fatal(err)
	}
	var closed []*Window
	for i := uint64(0); i < 5; i++ {
		typ := event.Type(2)
		if i == 0 {
			typ = openT
		}
		_, cl := m.Route(event.Event{Seq: i, Type: typ})
		closed = append(closed, cl...)
	}
	if len(closed) != 1 || closed[0].Size() != 3 {
		t.Fatalf("count backstop did not close: %+v", closed)
	}
}

// --- Window pooling (freelist reuse, detaching, allocation freedom) ----

func TestReleaseRecyclesWindows(t *testing.T) {
	m, err := NewManager(Spec{Mode: ModeCount, Count: 2, Slide: 2})
	if err != nil {
		t.Fatal(err)
	}
	var first *Window
	_, _ = m.Route(ev(0, 0))
	_, closed := m.Route(ev(1, 1))
	if len(closed) != 1 {
		t.Fatalf("closed = %d windows, want 1", len(closed))
	}
	first = closed[0]
	first.Add(ev(0, 0), 0)
	first.Add(ev(1, 1), 1)
	kept := first.CopyKept(nil) // values: safe to keep past Release
	m.Release(first)

	// A retained reference reads a detached, empty window...
	if first.Closed() || first.Size() != 0 || first.Dropped != 0 || first.Entries().Len() != 0 {
		t.Errorf("released window not detached: size %d, entries %d", first.Size(), first.Entries().Len())
	}
	// ...while the copied entries keep their values.
	if len(kept) != 2 || kept[1].Pos != 1 || kept[1].Ev.Seq != 1 {
		t.Errorf("copied entries changed by Release: %+v", kept)
	}

	// The next opened window must reuse the released struct.
	member, _ := m.Route(ev(2, 2))
	if len(member) != 1 || member[0].W != first {
		t.Errorf("freelist not reused: got %p, want %p", member[0].W, first)
	}
	if member[0].W.ID != 1 || member[0].W.OpenSeq != 2 {
		t.Errorf("reused window fields stale: %+v", member[0].W)
	}
}

func TestReleaseIgnoresOpenAndDoubleRelease(t *testing.T) {
	m, err := NewManager(Spec{Mode: ModeCount, Count: 4, Slide: 4})
	if err != nil {
		t.Fatal(err)
	}
	member, _ := m.Route(ev(0, 0))
	open := member[0].W
	m.Release(open) // still open: must be ignored
	if len(m.owner.pool.free) != 0 {
		t.Fatalf("open window entered freelist")
	}
	m.Release(nil) // nil: ignored

	_, closed := m.Route(ev(1, 1))
	_, closed = m.Route(ev(2, 2))
	_, closed = m.Route(ev(3, 3))
	if len(closed) != 1 {
		t.Fatalf("closed = %d, want 1", len(closed))
	}
	m.Release(closed[0])
	m.Release(closed[0]) // double release: ignored (closed flag was reset)
	if len(m.owner.pool.free) != 1 {
		t.Fatalf("freelist = %d entries, want 1", len(m.owner.pool.free))
	}
}

func TestRouteSteadyStateZeroAlloc(t *testing.T) {
	m, err := NewManager(Spec{Mode: ModeCount, Count: 64, Slide: 8})
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	step := func() {
		member, closed := m.Route(ev(seq, event.Time(seq)))
		seq++
		for _, mb := range member {
			mb.W.Add(ev(mb.W.OpenSeq, 0), mb.Pos)
		}
		for _, w := range closed {
			m.Release(w)
		}
	}
	for i := 0; i < 1024; i++ { // warm pool and buffers
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady-state Route+Add+Release allocates %.2f/event, want 0", allocs)
	}
}

// TestPolicyOwnerSteadyStateZeroAlloc is the owner loop's gate: a
// Policy step applied to an Owner — closes before, open, push with a
// drop, closes after, each close released — allocates nothing once the
// pool, the ring and the step buffers are warm, for sliding count and
// time windows.
func TestPolicyOwnerSteadyStateZeroAlloc(t *testing.T) {
	for _, spec := range []Spec{
		{Mode: ModeCount, Count: 64, Slide: 8},
		{Mode: ModeTime, Length: 64, SlideTime: 8},
	} {
		p, err := NewPolicy(spec)
		if err != nil {
			t.Fatal(err)
		}
		var o Owner
		seq := uint64(0)
		closeAll := func(recs []Rec) {
			for _, r := range recs {
				w := o.Close(r.ID)
				_ = w.Entries().Len()
				o.Release(w)
			}
		}
		step := func() {
			e := ev(seq, event.Time(seq))
			seq++
			st := p.Step(e)
			closeAll(st.Before)
			if st.Opened {
				o.Open(st.Open)
			}
			for _, w := range o.Push(e) {
				if pos := o.Pos(w); pos%3 == 0 {
					w.Drop(pos)
				}
			}
			closeAll(st.After)
		}
		for i := 0; i < 1024; i++ { // warm pool, ring and buffers
			step()
		}
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("%v: steady-state Policy step + Owner allocates %.2f/event, want 0", spec.Mode, allocs)
		}
	}
}

// TestOwnerCloseAndRelease pins the Owner contract the owner loops and
// the Manager rely on: windows close in any order, a closed window's
// view reads the ring intact until it is released even when another
// window is released first, and the ring is trimmed empty once nothing
// references it.
func TestOwnerCloseAndRelease(t *testing.T) {
	var o Owner
	o.Open(Rec{ID: 0})
	for i := uint64(0); i < 70; i++ {
		o.Push(ev(i, 0))
	}
	o.Open(Rec{ID: 1, OpenSeq: 70})
	for i := uint64(70); i < 140; i++ {
		o.Push(ev(i, 0))
	}
	w1 := o.Close(1) // not the oldest
	w0 := o.Close(0)
	if w0.Size() != 140 || w1.Size() != 70 || !w0.Closed() || o.Oldest() != nil {
		t.Fatalf("sizes %d/%d, closed %v, oldest %v", w0.Size(), w1.Size(), w0.Closed(), o.Oldest())
	}
	o.Release(w0)
	if v := w1.Entries(); v.Len() != 70 || v.At(0).Ev.Seq != 70 || v.At(69).Ev.Seq != 139 {
		t.Fatalf("releasing another window disturbed an outstanding view: first seq %d", v.At(0).Ev.Seq)
	}
	o.Release(w1)
	if o.Ring().Live() != 0 || o.Ring().Len() != 0 {
		t.Errorf("ring keeps %d live of %d events after every window was released", o.Ring().Live(), o.Ring().Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("closing a window the owner does not hold did not panic")
		}
	}()
	o.Close(7)
}

// TestPoolRecyclesAndCounts pins the standalone Pool contract the
// sharded runtime's per-shard window ownership relies on: Get recycles
// released structs (counting misses only on true allocations), Put
// detaches and zeroes — including the ring binding — while keeping the
// buffers warm.
func TestPoolRecyclesAndCounts(t *testing.T) {
	var p Pool
	w := p.Get()
	if p.Gets() != 1 || p.Misses() != 1 {
		t.Fatalf("first Get: gets=%d misses=%d, want 1/1", p.Gets(), p.Misses())
	}
	var r Ring
	w.ID = 7
	w.Start = r.End()
	for i := uint64(0); i < 3; i++ {
		r.Push(ev(i, event.Time(i)))
		w.Arrivals++
	}
	w.Drop(1)
	w.closed = true
	w.Bind(&r)
	if w.Entries().Len() != 2 {
		t.Fatalf("bound window holds %d entries, want 2", w.Entries().Len())
	}
	p.Put(w)
	if w.Size() != 0 || w.Entries().Len() != 0 {
		t.Errorf("Put did not detach: size %d, entries %d", w.Size(), w.Entries().Len())
	}
	if got := r.Segment(0, 3); got[1].Seq != 1 {
		t.Errorf("Put clobbered the shared ring: %+v", got)
	}
	rw := p.Get()
	if rw != w {
		t.Fatalf("Get did not recycle the Put window")
	}
	if p.Misses() != 1 {
		t.Errorf("recycled Get counted a miss: %d", p.Misses())
	}
	if rw.ID != 0 || rw.Closed() || rw.Arrivals != 0 || rw.Start != 0 || rw.Dropped != 0 {
		t.Errorf("recycled window not zeroed: %+v", rw)
	}
	// The drop marks of the previous life are gone.
	rw.Start, rw.Arrivals = 0, 3
	rw.Bind(&r)
	if rw.Entries().Len() != 3 {
		t.Errorf("recycled window inherited drop marks: %d kept of 3", rw.Entries().Len())
	}
	p.Put(nil) // ignored
}

// TestManagerPoolMisses asserts the manager-level miss counter stops
// climbing once every closed window is released back.
func TestManagerPoolMisses(t *testing.T) {
	m, err := NewManager(Spec{Mode: ModeCount, Count: 4, Slide: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		_, closed := m.Route(ev(i, event.Time(i)))
		for _, w := range closed {
			m.Release(w)
		}
	}
	warm := m.owner.pool.Misses()
	if warm == 0 {
		t.Fatal("expected some initial pool misses while warming")
	}
	for i := uint64(64); i < 256; i++ {
		_, closed := m.Route(ev(i, event.Time(i)))
		for _, w := range closed {
			m.Release(w)
		}
	}
	if got := m.owner.pool.Misses(); got != warm {
		t.Errorf("pool misses climbed from %d to %d in steady state (leak)", warm, got)
	}
}
