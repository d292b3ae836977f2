package main

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/event"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/transport"
)

// membershipsPerEvent replays the first n stream events through Q2's
// four-minute time windows, the query whose windows never close when
// timestamps jump backwards at a tile boundary.
func membershipsPerEvent(t *testing.T, tl *tile, n uint64) float64 {
	t.Helper()
	q, err := queries.Q2(tl.meta, 20, pattern.SelectFirst, 240)
	if err != nil {
		t.Fatal(err)
	}
	op, err := operator.New(operator.Config{Window: q.Window, Patterns: q.Patterns})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		op.Process(tl.at(0, i))
	}
	st := op.Stats()
	return float64(st.Memberships) / float64(st.EventsProcessed)
}

func TestTilingKeepsWindowsClosing(t *testing.T) {
	tl, err := newTile(1)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(tl.events))
	one, three := membershipsPerEvent(t, tl, n), membershipsPerEvent(t, tl, 3*n)
	if math.Abs(three-one)/one > 0.02 {
		t.Fatalf("memberships/event: %.2f over one tile, %.2f over three", one, three)
	}
}

func TestStreamOrder(t *testing.T) {
	tl, err := newTile(1)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(tl.events))
	prev := tl.at(1, 0)
	for i := uint64(1); i < 3*n; i++ {
		ev := tl.at(1, i)
		if ev.TS < prev.TS || ev.Seq <= prev.Seq {
			t.Fatalf("event %d: ts %v seq %d after ts %v seq %d", i, ev.TS, ev.Seq, prev.TS, prev.Seq)
		}
		prev = ev
	}
	if got := prev.Seq >> connShift; got != 1 {
		t.Fatalf("connection id in Seq: got %d, want 1", got)
	}
	// indexOf inverts at for every timestamp the stream carries once.
	for _, i := range []uint64{0, 1, n - 1, n, 2*n + 12345} {
		j := tl.indexOf(tl.at(0, i).TS)
		if j > i || tl.at(0, j).TS != tl.at(0, i).TS {
			t.Fatalf("indexOf(ts of %d) = %d", i, j)
		}
	}
}

func TestSeedDecidesTheBytes(t *testing.T) {
	encode := func(seed int64) []byte {
		tl, err := newTile(seed)
		if err != nil {
			t.Fatal(err)
		}
		events := make([]event.Event, 10_000)
		tl.fill(events, 0, uint64(len(tl.events))-5_000) // across a tile boundary
		return transport.Encoder{}.AppendEvents(nil, events)
	}
	a, b, c := encode(1), encode(1), encode(2)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed, two different streams")
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 1 and 2 give the same stream")
	}
}
