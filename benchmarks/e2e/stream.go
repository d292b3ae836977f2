package main

import (
	"fmt"
	"sort"

	"repro/internal/datasets"
	"repro/internal/event"
	"repro/internal/queries"
)

// tileMinutes is the length of one generated dataset tile; every
// workload replays the tile end to end as often as its phases need.
const tileMinutes = 240

// connShift places the connection id in the high bits of Event.Seq, so
// sequences are strictly increasing per connection and disjoint across
// connections (the ledger's sum/xor fingerprints stay collision-free).
const connShift = 40

// tile is one seeded NYSE dataset. Replaying it k times with k*span
// added to every timestamp continues the minute grid seamlessly, so
// time windows close exactly as they would on one long stream.
type tile struct {
	meta   *datasets.NYSEMeta
	events []event.Event
	span   event.Time
}

// newTile generates the stream every workload is built on: 240 minutes
// of 500 symbols with the ten Q4 symbols quoting four times a minute.
func newTile(seed int64) (*tile, error) {
	cfg := datasets.NYSEConfig{Minutes: tileMinutes, Seed: seed, HotQuotesPerMinute: 4}
	cfg.HotSymbols = queries.Q4HotSymbolIDs(datasets.NYSEConfig{Leaders: 5})
	meta, events, err := datasets.GenerateNYSE(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate tile: %w", err)
	}
	return &tile{meta: meta, events: events, span: tileMinutes * event.Minute}, nil
}

// at returns the event at global stream index i of connection conn.
// Vals are shared with the tile (events treat them as immutable).
func (t *tile) at(conn int, i uint64) event.Event {
	n := uint64(len(t.events))
	ev := t.events[i%n]
	ev.TS += event.Time(i/n) * t.span
	ev.Seq = uint64(conn)<<connShift | i
	return ev
}

// fill writes the events at indices [from, from+len(dst)) into dst.
func (t *tile) fill(dst []event.Event, conn int, from uint64) {
	for k := range dst {
		dst[k] = t.at(conn, from+uint64(k))
	}
}

// indexOf maps a timestamp back to the stream index of the first event
// carrying it — how a complex event's DetectedAt (the timestamp of the
// window-closing event) finds the batch that delivered it.
func (t *tile) indexOf(ts event.Time) uint64 {
	k := uint64(ts / t.span)
	rem := ts - event.Time(k)*t.span
	j := sort.Search(len(t.events), func(i int) bool { return t.events[i].TS >= rem })
	return k*uint64(len(t.events)) + uint64(j)
}
