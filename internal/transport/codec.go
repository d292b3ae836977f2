// The binary event codec: a FrameEvents payload is
//
//	uvarint count
//	count × event
//
// and each event is encoded as
//
//	uvarint seq
//	uvarint type     (the registry-interned type id)
//	zigzag  ts       (virtual microseconds; signed varint)
//	byte    kind
//	uvarint nvals
//	nvals × 8-byte little-endian IEEE-754 float64
//
// Decoding is allocation-free in steady state: the decoder owns an
// event slice and a flat float64 arena that are recycled across calls,
// exactly like the window manager recycles windows (the PR-3 pooling
// contract). The returned batch and every Vals slice alias that scratch
// and stay valid only until the next DecodeEvents call; a consumer that
// hands events to a pipeline — which retains them inside open windows —
// must set Retain, which detaches the Vals backing store into a fresh
// per-call slab (one allocation per frame, amortized over the batch)
// while still recycling the event slice itself (Pipeline.SubmitBatch
// copies the event structs, so only the Vals pointers must survive).
package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/event"
)

// Encoder serializes event batches into FrameEvents payloads. The zero
// value is ready to use; an Encoder is not safe for concurrent use.
type Encoder struct{}

// AppendEvents appends the FrameEvents payload for events to dst and
// returns the extended slice.
func (Encoder) AppendEvents(dst []byte, events []event.Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	for _, e := range events {
		dst = binary.AppendUvarint(dst, e.Seq)
		dst = binary.AppendUvarint(dst, uint64(uint32(e.Type)))
		dst = binary.AppendVarint(dst, int64(e.TS))
		dst = append(dst, byte(e.Kind))
		dst = binary.AppendUvarint(dst, uint64(len(e.Vals)))
		for _, v := range e.Vals {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// AppendEventsFrame appends a complete FrameEvents (header + payload)
// for events to dst and returns the extended slice.
func (enc Encoder) AppendEventsFrame(dst []byte, events []event.Event) []byte {
	payload := enc.AppendEvents(nil, events)
	return AppendFrame(dst, FrameEvents, payload)
}

// Decoder parses FrameEvents payloads. The zero value is ready to use;
// a Decoder is not safe for concurrent use.
type Decoder struct {
	// MaxTypes bounds the acceptable type ids to [0, MaxTypes); an id at
	// or past the bound is a protocol error. Zero accepts every
	// non-negative id (the registry bound is then enforced by the
	// application, if at all).
	MaxTypes int
	// MaxVals bounds the attribute count of a single event
	// (DefaultMaxVals when zero).
	MaxVals int
	// MaxBatch bounds the event count of a single frame
	// (DefaultMaxBatch when zero).
	MaxBatch int
	// Retain detaches the decoded Vals into a fresh exact-size slab on
	// every call, so the events may be handed to a consumer that keeps
	// them (a pipeline buffering open windows). Without Retain the Vals
	// alias the decoder's recycled arena and expire at the next call.
	Retain bool

	events  []event.Event
	arena   []float64
	extents []valExtent
}

// valExtent records one event's Vals range inside the decode arena; the
// subslices are carved out only after parsing, because the growing
// arena may be reallocated mid-frame.
type valExtent struct{ start, n int }

// Decode bounds defaults.
const (
	// DefaultMaxVals bounds the per-event attribute count.
	DefaultMaxVals = 1 << 10
	// DefaultMaxBatch bounds the per-frame event count.
	DefaultMaxBatch = 1 << 16
)

// DecodeEvents parses one FrameEvents payload. The returned slice is
// recycled across calls (see the package comment on the pooling
// contract); it is never retained past the next DecodeEvents call by a
// correct caller. Malformed input — truncated events, trailing bytes,
// out-of-range type ids, oversized counts — returns an error and never
// panics or reads past the payload.
func (d *Decoder) DecodeEvents(payload []byte) ([]event.Event, error) {
	events, err := d.appendEvents(d.events[:0], payload)
	if err != nil {
		return nil, err
	}
	d.events = events
	return events, nil
}

// appendEvents decodes one FrameEvents payload onto dst and returns the
// extended slice — how the server gathers the frames of one run into a
// single event slab. Only the Vals arena is decoder scratch; with Retain
// each call still detaches its own slab, so earlier frames' events stay
// intact. On error dst's first len(dst) elements are untouched.
func (d *Decoder) appendEvents(dst []event.Event, payload []byte) ([]event.Event, error) {
	maxVals := d.MaxVals
	if maxVals <= 0 {
		maxVals = DefaultMaxVals
	}
	maxBatch := d.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("transport: malformed event count")
	}
	payload = payload[n:]
	if count > uint64(maxBatch) {
		return nil, fmt.Errorf("transport: batch of %d events exceeds limit %d", count, maxBatch)
	}
	// Each event costs at least 5 bytes on the wire, so a count that
	// cannot fit the remaining payload is rejected before any allocation
	// is sized from it.
	if count > uint64(len(payload)/minEventWire+1) {
		return nil, fmt.Errorf("transport: event count %d exceeds payload", count)
	}
	events, base := dst, len(dst)
	arena := d.arena[:0]
	extents := d.extents[:0]
	for i := uint64(0); i < count; i++ {
		var e event.Event
		seq, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("transport: event %d: truncated seq", i)
		}
		payload = payload[n:]
		e.Seq = seq

		typ, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("transport: event %d: truncated type", i)
		}
		payload = payload[n:]
		if typ > math.MaxInt32 {
			return nil, fmt.Errorf("transport: event %d: type id %d out of range", i, typ)
		}
		if d.MaxTypes > 0 && typ >= uint64(d.MaxTypes) {
			return nil, fmt.Errorf("transport: event %d: unknown type id %d (registry has %d)", i, typ, d.MaxTypes)
		}
		e.Type = event.Type(typ)

		ts, n := binary.Varint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("transport: event %d: truncated timestamp", i)
		}
		payload = payload[n:]
		e.TS = event.Time(ts)

		if len(payload) < 1 {
			return nil, fmt.Errorf("transport: event %d: truncated kind", i)
		}
		e.Kind = event.Kind(payload[0])
		payload = payload[1:]

		nvals, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("transport: event %d: truncated value count", i)
		}
		payload = payload[n:]
		if nvals > uint64(maxVals) {
			return nil, fmt.Errorf("transport: event %d: %d values exceed limit %d", i, nvals, maxVals)
		}
		if uint64(len(payload)) < nvals*8 {
			return nil, fmt.Errorf("transport: event %d: truncated values", i)
		}
		start := len(arena)
		for j := uint64(0); j < nvals; j++ {
			arena = append(arena, math.Float64frombits(binary.LittleEndian.Uint64(payload[j*8:])))
		}
		payload = payload[nvals*8:]
		extents = append(extents, valExtent{start, int(nvals)})
		events = append(events, e)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after %d events", len(payload), count)
	}
	vals := arena
	if d.Retain && len(arena) > 0 {
		vals = make([]float64, len(arena))
		copy(vals, arena)
	}
	for i, ext := range extents {
		if ext.n > 0 {
			events[base+i].Vals = vals[ext.start : ext.start+ext.n : ext.start+ext.n]
		}
	}
	d.arena, d.extents = arena, extents
	return events, nil
}

// minEventWire is the smallest possible wire size of one event: 1-byte
// seq + 1-byte type + 1-byte ts + kind + 1-byte value count.
const minEventWire = 5
