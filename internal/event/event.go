// Package event defines the primitive event model used throughout the
// repository: typed, globally ordered events carrying attribute values, as
// described in Section 2 of the eSPICE paper (Slo et al., Middleware '19).
//
// An event consists of meta-data (type, sequence number, timestamp) and
// attribute-value pairs. The sequence number provides the global order of
// the input stream; the timestamp drives time-based windows. Event types are
// interned as small integers via a Registry so that the eSPICE utility table
// can be indexed by (type, position) in O(1).
package event

import (
	"fmt"
	"strconv"
	"strings"
)

// Type identifies an event type (e.g., a stock symbol or a player id).
// Types are small dense integers assigned by a Registry, which makes them
// directly usable as array indices in the utility table.
type Type int32

// NoType is the zero value guard; valid types are >= 0.
const NoType Type = -1

// Time is a virtual timestamp in microseconds since the start of the
// stream. Using an integer virtual clock keeps simulations deterministic
// and avoids the pitfalls of wall-clock time in tests; conversions to and
// from wall-clock durations live at the edges (see internal/runtime).
type Time int64

// Common time unit constants, mirroring time.Duration at microsecond
// resolution.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Seconds returns the timestamp as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the timestamp as a human-readable duration.
func (t Time) String() string {
	return strconv.FormatFloat(t.Seconds(), 'f', 6, 64) + "s"
}

// Kind discriminates application-level variants of an event that share a
// type, e.g. a rising vs. falling stock quote, or a possession vs. defend
// action of the same player. The CEP pattern predicates (Section 4.1 of the
// paper: "rising or falling stock quotes", "defend event") test Kind and
// attribute values; the eSPICE utility model deliberately sees only the
// type and position (Section 3.2).
type Kind uint8

// Kinds used by the bundled datasets. Applications may define their own.
const (
	KindNone       Kind = iota
	KindRising          // stock quote change > 0
	KindFalling         // stock quote change < 0
	KindPossession      // striker possesses the ball
	KindDefend          // defender within marking distance of a striker
	KindPosition        // plain position update (background traffic)
)

// kindNames is the single name table shared by Kind.String and
// ParseKind, indexed by Kind, so rendering and parsing cannot drift;
// add new bundled kinds here.
var kindNames = [...]string{
	KindNone:       "none",
	KindRising:     "rising",
	KindFalling:    "falling",
	KindPossession: "possession",
	KindDefend:     "defend",
	KindPosition:   "position",
}

// String returns the name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// ParseKind resolves a kind name as rendered by Kind.String back to the
// Kind value. It accepts the bundled kinds (via the shared kindNames
// table) plus the "kind(<n>)" fallback spelling, so any String output
// round-trips; wire codecs (NDJSON ingest) use it to accept kinds by
// name.
func ParseKind(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	if strings.HasPrefix(name, "kind(") && strings.HasSuffix(name, ")") {
		n, err := strconv.Atoi(name[len("kind(") : len(name)-1])
		if err == nil && n >= len(kindNames) && n <= 255 {
			return Kind(n), true
		}
	}
	return KindNone, false
}

// Event is a primitive event in an input event stream.
//
// Vals holds the attribute values; their meaning is given by the stream's
// Schema (attribute name -> index). Events are small value types and are
// passed by value throughout the engine; Vals is the only pointer-shaped
// field and is treated as immutable after creation. The fields are
// ordered widest first so the struct packs into 48 bytes: every batch,
// queue slot and window ring holds events by value.
type Event struct {
	Seq  uint64    // global sequence number (dense, starts at 0)
	TS   Time      // virtual timestamp
	Vals []float64 // attribute values, indexed per Schema
	Type Type      // interned event type
	Kind Kind      // application-level discriminator
}

// Val returns the attribute value at index i, or 0 if the event does not
// carry that attribute. Out-of-range access is a data error, not a
// programming error, so it degrades to the zero value rather than
// panicking.
func (e Event) Val(i int) float64 {
	if i < 0 || i >= len(e.Vals) {
		return 0
	}
	return e.Vals[i]
}

// String renders a compact debug representation.
func (e Event) String() string {
	return fmt.Sprintf("ev{seq=%d type=%d kind=%s ts=%s}", e.Seq, e.Type, e.Kind, e.TS)
}

// Schema names the attribute slots of events in a stream.
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema builds a schema from an ordered list of attribute names.
func NewSchema(names ...string) *Schema {
	s := &Schema{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
	}
	for i, n := range names {
		s.index[n] = i
	}
	return s
}

// Index returns the value slot of the named attribute and whether it
// exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Names returns a copy of the attribute names in slot order.
func (s *Schema) Names() []string { return append([]string(nil), s.names...) }

// Len reports the number of attributes.
func (s *Schema) Len() int { return len(s.names) }
