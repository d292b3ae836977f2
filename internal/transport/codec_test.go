package transport

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/event"
)

// genEvents builds a deterministic batch with a mix of value shapes.
func genEvents(n int) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{
			Seq:  uint64(i) * 3,
			Type: event.Type(i % 7),
			TS:   event.Time(i) * event.Millisecond,
			Kind: event.Kind(i % 4),
		}
		switch i % 3 {
		case 0:
			evs[i].Vals = []float64{float64(i), -1.5, math.Pi}
		case 1:
			evs[i].Vals = []float64{math.Float64frombits(0x7ff8000000000001)} // NaN payload survives
		}
	}
	return evs
}

// eventsEqual compares batches treating nil and empty Vals as equal.
func eventsEqual(a, b []event.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Seq != y.Seq || x.Type != y.Type || x.TS != y.TS || x.Kind != y.Kind {
			return false
		}
		if len(x.Vals) != len(y.Vals) {
			return false
		}
		for j := range x.Vals {
			if math.Float64bits(x.Vals[j]) != math.Float64bits(y.Vals[j]) {
				return false
			}
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	var enc Encoder
	var dec Decoder
	for _, n := range []int{0, 1, 7, 256} {
		in := genEvents(n)
		payload := enc.AppendEvents(nil, in)
		out, err := dec.DecodeEvents(payload)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !eventsEqual(in, out) {
			t.Fatalf("n=%d: roundtrip mismatch:\n in=%v\nout=%v", n, in, out)
		}
	}
}

func TestCodecNegativeTimestamp(t *testing.T) {
	var enc Encoder
	var dec Decoder
	in := []event.Event{{Seq: 1, Type: 0, TS: -5 * event.Second, Kind: event.KindRising}}
	out, err := dec.DecodeEvents(enc.AppendEvents(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].TS != in[0].TS {
		t.Fatalf("ts roundtrip: got %v want %v", out[0].TS, in[0].TS)
	}
}

// TestCodecScratchReuse pins the pooling contract: the second decode
// recycles the first decode's events and arena, so retaining the first
// batch observes clobbered data — exactly like the window pool.
func TestCodecScratchReuse(t *testing.T) {
	var enc Encoder
	var dec Decoder
	first, err := dec.DecodeEvents(enc.AppendEvents(nil, genEvents(8)))
	if err != nil {
		t.Fatal(err)
	}
	vals0 := first[0].Vals[0]
	other := make([]event.Event, 8)
	for i := range other {
		other[i] = event.Event{Seq: 999, Vals: []float64{-42, -42, -42}}
	}
	if _, err := dec.DecodeEvents(enc.AppendEvents(nil, other)); err != nil {
		t.Fatal(err)
	}
	if first[0].Vals[0] == vals0 {
		t.Fatalf("arena not recycled: retained Vals still read %v", vals0)
	}
}

// TestCodecRetain pins the hand-off mode: with Retain set the decoded
// Vals survive later decodes, so batches may be submitted to a sink
// that buffers them inside open windows.
func TestCodecRetain(t *testing.T) {
	var enc Encoder
	dec := Decoder{Retain: true}
	in := genEvents(8)
	first, err := dec.DecodeEvents(enc.AppendEvents(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]event.Event(nil), first...)
	if _, err := dec.DecodeEvents(enc.AppendEvents(nil, genEvents(64))); err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(kept[:len(in)], in) {
		t.Fatal("Retain mode did not preserve Vals across decodes")
	}
}

func TestCodecErrors(t *testing.T) {
	var enc Encoder
	valid := enc.AppendEvents(nil, genEvents(3))
	cases := []struct {
		name    string
		payload []byte
		dec     Decoder
	}{
		{name: "empty", payload: nil},
		{name: "truncated mid-event", payload: valid[:len(valid)-3]},
		{name: "trailing bytes", payload: append(append([]byte(nil), valid...), 0xAB)},
		{name: "count exceeds payload", payload: []byte{0xFF, 0x7F}},
		{name: "count exceeds MaxBatch", payload: valid, dec: Decoder{MaxBatch: 2}},
		{name: "unknown type id", payload: valid, dec: Decoder{MaxTypes: 1}},
		{name: "too many vals", payload: valid, dec: Decoder{MaxVals: 2}},
		{name: "huge type id", payload: hugeTypePayload()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.dec.DecodeEvents(tc.payload); err == nil {
				t.Fatalf("decode of %q input succeeded, want error", tc.name)
			}
		})
	}
}

// hugeTypePayload hand-crafts a single-event payload whose type id
// exceeds int32 — unconstructable through the Encoder, rejectable only
// by the Decoder's range check.
func hugeTypePayload() []byte {
	p := binary.AppendUvarint(nil, 1)  // count
	p = binary.AppendUvarint(p, 0)     // seq
	p = binary.AppendUvarint(p, 1<<33) // type id out of int32 range
	p = binary.AppendVarint(p, 0)      // ts
	p = append(p, 0)                   // kind
	return binary.AppendUvarint(p, 0)  // nvals
}

// TestCodecDecodeZeroAlloc gates the steady-state allocation behavior
// of the hot decode path, like the PR-3 operator/matcher gates: with a
// warmed scratch and Retain off, a decode performs no allocations.
func TestCodecDecodeZeroAlloc(t *testing.T) {
	var enc Encoder
	var dec Decoder
	payload := enc.AppendEvents(nil, genEvents(256))
	if _, err := dec.DecodeEvents(payload); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.DecodeEvents(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeEvents allocates %.1f times per call in steady state, want 0", allocs)
	}
}

// TestCodecRetainAllocsBounded pins the Retain-mode bound: one slab
// allocation per frame, independent of the event count.
func TestCodecRetainAllocsBounded(t *testing.T) {
	var enc Encoder
	dec := Decoder{Retain: true}
	payload := enc.AppendEvents(nil, genEvents(256))
	if _, err := dec.DecodeEvents(payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.DecodeEvents(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Retain decode allocates %.1f times per 256-event frame, want <= 1", allocs)
	}
}

// AppendNDJSON appends the NDJSON line (with trailing newline) for e to
// dst, rendering the type by name through reg when non-nil: the producer
// side of the line codec, for the tests that drive the NDJSON framing.
func AppendNDJSON(dst []byte, e event.Event, reg *event.Registry) []byte {
	raw := ndjsonEvent{Seq: e.Seq, TS: int64(e.TS), Vals: e.Vals}
	if reg != nil {
		name, _ := json.Marshal(reg.Name(e.Type))
		raw.Type = name
	} else {
		raw.Type = json.RawMessage(strconv.FormatInt(int64(e.Type), 10))
	}
	raw.Kind = json.RawMessage(strconv.FormatUint(uint64(e.Kind), 10))
	line, err := json.Marshal(raw)
	if err != nil {
		// ndjsonEvent contains only marshalable fields; NaN/Inf values
		// are the single failure mode and are a caller data error.
		panic(fmt.Sprintf("transport: ndjson marshal: %v", err))
	}
	dst = append(dst, line...)
	return append(dst, '\n')
}

func TestNDJSONRoundTrip(t *testing.T) {
	reg := event.NewRegistry()
	reg.RegisterAll("AAA", "BBB")
	in := event.Event{Seq: 7, Type: 1, TS: 1500 * event.Millisecond, Kind: event.KindDefend, Vals: []float64{1, 2.5}}
	line := AppendNDJSON(nil, in, reg)
	out, err := decodeNDJSONLine(trimLine(line), reg)
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual([]event.Event{in}, []event.Event{out}) {
		t.Fatalf("ndjson roundtrip: got %+v want %+v", out, in)
	}

	// Numeric type ids and named kinds are accepted too.
	out, err = decodeNDJSONLine([]byte(`{"seq":1,"type":0,"ts":10,"kind":"rising"}`), reg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != event.KindRising || out.Type != 0 {
		t.Fatalf("got %+v", out)
	}

	for _, bad := range []string{
		`{"seq":1,"ts":10}`,                      // missing type
		`{"seq":1,"type":"NOPE","ts":10}`,        // unknown name
		`{"seq":1,"type":9,"ts":10}`,             // id out of registry
		`{"seq":1,"type":-1,"ts":10}`,            // negative id
		`{"seq":1,"type":0,"kind":"wat","ts":1}`, // unknown kind
		`not json`,
	} {
		if _, err := decodeNDJSONLine([]byte(bad), reg); err == nil {
			t.Errorf("decode of %s succeeded, want error", bad)
		}
	}
}
