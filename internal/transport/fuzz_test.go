package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/event"
)

// FuzzCodecRoundTrip hardens the binary event codec: arbitrary input
// must either be rejected with an error or decode to a batch that
// re-encodes and re-decodes to the same events — and it must never
// panic, over-read, or let a malformed length smuggle an oversized
// allocation past the bounds.
func FuzzCodecRoundTrip(f *testing.F) {
	var enc Encoder
	f.Add(enc.AppendEvents(nil, genEvents(0)))
	f.Add(enc.AppendEvents(nil, genEvents(1)))
	f.Add(enc.AppendEvents(nil, genEvents(17)))
	f.Add(enc.AppendEvents(nil, []event.Event{
		{Seq: 1 << 62, Type: 1<<31 - 1, TS: -1, Kind: 255, Vals: []float64{0}},
	}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // huge count, no events
	f.Add([]byte{0x01, 0x00})                   // one event, truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := Decoder{MaxVals: 64, MaxBatch: 4096}
		events, err := dec.DecodeEvents(data)
		if err != nil {
			return
		}
		// Accepted input must round-trip bit-exactly through the encoder.
		// Copy the batch first: the decoder's scratch is recycled.
		first := append([]event.Event(nil), events...)
		for i := range first {
			first[i].Vals = append([]float64(nil), first[i].Vals...)
		}
		var enc Encoder
		payload := enc.AppendEvents(nil, first)
		again, err := dec.DecodeEvents(payload)
		if err != nil {
			t.Fatalf("re-decode of re-encoded batch failed: %v", err)
		}
		if !eventsEqual(first, again) {
			t.Fatalf("round-trip mismatch:\n first=%v\nagain=%v", first, again)
		}
	})
}

// stubConn is the write side of a connection handler under test: it
// keeps what the handler sends and is never read.
type stubConn struct {
	net.Conn
	sent bytes.Buffer
}

func (c *stubConn) Write(p []byte) (int, error) { return c.sent.Write(p) }
func (c *stubConn) RemoteAddr() net.Addr        { return &net.TCPAddr{} }

// FuzzServerFrame hardens the frame layer: arbitrary byte streams fed
// through the scanner in arbitrary chunkings must never panic or
// over-read, must respect the frame bound, and must produce the same
// frame sequence regardless of chunking. The same streams then go
// through the journaled connection handler, once as a single run and
// once a chunk per read: where the reads fall must change neither what
// reaches the sink nor a byte of the replies.
func FuzzServerFrame(f *testing.F) {
	var enc Encoder
	// Several frames per read on a journaled durable session: a
	// contiguous run, a retransmit of a batch staged in the same run, a
	// gap, and control frames between events frames.
	session := append(uvarintFrame(FrameHello, 7), seqFrame(1, genEvents(3))...)
	session = append(session, seqFrame(2, genEvents(2))...)
	session = append(session, seqFrame(2, genEvents(2))...)
	session = append(session, seqFrame(3, genEvents(1))...)
	f.Add(AppendFrame(AppendFrame(bytes.Clone(session), FrameStatsReq, nil), FrameEOF, nil), uint8(0))
	f.Add(append(bytes.Clone(session), seqFrame(9, genEvents(1))...), uint8(7))
	plain := AppendFrame(nil, FrameEvents, enc.AppendEvents(nil, genEvents(5)))
	f.Add(bytes.Repeat(plain, 4), uint8(15))
	f.Add(AppendFrame(nil, FrameEvents, enc.AppendEvents(nil, genEvents(3))), uint8(1))
	f.Add(AppendFrame(nil, FrameEOF, nil), uint8(0))
	f.Add(AppendCreditFrame(nil, 1<<40), uint8(3))
	f.Add(append([]byte{FrameEvents}, bytes.Repeat([]byte{0x80}, 12)...), uint8(2))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		const maxFrame = 1 << 12
		type frame struct {
			typ     byte
			payload []byte
		}
		parse := func(step int) (frames []frame, failed bool) {
			s := newFrameScanner(maxFrame)
			for off := 0; off < len(data); off += step {
				end := off + step
				if end > len(data) {
					end = len(data)
				}
				s.Feed(data[off:end])
				for {
					typ, payload, ok, err := s.Next()
					if err != nil {
						return frames, true
					}
					if !ok {
						break
					}
					if len(payload) > maxFrame {
						t.Fatalf("payload of %d bytes exceeds scanner bound %d", len(payload), maxFrame)
					}
					frames = append(frames, frame{typ, append([]byte(nil), payload...)})
				}
			}
			return frames, false
		}
		whole, wholeErr := parse(len(data) + 1)
		step := int(chunk%16) + 1
		chunked, chunkedErr := parse(step)
		// Chunking must not change the outcome: same frames, and an
		// error in one feeding order is an error in the other.
		if wholeErr != chunkedErr {
			t.Fatalf("chunking changed the error outcome: whole=%v chunked=%v (step %d)", wholeErr, chunkedErr, step)
		}
		if len(whole) != len(chunked) {
			t.Fatalf("chunking changed the frame count: %d vs %d (step %d)", len(whole), len(chunked), step)
		}
		for i := range whole {
			if whole[i].typ != chunked[i].typ || !bytes.Equal(whole[i].payload, chunked[i].payload) {
				t.Fatalf("frame %d differs between chunkings", i)
			}
		}
		// Every FrameEvents payload must survive the decoder without a
		// panic, whatever it holds.
		dec := Decoder{MaxVals: 64, MaxBatch: 4096}
		for _, fr := range whole {
			if fr.typ == FrameEvents {
				_, _ = dec.DecodeEvents(fr.payload)
			}
		}

		const window = 1 << 16
		if len(data) >= window*minEventWire {
			return // only an overspending producer depends on where reads fall
		}
		serve := func(step int) (replies []byte, delivered []event.Event, failed bool) {
			sink, journal, conn := &collectSink{}, &memJournal{}, &stubConn{}
			srv, err := NewServer(ServerConfig{Sink: sink, Journal: journal, Window: window, MaxFrame: maxFrame})
			if err != nil {
				t.Fatal(err)
			}
			c := &binaryConn{s: srv, conn: conn, dec: Decoder{Retain: true, MaxVals: 64, MaxBatch: 4096}}
			defer c.release()
			if err := c.admit(nil); err != nil {
				t.Fatal(err)
			}
			scan := newFrameScanner(maxFrame)
			for off := 0; off < len(data) && !failed; off += step {
				scan.Feed(data[off:min(off+step, len(data))])
				failed = c.run(scan) != nil
				if c.locked || len(c.staged) != 0 || len(c.out) != 0 {
					t.Fatalf("run left state behind: locked=%v staged=%d unsent=%d", c.locked, len(c.staged), len(c.out))
				}
			}
			delivered = sink.snapshot()
			var journaled int
			for _, b := range journal.snapshot() {
				journaled += b.count
			}
			if journaled != len(delivered) {
				t.Fatalf("journal holds %d events, sink %d", journaled, len(delivered))
			}
			return conn.sent.Bytes(), delivered, failed
		}
		oneRun, oneEvents, oneFailed := serve(len(data) + 1)
		perRead, perEvents, perFailed := serve(step)
		if oneFailed != perFailed || !bytes.Equal(oneRun, perRead) || !eventsEqual(oneEvents, perEvents) {
			t.Fatalf("read boundaries changed the outcome (step %d): failed %v/%v, %d/%d reply bytes, %d/%d events",
				step, oneFailed, perFailed, len(oneRun), len(perRead), len(oneEvents), len(perEvents))
		}
	})
}

// chunkConn is a peer that sends a script, at most step bytes per read,
// and keeps what the handler writes back.
type chunkConn struct {
	stubConn
	script []byte
	step   int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.script) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.step)], c.script)
	c.script = c.script[n:]
	return n, nil
}

// FuzzServerNDJSON hardens the NDJSON framer: arbitrary line streams go
// through the journaled connection handler, once as a single read and
// once a chunk per read. Where the reads fall — and so where its runs
// end — must change neither what reaches the sink nor a byte of the
// replies, and the journal must hold exactly the events the sink got.
func FuzzServerNDJSON(f *testing.F) {
	const line = "{\"seq\":1,\"type\":0,\"ts\":5}\n"
	f.Add([]byte("{\"token\":\"tok\"}\n"+line+"{\"seq\":2,\"type\":\"B\",\"ts\":6,\"kind\":\"rising\",\"vals\":[1.5]}\n"), uint8(0))
	f.Add([]byte("{\"token\":\"bad\"}\n"+line), uint8(3))
	f.Add([]byte(line+"{\"token\":\"tok\"}\n"), uint8(4))
	f.Add([]byte("\n\r\n"+line+"\n{\"seq\":2,\"type\":1}"), uint8(1))
	f.Add([]byte(line+"not json\n"+line), uint8(7))
	f.Add([]byte(line+strings.Repeat("a", 300)+"\n"+line), uint8(15))
	var stream []byte
	for seq := range 600 {
		stream = fmt.Appendf(stream, "{\"seq\":%d,\"type\":%d,\"ts\":%d}\n", seq, seq%2, seq*10)
	}
	f.Add(stream, uint8(9))
	reg := event.NewRegistry()
	reg.RegisterAll("A", "B")
	auth := testAuth(map[string]TenantAuth{"": {}, "tok": {Tenant: "alpha"}})
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		if len(data) > 0 && data[0] == Magic {
			return // the binary framing (FuzzServerFrame)
		}
		serve := func(step int) (replies []byte, delivered []event.Event) {
			sink, journal := &collectSink{}, &memJournal{}
			srv, err := NewServer(ServerConfig{Sink: sink, Journal: journal, Registry: reg, MaxFrame: 256, Authenticate: auth})
			if err != nil {
				t.Fatal(err)
			}
			conn := &chunkConn{script: data, step: step}
			_ = srv.handle(conn)
			delivered = sink.snapshot()
			var journaled int
			for _, b := range journal.snapshot() {
				journaled += b.count
			}
			if journaled != len(delivered) {
				t.Fatalf("journal holds %d events, sink %d", journaled, len(delivered))
			}
			if st := srv.Stats(); st.EventsNDJSON != uint64(len(delivered)) {
				t.Fatalf("EventsNDJSON = %d, sink %d", st.EventsNDJSON, len(delivered))
			}
			return conn.sent.Bytes(), delivered
		}
		step := int(chunk%16) + 1
		oneRead, oneEvents := serve(len(data) + 1)
		perChunk, chunkEvents := serve(step)
		if !bytes.Equal(oneRead, perChunk) || !eventsEqual(oneEvents, chunkEvents) {
			t.Fatalf("read boundaries changed the outcome (step %d): replies %q vs %q, %d/%d events",
				step, oneRead, perChunk, len(oneEvents), len(chunkEvents))
		}
	})
}
