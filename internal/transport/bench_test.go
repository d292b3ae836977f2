package transport

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/event"
	"repro/internal/wal"
)

// walJournal adapts wal.Log to Journal; count and maxTS feed
// espice-serve's release policy and are not needed here.
type walJournal struct{ log *wal.Log }

func (j walJournal) Append(session, batchSeq uint64, _ int, _ event.Time, payload []byte) (uint64, error) {
	return j.log.Append(session, batchSeq, payload)
}

func (j walJournal) Commit(seq uint64) error { return j.log.Commit(seq) }

// discardSink accepts and forgets, counting only its calls: the
// benchmark measures the ingest path in front of the sink.
type discardSink struct{ calls atomic.Uint64 }

func (s *discardSink) SubmitBatch([]event.Event) { s.calls.Add(1) }

// BenchmarkServerDurableIngest drives one durable session over loopback
// into a server journaling to a real wal.Log: one op is one 256-event
// sequenced frame, written as fast as the credit window allows and
// acknowledged only after its fsync. ev/s is the durable ingest rate of
// a single producer; frames/sync is how many frames each fsync covered
// (wal.Stats appends ÷ syncs) — 1.0 means every frame paid for its own.
func BenchmarkServerDurableIngest(b *testing.B) {
	const per = 256
	log, err := wal.Open(wal.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	if _, err := log.Recover(func(wal.Record) error { return nil }); err != nil {
		b.Fatal(err)
	}
	srv := startServer(b, ServerConfig{Sink: &discardSink{}, Journal: walJournal{log}})
	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: per, Session: 1})
	if err != nil {
		b.Fatal(err)
	}
	batch := genEvents(per)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SubmitBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	// Close returns once every frame has been acknowledged as journaled.
	if _, err := c.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	st := log.Stats()
	b.ReportMetric(float64(per)*float64(b.N)/b.Elapsed().Seconds(), "ev/s")
	b.ReportMetric(float64(st.Appends)/float64(st.Syncs), "frames/sync")
}

// BenchmarkClientSubmit drives one plain client over loopback into a
// server with a discard sink, one frame of per events per op, as fast
// as the credit window allows: ns/event is the producer's cost of
// getting an event to the wire, frames/write how many frames each
// socket write carried (1.0 means every frame paid for its own
// syscall), events/submit how many events each sink call carried over
// the connection's life (per means one call per frame; above it, the
// server submits a run of frames at once). The client's steady state
// allocates nothing; what allocs/op shows is the server in the same
// process detaching one Vals slab per run (0 at frame=8, where a run
// spans many ops).
func BenchmarkClientSubmit(b *testing.B) {
	for _, per := range []int{8, 256} {
		b.Run(fmt.Sprintf("frame=%d", per), func(b *testing.B) {
			sink := &discardSink{}
			srv := startServer(b, ServerConfig{Sink: sink})
			c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: per})
			if err != nil {
				b.Fatal(err)
			}
			batch := genEvents(per)
			// Warm-up: let the frame and queue buffers reach their size.
			for i := 0; i < 64; i++ {
				if err := c.SubmitBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
			warm := c.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.SubmitBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st := c.Stats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(per)/float64(b.N), "ns/event")
			b.ReportMetric(float64(st.Flushes-warm.Flushes)/float64(st.Writes-warm.Writes), "frames/write")
			// Close returns once every event has been submitted.
			fin, err := c.Close()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(fin.Sent)/float64(sink.calls.Load()), "events/submit")
		})
	}
}
