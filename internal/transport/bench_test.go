package transport

import (
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

// discardSink accepts and forgets: the benchmark measures the ingest
// path in front of the sink.
type discardSink struct{}

func (discardSink) SubmitBatch([]event.Event) {}

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
	srv := startServer(b, ServerConfig{Sink: discardSink{}, Journal: walJournal{log}})
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
