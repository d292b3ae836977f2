package transport

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/harness"
)

// memJournal is an in-memory transport.Journal recording every batch
// it was asked to make durable, with an injectable commit failure.
type memJournal struct {
	mu      sync.Mutex
	seq     uint64
	batches []memBatch
	failAt  uint64 // journal seq whose Commit fails once
	fails   int
}

type memBatch struct {
	seq      uint64 // journal sequence Append assigned
	session  uint64
	batchSeq uint64
	count    int
	maxTS    event.Time
	payload  []byte
}

var errJournalDown = errors.New("journal down")

func (j *memJournal) Append(session, batchSeq uint64, count int, maxTS event.Time, payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	j.batches = append(j.batches, memBatch{
		seq:      j.seq,
		session:  session,
		batchSeq: batchSeq,
		count:    count,
		maxTS:    maxTS,
		payload:  append([]byte(nil), payload...),
	})
	return j.seq, nil
}

func (j *memJournal) Commit(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failAt != 0 && seq == j.failAt {
		j.failAt = 0
		j.fails++
		// The record is not durable, and neither is anything staged
		// behind it: drop them, as a poisoned-and-restarted WAL would.
		for i, b := range j.batches {
			if b.seq >= seq {
				j.batches = j.batches[:i]
				break
			}
		}
		return errJournalDown
	}
	return nil
}

func (j *memJournal) snapshot() []memBatch {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]memBatch(nil), j.batches...)
}

// requireExactly asserts the sink received each input event exactly
// once, in order.
func requireExactly(t *testing.T, sink *collectSink, in []event.Event) {
	t.Helper()
	got := sink.snapshot()
	if len(got) != len(in) {
		t.Fatalf("sink has %d events, want exactly %d", len(got), len(in))
	}
	for i := range got {
		if got[i].Seq != in[i].Seq || got[i].Type != in[i].Type {
			t.Fatalf("event %d: got seq %d type %d, want seq %d type %d",
				i, got[i].Seq, got[i].Type, in[i].Seq, in[i].Type)
		}
	}
}

func TestDurableSessionEndToEnd(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	journal := &memJournal{}
	srv := startServer(t, ServerConfig{Sink: sink, Window: 256, Journal: journal})

	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 32, Session: 7})
	if err != nil {
		t.Fatal(err)
	}
	in := genEvents(500)
	if err := c.SubmitBatch(in); err != nil {
		t.Fatal(err)
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 500 || st.Accepted != 500 {
		t.Fatalf("ledger %+v, want Sent == Accepted == 500", st)
	}
	requireExactly(t, sink, in)

	// Every batch was journaled before it was delivered, under the
	// session's identity with contiguous batch sequences.
	batches := journal.snapshot()
	var total int
	for i, b := range batches {
		if b.session != 7 || b.batchSeq != uint64(i+1) {
			t.Fatalf("journal batch %d: session %d seq %d", i, b.session, b.batchSeq)
		}
		total += b.count
	}
	if total != 500 {
		t.Fatalf("journaled %d events, want 500", total)
	}
	sstats := srv.Stats()
	if sstats.Sessions != 1 || sstats.DedupBatches != 0 {
		t.Fatalf("server stats %+v", sstats)
	}
}

// TestDurableReconnectEffectivelyOnce is the upgrade over
// TestClientReconnect: through the same mid-stream connection cut, a
// durable session loses nothing and duplicates nothing.
func TestDurableReconnectEffectivelyOnce(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{Sink: sink, Window: 64})

	proxy := startCuttingProxy(t, srv.Addr().String(), 1<<10, nil)
	c, err := Dial(ClientConfig{Addr: proxy, BatchEvents: 32, Session: 3, Reconnect: true, MaxRedials: 10})
	if err != nil {
		t.Fatal(err)
	}
	in := genEvents(400)
	for i := 0; i < len(in); i += 32 {
		if err := c.SubmitBatch(in[i:min(i+32, len(in))]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Redials != 1 {
		t.Fatalf("redials = %d, want 1 (stats %+v)", st.Redials, st)
	}
	if st.Sent != 400 || st.Accepted != 400 {
		t.Fatalf("ledger %+v, want Sent == Accepted == 400", st)
	}
	requireExactly(t, sink, in)
}

// TestDurableSeededSessionDedups seeds a recovered watermark: a
// producer retransmitting already-journaled batches after a server
// restart gets them acknowledged without re-delivery.
func TestDurableSeededSessionDedups(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{Sink: sink, Window: 256})
	srv.SeedSessions(map[uint64]SessionState{9: {Applied: 2, Accepted: 64}})

	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 32, Session: 9})
	if err != nil {
		t.Fatal(err)
	}
	in := genEvents(96) // batches 1..3 of 32; 1 and 2 are already applied
	if err := c.SubmitBatch(in); err != nil {
		t.Fatal(err)
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 96 || st.Accepted != 96 {
		t.Fatalf("ledger %+v (dedup-acked batches still count as accepted)", st)
	}
	requireExactly(t, sink, in[64:])
	if stats := srv.Stats(); stats.DedupBatches != 2 {
		t.Fatalf("dedup batches = %d, want 2", stats.DedupBatches)
	}
	states := srv.SessionStates()
	if s := states[9]; s.Applied != 3 || s.Accepted != 96 {
		t.Fatalf("session state %+v", s)
	}
}

// TestDurableNoAckOnJournalFailure is the transport half of the
// no-ack-after-failed-sync contract: when the journal cannot commit a
// batch, the server drops the connection without acknowledging it, and
// the retransmit (after the journal heals, as after a restart) delivers
// the batch exactly once.
func TestDurableNoAckOnJournalFailure(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	journal := &memJournal{failAt: 2} // second journaled batch fails its fsync
	srv := startServer(t, ServerConfig{Sink: sink, Window: 256, Journal: journal})

	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 32, Session: 5, Reconnect: true, MaxRedials: 10})
	if err != nil {
		t.Fatal(err)
	}
	in := genEvents(96)
	if err := c.SubmitBatch(in); err != nil {
		t.Fatal(err)
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 96 || st.Accepted != 96 {
		t.Fatalf("ledger %+v, want Sent == Accepted == 96", st)
	}
	if st.Retransmits == 0 {
		t.Fatalf("expected a retransmit after the journal failure (stats %+v)", st)
	}
	requireExactly(t, sink, in)
	journal.mu.Lock()
	fails := journal.fails
	journal.mu.Unlock()
	if fails != 1 {
		t.Fatalf("journal fails = %d, want 1", fails)
	}
	// The journal holds each batch exactly once (the failed attempt was
	// dropped, the retransmit re-journaled it).
	var total int
	for i, b := range journal.snapshot() {
		if b.batchSeq != uint64(i+1) {
			t.Fatalf("journal batch %d has seq %d", i, b.batchSeq)
		}
		total += b.count
	}
	if total != 96 {
		t.Fatalf("journaled %d events, want 96", total)
	}
}

// TestPlainFramesJournaled covers the non-durable paths under a
// journal: plain binary frames and NDJSON lines are journaled under
// session 0 before they reach the sink.
func TestPlainFramesJournaled(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	journal := &memJournal{}
	srv := startServer(t, ServerConfig{Sink: sink, Window: 256, Journal: journal})

	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	in := genEvents(128)
	if err := c.SubmitBatch(in); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	requireExactly(t, sink, in)

	var dec Decoder
	var total int
	for _, b := range journal.snapshot() {
		if b.session != 0 || b.batchSeq != 0 {
			t.Fatalf("plain batch journaled as session %d seq %d", b.session, b.batchSeq)
		}
		evs, err := dec.DecodeEvents(b.payload)
		if err != nil {
			t.Fatalf("journaled payload does not decode: %v", err)
		}
		if len(evs) != b.count {
			t.Fatalf("journal count %d, payload decodes to %d", b.count, len(evs))
		}
		total += b.count
	}
	if total != 128 {
		t.Fatalf("journaled %d events, want 128", total)
	}
}
