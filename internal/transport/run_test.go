// Run semantics of the binary handler: the frames that arrive with one
// read are staged together, committed with one journal sync and
// answered with one write — without changing what any single batch
// observes. The tests script the producer so that a known set of frames
// sits in the socket while the server is parked inside a gated Commit.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/harness"
)

// gateJournal is a group-committing fake Journal, shaped like wal.Log:
// a Commit above the synced watermark runs one sync round that covers
// everything staged so far, a Commit at or below it returns at once.
// The first round parks on gate (when set) until the test has written
// the frames it wants buffered behind it. failAt and degradeAt cut a
// round short: the records before that journal sequence sync, the
// Commit of that sequence fails (fail-stop, once) or degrades, and
// everything staged from there on is discarded.
type gateJournal struct {
	mu        sync.Mutex
	lastSeq   uint64
	synced    uint64
	rounds    int
	gate      chan struct{} // set at construction, closed by the test
	parked    bool          // the first round has taken the gate
	failAt    uint64
	degradeAt uint64
	degraded  bool

	// sink is sampled at the first Append after failAt fired — the
	// redialed connection's retransmit of batch failAt — into atFailed.
	sink     *collectSink
	sample   bool
	atFailed int
}

func (j *gateJournal) Append(session, batchSeq uint64, count int, maxTS event.Time, payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sample {
		j.sample, j.atFailed = false, len(j.sink.snapshot())
	}
	if j.degraded {
		return 0, ErrJournalDegraded
	}
	j.lastSeq++
	return j.lastSeq, nil
}

func (j *gateJournal) Commit(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq <= j.synced {
		return nil
	}
	if j.degraded {
		return ErrJournalDegraded // the staged record was discarded
	}
	j.rounds++
	if j.gate != nil && !j.parked {
		j.parked = true
		j.mu.Unlock()
		<-j.gate
		j.mu.Lock()
	}
	upTo := j.lastSeq
	if at := j.failAt; at != 0 && at <= upTo {
		if seq >= at {
			j.failAt, j.lastSeq, j.sample = 0, j.synced, j.sink != nil
			return errJournalDown
		}
		upTo = at - 1
	}
	if at := j.degradeAt; at != 0 && at <= upTo {
		if seq >= at {
			j.degradeAt, j.lastSeq, j.degraded = 0, j.synced, true
			return ErrJournalDegraded
		}
		upTo = at - 1
	}
	j.synced = upTo
	return nil
}

func (j *gateJournal) state() (synced uint64, rounds, atFailed int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.synced, j.rounds, j.atFailed
}

func (j *gateJournal) heal() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.degraded = false
}

// seqFrame encodes one FrameEventsSeq.
func seqFrame(batchSeq uint64, events []event.Event) []byte {
	var enc Encoder
	var tmp [binary.MaxVarintLen64]byte
	payload := append([]byte(nil), tmp[:binary.PutUvarint(tmp[:], batchSeq)]...)
	return AppendFrame(nil, FrameEventsSeq, enc.AppendEvents(payload, events))
}

// dialSession opens a raw connection and a durable session on it,
// consuming the grant and the hello ack. An empty token makes it a
// version-1 connection, granted before the hello; otherwise it is a
// tenant connection whose hello carries the token and whose grant
// follows the hello ack.
func dialSession(t *testing.T, srv *Server, session uint64, token string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := newRawConn(conn)
	version, hello := ProtocolVersion, uvarintFrame(FrameHello, session)
	if token != "" {
		version = ProtocolVersionTenant
		hello = AppendFrame(nil, FrameHello, append(binary.AppendUvarint(nil, session), token...))
	}
	if err := r.write([]byte{Magic, version}); err != nil {
		t.Fatal(err)
	}
	if token == "" {
		if _, err := r.expect(FrameCredit); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.write(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := r.expect(FrameHelloAck); err != nil {
		t.Fatal(err)
	}
	if token != "" {
		if _, err := r.expect(FrameCredit); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// expectAck pops the next frame as a durable-session credit ack and
// checks its grant, watermark and flags.
func expectAck(t *testing.T, r *rawConn, grant, applied, flags uint64) {
	t.Helper()
	p, err := r.expect(FrameCredit)
	if err != nil {
		t.Fatalf("ack through batch %d: %v", applied, err)
	}
	var got [3]uint64
	for i := 0; i < len(got) && len(p) > 0; i++ {
		v, k := binary.Uvarint(p)
		if k <= 0 {
			t.Fatalf("ack through batch %d: malformed payload", applied)
		}
		got[i], p = v, p[k:]
	}
	if got != [3]uint64{grant, applied, flags} {
		t.Fatalf("ack (grant, applied, flags) = %v, want [%d %d %d]", got, grant, applied, flags)
	}
}

// sendBehindGate parks the server inside the gated first Commit on
// frame 1, writes frames 2..n as one segment behind it, and opens the
// gate: whatever the read boundaries, at most two sync rounds remain.
func sendBehindGate(t *testing.T, r *rawConn, journal *gateJournal, in []event.Event, per, n int) {
	t.Helper()
	if err := r.write(seqFrame(1, in[:per])); err != nil {
		t.Fatal(err)
	}
	var rest []byte
	for k := 2; k <= n; k++ {
		rest = append(rest, seqFrame(uint64(k), in[(k-1)*per:k*per])...)
	}
	if err := r.write(rest); err != nil {
		t.Fatal(err)
	}
	close(journal.gate)
}

// callSink is a collecting TenantSink that logs one entry per call: the
// tenant it carried, or "" for a plain SubmitBatch.
type callSink struct {
	collectSink
	calls []string // guarded by collectSink.mu
}

func (s *callSink) SubmitBatch(evs []event.Event) { s.record("", evs) }

func (s *callSink) SubmitTenantBatch(tenant string, evs []event.Event) { s.record(tenant, evs) }

func (s *callSink) record(tenant string, evs []event.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, tenant)
	s.events = append(s.events, evs...)
}

func (s *callSink) log() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.calls...)
}

// groupCommit sends N frames behind one slow Commit on a durable
// session (a tenant one when token is set) and checks that they cost at
// most two sync rounds and exactly as many sink calls — one of each per
// run —, are acked in order with a monotone watermark, and that no ack
// is observable before the sync covering it returned. It returns the
// tenant each sink call carried.
func groupCommit(t *testing.T, cfg ServerConfig, token string) []string {
	t.Helper()
	harness.VerifyNoLeaks(t)
	const per, n = 4, 10
	sink := &callSink{}
	journal := &gateJournal{gate: make(chan struct{})}
	cfg.Sink, cfg.Journal, cfg.Window = sink, journal, 256
	srv := startServer(t, cfg)
	r := dialSession(t, srv, 7, token)
	in := genEvents(per * n)

	sendBehindGate(t, r, journal, in, per, n)
	for k := uint64(1); k <= n; k++ {
		expectAck(t, r, per, k, 0)
		// This connection is the only appender, so batch k is journal
		// record k.
		if synced, _, _ := journal.state(); synced < k {
			t.Fatalf("batch %d acked with the journal synced through %d only", k, synced)
		}
	}
	_, rounds, _ := journal.state()
	calls := sink.log()
	if rounds > 2 || len(calls) != rounds {
		t.Fatalf("%d frames took %d sync rounds and %d sink calls, want equal and at most 2", n, rounds, len(calls))
	}
	requireExactly(t, &sink.collectSink, in)
	return calls
}

// TestRunGroupCommit: a buffered run is one sync round, one sink call
// and in-order acks (groupCommit); a plain connection calls SubmitBatch.
func TestRunGroupCommit(t *testing.T) {
	for i, tenant := range groupCommit(t, ServerConfig{}, "") {
		if tenant != "" {
			t.Fatalf("sink call %d on a plain connection carried tenant %q", i, tenant)
		}
	}
}

// TestRunGroupCommitNDJSON is TestRunGroupCommit's twin on the NDJSON
// framing: lines buffered behind one slow Commit — several journal
// records' worth — reach the sink in stream order through at most two
// sync rounds and as many sink calls, and no sink call comes before the
// sync of every record appended so far.
func TestRunGroupCommitNDJSON(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const n = 1024
	journal := &gateJournal{gate: make(chan struct{})}
	sink := &syncedSink{journal: journal}
	srv := startServer(t, ServerConfig{Sink: sink, Journal: journal})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	line := func(seq int) []byte { return fmt.Appendf(nil, "{\"seq\":%d,\"type\":0}\n", seq) }
	if _, err := conn.Write(line(0)); err != nil {
		t.Fatal(err)
	}
	var rest []byte
	for seq := 1; seq < n; seq++ {
		rest = append(rest, line(seq)...)
	}
	if _, err := conn.Write(rest); err != nil {
		t.Fatal(err)
	}
	close(journal.gate)
	conn.(*net.TCPConn).CloseWrite()
	if reply, err := io.ReadAll(conn); err != nil || len(reply) != 0 {
		t.Fatalf("reply %q (%v), want none on a healthy journal", reply, err)
	}
	waitCond(t, 5*time.Second, func() bool { return srv.Stats().ConnsActive == 0 })

	got := sink.snapshot()
	if len(got) != n {
		t.Fatalf("sink holds %d events, want %d", len(got), n)
	}
	for i, e := range got {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: stream order lost", i, e.Seq)
		}
	}
	synced, rounds, _ := journal.state()
	sink.mu.Lock()
	calls, early := sink.calls, sink.early
	sink.mu.Unlock()
	if rounds > 2 || calls != rounds {
		t.Fatalf("%d lines took %d sync rounds and %d sink calls, want equal and at most 2", n, rounds, calls)
	}
	if synced < n/ndjsonBatch {
		t.Fatalf("%d lines journaled as %d records, want at least %d", n, synced, n/ndjsonBatch)
	}
	if early != 0 {
		t.Fatalf("%d sink calls came before their records were synced", early)
	}
}

// syncedSink is a collecting sink that counts its calls and, per call,
// whether a record the journal took is still unsynced.
type syncedSink struct {
	collectSink
	journal      *gateJournal
	calls, early int // guarded by collectSink.mu
}

func (s *syncedSink) SubmitBatch(evs []event.Event) {
	s.journal.mu.Lock()
	unsynced := s.journal.synced < s.journal.lastSeq
	s.journal.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if unsynced {
		s.early++
	}
	s.events = append(s.events, evs...)
}

// TestRunSubmitsOnce: on a tenant connection the one sink call per run
// is SubmitTenantBatch with the tenant's name; SubmitBatch is never
// called.
func TestRunSubmitsOnce(t *testing.T) {
	auth := testAuth(map[string]TenantAuth{"tok": {Tenant: "alpha"}})
	for i, tenant := range groupCommit(t, ServerConfig{Authenticate: auth}, "tok") {
		if tenant != "alpha" {
			t.Fatalf("sink call %d carried tenant %q, want %q", i, tenant, "alpha")
		}
	}
}

// TestRunFailStopMidRun: a fail-stop journal error at the k-th commit of
// a buffered run delivers and acknowledges exactly the batches before
// k, drops the connection, and the redialing client's retransmit of the
// rest reaches the sink once.
func TestRunFailStopMidRun(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const per, n, failAt = 4, 8, 5
	sink := &collectSink{}
	journal := &gateJournal{gate: make(chan struct{}), failAt: failAt, sink: sink}
	srv := startServer(t, ServerConfig{Sink: sink, Journal: journal, Window: 256})

	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: per, Session: 5, Reconnect: true, MaxRedials: 10})
	if err != nil {
		t.Fatal(err)
	}
	in := genEvents(per * n)
	// The window covers all n frames, so SubmitBatch returns with every
	// one of them written and none acked.
	if err := c.SubmitBatch(in); err != nil {
		t.Fatal(err)
	}
	close(journal.gate)
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != per*n || st.Accepted != per*n {
		t.Fatalf("ledger %+v, want Sent == Accepted == %d", st, per*n)
	}
	// The redial's hello ack carried watermark failAt-1: exactly the
	// batches from failAt on were neither applied nor acknowledged.
	if st.Redials != 1 || st.Retransmits != n-failAt+1 {
		t.Fatalf("redials %d retransmits %d, want 1 and %d", st.Redials, st.Retransmits, n-failAt+1)
	}
	// The retransmit of batch failAt found exactly the batches before it
	// delivered: the cut run submitted its committed prefix and nothing
	// from failAt on.
	if _, _, got := journal.state(); got != per*(failAt-1) {
		t.Fatalf("sink held %d events when batch %d was retransmitted, want %d", got, failAt, per*(failAt-1))
	}
	requireExactly(t, sink, in)
}

// TestRunDegradedMidRun: the journal degrades at a commit in the middle
// of a buffered run — the batches before it are acked clean, the rest
// flagged and counted as lost durability, and the next healthy run
// clears the flag.
func TestRunDegradedMidRun(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const per, n, degradeAt = 4, 6, 4
	sink := &collectSink{}
	journal := &gateJournal{gate: make(chan struct{}), degradeAt: degradeAt}
	srv := startServer(t, ServerConfig{Sink: sink, Journal: journal, Window: 256})
	r := dialSession(t, srv, 9, "")
	in := genEvents(per * (n + 1))

	sendBehindGate(t, r, journal, in, per, n)
	for k := uint64(1); k <= n; k++ {
		var flags uint64
		if k >= degradeAt {
			flags = FlagDegraded
		}
		expectAck(t, r, per, k, flags)
	}
	if st := srv.Stats(); !st.Degraded || st.LostDurability != per*(n-degradeAt+1) {
		t.Fatalf("stats after the degraded run: %+v", st)
	}

	journal.heal()
	if err := r.write(seqFrame(n+1, in[per*n:])); err != nil {
		t.Fatal(err)
	}
	expectAck(t, r, per, n+1, 0)
	if st := srv.Stats(); st.Degraded || st.LostDurability != per*(n-degradeAt+1) {
		t.Fatalf("stats after the healthy run: %+v", st)
	}
	requireExactly(t, sink, in)
}

// TestRunReplyOrder: a deduplicated retransmit, an EOF and a stats
// request in the middle of a buffered run are answered in stream order,
// behind the acks of the batches staged ahead of them.
func TestRunReplyOrder(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const per = 4
	sink := &collectSink{}
	journal := &gateJournal{gate: make(chan struct{})}
	srv := startServer(t, ServerConfig{
		Sink: sink, Journal: journal, Window: 256,
		StatsJSON: func() []byte { return []byte(`{}`) },
	})
	r := dialSession(t, srv, 3, "")
	in := genEvents(per * 3)

	if err := r.write(seqFrame(1, in[:per])); err != nil {
		t.Fatal(err)
	}
	run := seqFrame(2, in[per:2*per])
	run = append(run, seqFrame(2, in[per:2*per])...) // retransmit of a batch staged in this very run
	run = append(run, seqFrame(3, in[2*per:])...)
	run = AppendFrame(run, FrameEOF, nil)
	run = AppendFrame(run, FrameStatsReq, nil)
	if err := r.write(run); err != nil {
		t.Fatal(err)
	}
	close(journal.gate)

	expectAck(t, r, per, 1, 0)
	expectAck(t, r, per, 2, 0)
	expectAck(t, r, per, 2, 0) // the dedup: credit back, watermark unchanged
	expectAck(t, r, per, 3, 0)
	p, err := r.expect(FrameDone)
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := binary.Uvarint(p); done != per*3 {
		t.Fatalf("done frame counts %d events, want %d", done, per*3)
	}
	if _, err := r.expect(FrameStats); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.DedupBatches != 1 {
		t.Fatalf("dedup batches = %d, want 1", st.DedupBatches)
	}
	requireExactly(t, sink, in)
}
