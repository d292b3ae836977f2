package transport

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/harness"
)

// TestServerIdleEviction pins the IdleTimeout read guard: a client that
// connects and then goes silent is evicted (its handler returns, its
// connection closes) and counted in the taxonomy, instead of pinning a
// goroutine forever.
func TestServerIdleEviction(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{Sink: sink, IdleTimeout: 50 * time.Millisecond})

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{Magic, ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	// ...and then say nothing. The server must hang up on us.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // initial credit frame first, then the eviction
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().IdleEvictions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle eviction not counted: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.ConnsActive != 0 {
		t.Errorf("evicted connection still active: %+v", st)
	}
}

// stalledConn is a peer that sends a script and, after taking the first
// free writes, stops reading: a further Write blocks until the deadline
// the handler armed, like a socket whose send buffer stays full. A Write
// with no deadline armed would block forever; it fails instead, so the
// test cannot hang on it.
type stalledConn struct {
	net.Conn
	script   *bytes.Reader
	free     int
	deadline time.Time
}

func (c *stalledConn) Read(p []byte) (int, error)         { return c.script.Read(p) }
func (c *stalledConn) SetReadDeadline(time.Time) error    { return nil }
func (c *stalledConn) SetWriteDeadline(t time.Time) error { c.deadline = t; return nil }
func (c *stalledConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *stalledConn) Write(p []byte) (int, error) {
	if c.free > 0 {
		c.free--
		return len(p), nil
	}
	if c.deadline.IsZero() {
		return 0, errors.New("write to a stalled peer without a deadline")
	}
	time.Sleep(time.Until(c.deadline))
	return 0, os.ErrDeadlineExceeded
}

// TestServerWriteTimeout pins the WriteTimeout guard on every kind of
// handler write: a peer that stops reading costs its handler one
// timeout, counted in the taxonomy, and the handler returns.
func TestServerWriteTimeout(t *testing.T) {
	var enc Encoder
	binary := append([]byte{Magic, ProtocolVersion},
		AppendFrame(nil, FrameEvents, enc.AppendEvents(nil, genEvents(4)))...)
	for _, tc := range []struct {
		name   string
		script []byte
		free   int // writes the peer still takes
		sunk   int // events that reach the sink before the stalled write
	}{
		{"binary ack", binary, 1, 4}, // the initial credit grant gets through
		{"binary error frame", []byte{Magic, 99}, 0, 0},
		{"ndjson status line", []byte("{\"token\":\"t\"}\n"), 0, 0},
		{"ndjson error line", []byte("not json\n"), 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &collectSink{}
			srv, err := NewServer(ServerConfig{Sink: sink, WriteTimeout: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			conn := &stalledConn{script: bytes.NewReader(tc.script), free: tc.free}
			if err := srv.handle(conn); err != nil {
				t.Errorf("handler returned %v, want a dropped connection", err)
			}
			if got := srv.Stats().WriteTimeouts; got != 1 {
				t.Errorf("WriteTimeouts = %d, want 1", got)
			}
			if got := len(sink.snapshot()); got != tc.sunk {
				t.Errorf("sink holds %d events, want %d", got, tc.sunk)
			}
		})
	}
}

// TestClientRedialsExhausted kills the server under a reconnecting
// client and asserts the typed give-up error.
func TestClientRedialsExhausted(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv, err := NewServer(ServerConfig{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	addr := srv.Addr().String()
	c, err := Dial(ClientConfig{
		Addr:        addr,
		BatchEvents: 4,
		Reconnect:   true,
		MaxRedials:  2,
		MaxBackoff:  20 * time.Millisecond,
		DialTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// SubmitBatch only queues; Flush is the barrier a write failure (or
	// the failed redial behind it) cannot get past.
	var ferr error
	for i := 0; i < 64 && ferr == nil; i++ {
		if ferr = c.SubmitBatch(genEvents(4)); ferr == nil {
			ferr = c.Flush()
		}
	}
	if !errors.Is(ferr, ErrRedialsExhausted) {
		t.Fatalf("flush error = %v, want ErrRedialsExhausted", ferr)
	}
	if _, err := c.Close(); err == nil {
		t.Error("Close on a dead client must fail")
	}
}

// flakyJournal accepts batches while healthy and reports the degraded
// sentinel while tripped; it never fail-stops.
type flakyJournal struct {
	mu       sync.Mutex
	degraded bool
	seq      uint64
	appends  int
}

func (j *flakyJournal) setDegraded(v bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.degraded = v
}

func (j *flakyJournal) Append(session, batchSeq uint64, count int, maxTS event.Time, payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.degraded {
		return 0, ErrJournalDegraded
	}
	j.seq++
	j.appends++
	return j.seq, nil
}

func (j *flakyJournal) Commit(seq uint64) error { return nil }

// TestDegradedJournalLossyAcks drives a durable session through a
// degrade → restore episode: while the journal refuses durability the
// server must keep accepting (no dropped connection), ack with
// FlagDegraded — visible as Client.Degraded and DegradedAcks — and
// count LostDurability; when the journal heals, the very next ack
// clears the bit on both ends without any reconnect.
func TestDegradedJournalLossyAcks(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	journal := &flakyJournal{}
	// Window == batch size: the whole window is spent on one batch and
	// comes back only with that batch's ack, so awaiting the credit is
	// awaiting the ack — every phase below starts with the previous
	// batch settled on both ends.
	const per = 4
	srv := startServer(t, ServerConfig{Sink: sink, Journal: journal, Window: per})

	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: per, Session: 7})
	if err != nil {
		t.Fatal(err)
	}
	events := genEvents(4 * per)
	sendAcked := func(batch int) {
		t.Helper()
		if err := c.SubmitBatch(events[(batch-1)*per : batch*per]); err != nil {
			t.Fatal(err)
		}
		if err := c.waitCredit(per); err != nil {
			t.Fatal(err)
		}
	}

	// Batch 1: healthy.
	sendAcked(1)
	if c.Degraded() {
		t.Fatal("client degraded before any journal fault")
	}

	// Batches 2 and 3: degraded, each acked with the flag.
	journal.setDegraded(true)
	sendAcked(2)
	if !c.Degraded() {
		t.Fatal("client did not observe the degraded ack")
	}
	sendAcked(3)
	sst := srv.Stats()
	if !sst.Degraded || sst.DegradedSince.IsZero() {
		t.Fatalf("server not degraded: %+v", sst)
	}
	if sst.LostDurability != 2*per {
		t.Fatalf("LostDurability = %d, want %d: %+v", sst.LostDurability, 2*per, sst)
	}

	// Heal: the next batch is journaled again and its clean ack clears
	// the bit on both ends.
	journal.setDegraded(false)
	sendAcked(4)
	if c.Degraded() {
		t.Error("client still degraded after the journal healed")
	}
	if sst = srv.Stats(); sst.Degraded || !sst.DegradedSince.IsZero() {
		t.Errorf("server still degraded after heal: %+v", sst)
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 4*per || st.Accepted != 4*per {
		t.Fatalf("client stats: %+v", st)
	}
	if st.DegradedAcks != 2 {
		t.Errorf("DegradedAcks = %d, want 2", st.DegradedAcks)
	}
	if got := sink.snapshot(); !eventsEqual(events, got) {
		t.Fatalf("sink received %d events, want all %d (degraded batches must still flow)", len(got), len(events))
	}
	// The watermark advanced through the lossy episode: batches 2 and 3
	// were acked from memory, so only batch 1 and the healthy tail hit
	// the journal.
	journal.mu.Lock()
	appends := journal.appends
	journal.mu.Unlock()
	if appends != 2 {
		t.Errorf("journal holds %d appends, want 2 (degraded batches skipped)", appends)
	}
}

// TestServerShutdownBounded holds a connection open past the drain
// deadline: Shutdown must still return within the bound, with the
// stubborn peer cut off by its final deadline.
func TestServerShutdownBounded(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv, err := NewServer(ServerConfig{Sink: sink, IdleTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{Magic, ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	// Give the handler a beat to arm its minute-long idle deadline —
	// Shutdown's cap must beat it.
	time.Sleep(10 * time.Millisecond)

	start := time.Now()
	if err := srv.Shutdown(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Shutdown took %v, want ~100ms", took)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.ConnsActive != 0 {
		t.Errorf("connections survived shutdown: %+v", st)
	}
}
