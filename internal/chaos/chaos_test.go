package chaos_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/transport"
)

// pipeConns builds a connected TCP pair on loopback.
func pipeConns(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { dialed.Close(); r.c.Close() })
	return dialed, r.c
}

// TestConnResetAtOffset pins the byte budget: with min == max the reset
// fires at exactly that offset, deterministically, and the peer sees
// only the budgeted prefix.
func TestConnResetAtOffset(t *testing.T) {
	harness.VerifyNoLeaks(t)
	a, b := pipeConns(t)
	faulty := chaos.Wrap(a, chaos.Config{Seed: 1, MinResetBytes: 100, MaxResetBytes: 100}, 0)

	got := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(b)
		got <- data
	}()
	payload := bytes.Repeat([]byte{0xAB}, 256)
	n, err := faulty.Write(payload)
	if !errors.Is(err, chaos.ErrInjectedReset) {
		t.Fatalf("Write = %d, %v; want ErrInjectedReset", n, err)
	}
	if n != 100 {
		t.Fatalf("wrote %d bytes before the reset, want exactly 100", n)
	}
	if !faulty.WasReset() {
		t.Error("WasReset false after the budget tripped")
	}
	if _, err := faulty.Write([]byte{1}); !errors.Is(err, chaos.ErrInjectedReset) {
		t.Errorf("write after reset = %v, want ErrInjectedReset", err)
	}
	if data := <-got; len(data) != 100 {
		t.Fatalf("peer received %d bytes, want the 100-byte prefix", len(data))
	}
}

// TestConnFragmentsDeterministically pins that MaxChunk splits writes
// into multiple underlying writes, the peer reassembles the identical
// byte stream, and the same seed produces the same fragmentation.
func TestConnFragmentsDeterministically(t *testing.T) {
	harness.VerifyNoLeaks(t)
	run := func(seed int64) ([]byte, int) {
		a, b := pipeConns(t)
		counter := &countingConn{Conn: a}
		faulty := chaos.Wrap(counter, chaos.Config{Seed: seed, MaxChunk: 7}, 3)
		got := make(chan []byte, 1)
		go func() {
			data, _ := io.ReadAll(b)
			got <- data
		}()
		payload := make([]byte, 512)
		for i := range payload {
			payload[i] = byte(i)
		}
		if n, err := faulty.Write(payload); err != nil || n != len(payload) {
			t.Fatalf("Write = %d, %v", n, err)
		}
		faulty.Close()
		return <-got, counter.writes()
	}
	data1, writes1 := run(42)
	data2, writes2 := run(42)
	if len(data1) != 512 || !bytes.Equal(data1, data2) {
		t.Fatalf("fragmented stream corrupt or non-deterministic: %d vs %d bytes", len(data1), len(data2))
	}
	if writes1 < 512/7 {
		t.Errorf("only %d underlying writes for 512 bytes at MaxChunk 7", writes1)
	}
	if writes1 != writes2 {
		t.Errorf("same seed fragmented differently: %d vs %d writes", writes1, writes2)
	}
}

// countingConn counts underlying Write calls.
type countingConn struct {
	net.Conn
	mu sync.Mutex
	n  int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) writes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestProxyResetsAndRelays runs a real transport client/server pair
// through the proxy: small reset budgets sever connections mid-stream,
// the client redials through the proxy, and the durable session keeps
// the delivery effectively-once in spite of it.
func TestProxyResetsAndRelays(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &memorySink{}
	srv, err := transport.NewServer(transport.ServerConfig{Sink: sink, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	proxy, err := chaos.NewProxy(ln.Addr().String(), chaos.Config{
		Seed:          7,
		MinResetBytes: 2_000,
		MaxResetBytes: 20_000,
		MaxChunk:      128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := transport.Dial(transport.ClientConfig{
		Addr:        proxy.Addr(),
		BatchEvents: 32,
		Session:     5,
		Reconnect:   true,
		MaxRedials:  50,
		MaxBackoff:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 4096
	events := make([]event.Event, total)
	for i := range events {
		events[i] = event.Event{Seq: uint64(i + 1), TS: event.Time(i), Type: 0}
	}
	if err := c.SubmitBatch(events); err != nil {
		t.Fatal(err)
	}
	cs, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Sent != total || cs.Accepted != total {
		t.Fatalf("client ledger %+v, want Sent == Accepted == %d", cs, total)
	}
	ps := proxy.Stats()
	if ps.Resets == 0 {
		t.Fatalf("no resets injected (%+v); the soak is vacuous", ps)
	}
	if cs.Redials == 0 {
		t.Errorf("client never redialed under %d resets", ps.Resets)
	}
	// Effectively-once through the chaos: every event exactly once.
	seen := sink.seqs()
	if len(seen) != total {
		t.Fatalf("sink received %d events, want %d exactly-once", len(seen), total)
	}
	for i, seq := range seen {
		if seq != uint64(i+1) {
			t.Fatalf("sink event %d has seq %d (duplicate or loss)", i, seq)
		}
	}
}

// memorySink collects delivered event sequences.
type memorySink struct {
	mu   sync.Mutex
	seqL []uint64
}

func (m *memorySink) SubmitBatch(events []event.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range events {
		m.seqL = append(m.seqL, events[i].Seq)
	}
}

func (m *memorySink) seqs() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]uint64(nil), m.seqL...)
}

// TestSinkPanicContainedByServer injects a sink panic under a live
// transport server: the per-connection recover guard must absorb it
// (PanicsRecovered counts), the process survives, and later healthy
// batches still flow. Each connection carries one frame, so each is
// exactly one sink call whatever the server groups into a call.
func TestSinkPanicContainedByServer(t *testing.T) {
	harness.VerifyNoLeaks(t)
	inner := &memorySink{}
	faulty := &chaos.Sink{Inner: inner, PanicEvery: 2}
	srv, err := transport.NewServer(transport.ServerConfig{Sink: faulty})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	// send delivers one 4-event frame on a fresh connection and returns
	// what its Close reported.
	send := func(first uint64) error {
		c, err := transport.Dial(transport.ClientConfig{Addr: ln.Addr().String(), BatchEvents: 4})
		if err != nil {
			t.Fatal(err)
		}
		events := make([]event.Event, 4)
		for i := range events {
			events[i] = event.Event{Seq: first + uint64(i), TS: event.Time(first) + event.Time(i)}
		}
		if err := c.SubmitBatch(events); err != nil {
			t.Fatal(err)
		}
		_, err = c.Close()
		return err
	}
	// Call 1 passes.
	if err := send(1); err != nil {
		t.Fatal(err)
	}
	// Call 2 panics: the server drops that connection but must not die.
	// The handler recovers before it closes the socket, so the count is
	// settled by the time Close has seen the connection end.
	if err := send(5); err == nil {
		t.Fatal("Close succeeded on the connection whose sink call panicked")
	}
	if got := srv.Stats().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
	// Call 3 on the same server: healthy traffic still flows.
	if err := send(9); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 4, 9, 10, 11, 12}
	if got := inner.seqs(); !slices.Equal(got, want) {
		t.Fatalf("sink received seqs %v, want %v", got, want)
	}
	if faulty.Panics() != 1 {
		t.Fatalf("%d panics injected, want 1", faulty.Panics())
	}
}
