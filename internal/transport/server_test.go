package transport

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/harness"
)

// collectSink copies every submitted batch, like the real pipelines do.
type collectSink struct {
	mu     sync.Mutex
	events []event.Event
}

func (s *collectSink) SubmitBatch(evs []event.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, evs...)
}

func (s *collectSink) snapshot() []event.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]event.Event(nil), s.events...)
}

// startServer serves cfg on a loopback listener and registers cleanup.
func startServer(t testing.TB, cfg ServerConfig) *Server {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	// Serve publishes the listener before accepting; wait for it.
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	return srv
}

func TestServerBinaryEndToEnd(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{Sink: sink, Window: 512})

	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	in := genEvents(1000)
	if err := c.SubmitBatch(in); err != nil {
		t.Fatal(err)
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 1000 || st.Accepted != 1000 {
		t.Fatalf("client stats: %+v", st)
	}
	got := sink.snapshot()
	if !eventsEqual(in, got) {
		t.Fatalf("sink received %d events, mismatch with %d sent", len(got), len(in))
	}
	ss := srv.Stats()
	if ss.EventsBinary != 1000 || ss.ConnsAccepted != 1 {
		t.Fatalf("server stats: %+v", ss)
	}
}

// blockingSink releases one batch per receive on step.
type blockingSink struct {
	step     chan struct{}
	received chan int
}

func (s *blockingSink) SubmitBatch(evs []event.Event) {
	s.received <- len(evs)
	<-s.step
}

// TestServerBackpressure pins the credit window as a hard bound: with
// the sink blocked, a client trying to push more than one window stalls
// instead of buffering server-side.
func TestServerBackpressure(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const window = 128
	sink := &blockingSink{step: make(chan struct{}), received: make(chan int, 64)}
	srv := startServer(t, ServerConfig{Sink: sink, Window: window})

	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	sendDone := make(chan error, 1)
	go func() {
		err := c.SubmitBatch(genEvents(window * 4))
		if err == nil {
			err = c.Flush()
		}
		sendDone <- err
	}()

	// The first batch reaches the sink and blocks there; the client can
	// keep writing only until the window is spent.
	var delivered int
	delivered += <-sink.received
	select {
	case err := <-sendDone:
		t.Fatalf("client finished against a blocked sink (err=%v)", err)
	case <-time.After(200 * time.Millisecond):
	}

	// Release the sink; everything drains and the client completes.
	go func() {
		for range sink.received {
			sink.step <- struct{}{}
		}
	}()
	sink.step <- struct{}{}
	if err := <-sendDone; err != nil {
		t.Fatalf("send: %v", err)
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != window*4 {
		t.Fatalf("accepted %d of %d", st.Accepted, window*4)
	}
	if st.CreditWait == 0 {
		t.Error("client never waited for credit under a blocked sink")
	}
	close(sink.received)
}

// TestServerCreditViolation pins the enforcement: a frame holding more
// events than the remaining credit kills the connection with an error.
func TestServerCreditViolation(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{Sink: sink, Window: 4})

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{Magic, ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	var enc Encoder
	frame := enc.AppendEventsFrame(nil, genEvents(5)) // window is 4
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The server answers with the initial credit, then the error frame,
	// then closes.
	buf, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	s := newFrameScanner(0)
	s.Feed(buf)
	var sawError bool
	for {
		typ, _, ok, err := s.Next()
		if err != nil || !ok {
			break
		}
		if typ == FrameError {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("no FrameError for credit violation")
	}
	waitCond(t, time.Second, func() bool { return srv.Stats().ProtocolErrors == 1 })
	if got := len(sink.snapshot()); got != 0 {
		t.Fatalf("violating frame still delivered %d events", got)
	}
}

func TestServerUnknownTypeID(t *testing.T) {
	harness.VerifyNoLeaks(t)
	reg := event.NewRegistry()
	reg.RegisterAll("A", "B")
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{Sink: sink, Registry: reg})

	c, err := Dial(ClientConfig{Addr: srv.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(event.Event{Seq: 1, Type: 9}); err != nil {
		t.Fatal(err)
	}
	err = c.Flush()
	if err == nil {
		_, err = c.Close()
	}
	if err == nil {
		t.Fatal("event with unregistered type id accepted")
	}
	waitCond(t, time.Second, func() bool { return srv.Stats().ProtocolErrors == 1 })
}

func TestServerNDJSON(t *testing.T) {
	harness.VerifyNoLeaks(t)
	reg := event.NewRegistry()
	reg.RegisterAll("STR_A", "DEF_B00")
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{Sink: sink, Registry: reg})

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	lines := `{"seq":0,"type":"STR_A","ts":1000000,"kind":"possession","vals":[1,2,3]}
{"seq":1,"type":1,"ts":2000000,"kind":4}

{"seq":2,"type":"DEF_B00","ts":3000000,"kind":"defend"}
`
	if _, err := conn.Write([]byte(lines)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitCond(t, time.Second, func() bool { return len(sink.snapshot()) == 3 })
	got := sink.snapshot()
	if got[0].Type != 0 || got[0].Kind != event.KindPossession || len(got[0].Vals) != 3 {
		t.Fatalf("event 0 decoded as %+v", got[0])
	}
	if got[1].Kind != event.KindDefend || got[2].Seq != 2 {
		t.Fatalf("events decoded as %+v", got)
	}
	if srv.Stats().EventsNDJSON != 3 {
		t.Fatalf("server stats: %+v", srv.Stats())
	}
}

func TestServerNDJSONError(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{Sink: sink})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("{\"seq\":0,\"type\":0,\"ts\":1}\nnot json\n")); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) == 0 {
		t.Fatal("no error line for malformed NDJSON")
	}
	waitCond(t, time.Second, func() bool { return srv.Stats().ProtocolErrors == 1 })
	// The valid line before the malformed one is still delivered.
	if got := len(sink.snapshot()); got != 1 {
		t.Fatalf("delivered %d events, want 1", got)
	}
}

// TestServerNDJSONErrorAfterJournalFault pins the order of faults in one
// read: when the journal fail-stops on the lines before a malformed
// line, the producer gets the journal's error line alone — the
// connection drops there, as on the binary path — and the malformed
// line counts no protocol error, because it was never reached.
func TestServerNDJSONErrorAfterJournalFault(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{Sink: sink, Journal: &memJournal{failAt: 1}})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("{\"seq\":0,\"type\":0,\"ts\":1}\nnot json\n")); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(reply), "\n"), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], errJournalDown.Error()) {
		t.Fatalf("reply %q, want the journal's error line alone", reply)
	}
	if n := srv.Stats().ProtocolErrors; n != 0 {
		t.Errorf("ProtocolErrors = %d after a journal fault, want 0", n)
	}
	if got := len(sink.snapshot()); got != 0 {
		t.Errorf("delivered %d events the journal refused", got)
	}
}

func TestServerStatsFrame(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{
		Sink:      sink,
		StatsJSON: func() []byte { return []byte(`{"hello":"world"}`) },
	})
	c, err := Dial(ClientConfig{Addr: srv.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != `{"hello":"world"}` {
		t.Fatalf("stats doc %q", doc)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServerBadVersion(t *testing.T) {
	harness.VerifyNoLeaks(t)
	srv := startServer(t, ServerConfig{Sink: &collectSink{}})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{Magic, 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
	waitCond(t, time.Second, func() bool { return srv.Stats().ProtocolErrors == 1 })
}

// TestClientReconnect drives the client through a proxy that cuts the
// first connection mid-stream: the client redials and completes; the
// ledger records the redial and at-most-once delivery.
func TestClientReconnect(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{Sink: sink, Window: 64})

	proxy := startCuttingProxy(t, srv.Addr().String(), 1<<10, nil)
	c, err := Dial(ClientConfig{Addr: proxy, BatchEvents: 32, Reconnect: true, MaxRedials: 10})
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
	// At-most-once: nothing is duplicated, and everything after the cut
	// arrived (the final connection's accepted count matches).
	got := sink.snapshot()
	if len(got) > len(in) {
		t.Fatalf("duplicated events: %d > %d", len(got), len(in))
	}
	if st.Accepted == 0 || uint64(len(got)) < st.Accepted {
		t.Fatalf("accepted %d but sink has %d", st.Accepted, len(got))
	}
}

// startCuttingProxy forwards to target. On the first connection it
// passes cutAfter bytes from the client, stops reading, waits for hold
// to be closed (nil: does not wait) and drops the connection
// mid-stream; subsequent connections are forwarded untouched. Returns
// the proxy address.
func startCuttingProxy(t *testing.T, target string, cutAfter int64, hold <-chan struct{}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	first := true
	stop := make(chan struct{})
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			cut := first
			first = false
			mu.Unlock()
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			wg.Add(2)
			go func() { // client -> server, possibly cut
				defer wg.Done()
				defer in.Close()
				defer out.Close()
				if cut {
					io.CopyN(out, in, cutAfter)
					if hold != nil {
						select {
						case <-hold:
						case <-stop:
						}
					}
					return // drop the connection mid-stream
				}
				io.Copy(out, in)
			}()
			go func() { // server -> client
				defer wg.Done()
				io.Copy(in, out)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		close(stop)
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Error("proxy goroutines did not exit")
		}
	})
	return ln.Addr().String()
}

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerNDJSONLineBound pins the bounded read: a newline-less
// connection is cut off once the frame bound is exceeded, instead of
// buffering the line without bound.
func TestServerNDJSONLineBound(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{Sink: sink, MaxFrame: 1 << 16})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	junk := make([]byte, 32<<10)
	for i := range junk {
		junk[i] = 'a'
	}
	for i := 0; i < 64; i++ { // 2 MiB, no newline
		if _, err := conn.Write(junk); err != nil {
			break // server already cut us off
		}
	}
	waitCond(t, 5*time.Second, func() bool { return srv.Stats().ProtocolErrors == 1 })
	if got := len(sink.snapshot()); got != 0 {
		t.Fatalf("unbounded line delivered %d events", got)
	}
}

// TestServerCloseLifecycle pins the Close/Serve ordering edge cases:
// Close before Serve, double Close, and Close-then-Serve must all
// return instead of hanging on the serve channel.
func TestServerCloseLifecycle(t *testing.T) {
	harness.VerifyNoLeaks(t)
	srv, err := NewServer(ServerConfig{Sink: &collectSink{}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Close()
		srv.Close() // second Close must not block either
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close before Serve hangs")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after Close succeeded")
	}
	done = make(chan struct{})
	go func() { defer close(done); srv.Close() }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close after Close-then-Serve hangs")
	}
}

// TestClientSplitsOversizedBatches pins the byte-budget chunking: a
// batch whose encoded size exceeds the frame bound is split and
// delivered, not rejected as an oversized frame.
func TestClientSplitsOversizedBatches(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{Sink: sink})
	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 256})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 1000) // 8 KB per event; 256 events ≈ 2 MiB encoded
	for i := range vals {
		vals[i] = float64(i)
	}
	in := make([]event.Event, 256)
	for i := range in {
		in[i] = event.Event{Seq: uint64(i), Type: 1, Vals: vals}
	}
	if err := c.SubmitBatch(in); err != nil {
		t.Fatal(err)
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 256 {
		t.Fatalf("accepted %d of 256", st.Accepted)
	}
	if st.Flushes < 2 {
		t.Fatalf("oversized batch was not split: %d flushes", st.Flushes)
	}
	got := sink.snapshot()
	if !eventsEqual(in, got) {
		t.Fatalf("sink received %d events, mismatch with %d sent", len(got), len(in))
	}

	// A single event beyond the bound is a clear client-side error.
	huge := event.Event{Seq: 999, Vals: make([]float64, (DefaultMaxFrame/8)+16)}
	c2, err := Dial(ClientConfig{Addr: srv.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Submit(huge); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(); err == nil {
		t.Fatal("undeliverable single event accepted")
	}
	if _, err := c2.Close(); err == nil {
		t.Fatal("Close with an undeliverable event pending succeeded")
	}
}
