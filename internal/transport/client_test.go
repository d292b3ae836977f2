// Tests of the client's write side: frames are queued on the
// connection's writer and leave with its next write.
package transport

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/harness"
)

// stalledPeer is a scripted binary-mode server for one connection: it
// grants a window no test exhausts and reads nothing until release is
// closed, then decodes every frame up to FrameEOF and answers
// FrameDone. result carries what arrived, in arrival order.
type stalledPeer struct {
	addr    string
	release chan struct{}
	result  chan peerResult
}

type peerResult struct {
	events []event.Event
	frames int
	err    error
}

func startStalledPeer(t *testing.T) *stalledPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stalledPeer{
		addr:    ln.Addr().String(),
		release: make(chan struct{}),
		result:  make(chan peerResult, 1),
	}
	serve := func() (res peerResult) {
		conn, err := ln.Accept()
		if err != nil {
			return peerResult{err: err}
		}
		defer conn.Close()
		r := newRawConn(conn)
		if res.err = r.readPreface(); res.err != nil {
			return res
		}
		if res.err = r.write(AppendCreditFrame(nil, 1<<40)); res.err != nil {
			return res
		}
		<-p.release
		dec := Decoder{Retain: true}
		for {
			typ, payload, err := r.next()
			if err != nil {
				res.err = err
				return res
			}
			if typ == FrameEOF {
				res.err = r.write(uvarintFrame(FrameDone, uint64(len(res.events))))
				return res
			}
			evs, err := dec.DecodeEvents(payload)
			if typ != FrameEvents || err != nil {
				res.err = err
				return res
			}
			res.events = append(res.events, evs...)
			res.frames++
		}
	}
	go func() { p.result <- serve() }()
	t.Cleanup(func() { ln.Close() })
	return p
}

// fillWriter submits frames of frameEvents consecutive events, starting
// at Seq 0, until stop is closed, and returns how many it queued.
func fillWriter(c *Client, frameEvents int, stop <-chan struct{}) (int, error) {
	batch := make([]event.Event, frameEvents)
	for n := 0; ; n++ {
		select {
		case <-stop:
			return n, nil
		default:
		}
		for i := range batch {
			batch[i] = event.Event{Seq: uint64(n*frameEvents + i), Type: 1, Vals: []float64{float64(n)}}
		}
		if err := c.SubmitBatch(batch); err != nil {
			return n, err
		}
	}
}

// awaitFullQueue returns once the writer has a buffer in conn.Write and
// a queue behind it within frameBytes of its bound: the next write
// carries that whole queue. It waits on the writer's own condition
// variable, which every state change broadcasts.
func awaitFullQueue(w *connWriter, frameBytes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !(w.writing && len(w.buf)+frameBytes > maxBuffered) {
		w.cond.Wait()
	}
}

// TestClientCoalescesQueuedFrames fills the socket and the writer's
// queue against a peer that does not read, then lets the peer drain:
// every frame arrives intact and in order, in fewer writes than frames.
func TestClientCoalescesQueuedFrames(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const frameEvents = 8
	peer := startStalledPeer(t)
	c, err := Dial(ClientConfig{Addr: peer.addr, BatchEvents: frameEvents})
	if err != nil {
		t.Fatal(err)
	}
	type filled struct {
		frames int
		err    error
	}
	stop, done := make(chan struct{}), make(chan filled, 1)
	go func() {
		n, err := fillWriter(c, frameEvents, stop)
		done <- filled{n, err}
	}()
	awaitFullQueue(c.w, 256) // no 8-event frame of fillWriter's reaches 256 bytes
	close(stop)
	close(peer.release)
	f := <-done
	if f.err != nil {
		t.Fatal(f.err)
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	res := <-peer.result
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.frames != f.frames || st.Flushes != uint64(f.frames) {
		t.Fatalf("peer decoded %d frames, client counted %d flushes, producer queued %d", res.frames, st.Flushes, f.frames)
	}
	if st.Accepted != st.Sent || st.Sent != uint64(f.frames*frameEvents) {
		t.Fatalf("sent %d, accepted %d, want %d", st.Sent, st.Accepted, f.frames*frameEvents)
	}
	for i, ev := range res.events {
		if ev.Seq != uint64(i) || len(ev.Vals) != 1 || ev.Vals[0] != float64(i/frameEvents) {
			t.Fatalf("event %d arrived as %+v", i, ev)
		}
	}
	if st.Writes >= st.Flushes {
		t.Fatalf("%d writes for %d frames: nothing was coalesced", st.Writes, st.Flushes)
	}
	t.Logf("%d frames in %d writes", st.Flushes, st.Writes)
}

// TestClientFlushIsBarrier pins what Flush guarantees: it returns only
// once the queue is empty and the last write has landed, so no event
// frame is written after it — Close adds exactly the EOF's write.
func TestClientFlushIsBarrier(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const frameEvents = 8
	peer := startStalledPeer(t)
	c, err := Dial(ClientConfig{Addr: peer.addr, BatchEvents: frameEvents})
	if err != nil {
		t.Fatal(err)
	}
	stop, flushed := make(chan struct{}), make(chan error, 1)
	go func() {
		_, err := fillWriter(c, frameEvents, stop)
		if err == nil {
			// A partial batch on top: Flush frames it too.
			err = c.Submit(event.Event{Seq: 1 << 32, Type: 1})
		}
		if err == nil {
			err = c.Flush()
		}
		flushed <- err
	}()
	// The queue is full behind a peer that does not read: a Flush that
	// did not wait for the writer would return with frames still queued.
	awaitFullQueue(c.w, 256)
	close(stop)
	close(peer.release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	c.w.mu.Lock()
	queued, writing := len(c.w.buf), c.w.writing
	c.w.mu.Unlock()
	if queued != 0 || writing {
		t.Fatalf("Flush returned with %d bytes queued, write in flight: %v", queued, writing)
	}
	atFlush := c.Stats()
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != atFlush.Writes+1 {
		t.Fatalf("%d writes after Flush returned, want 1 (the EOF)", st.Writes-atFlush.Writes)
	}
	res := <-peer.result
	if res.err != nil {
		t.Fatal(res.err)
	}
	if uint64(res.frames) != st.Flushes || uint64(len(res.events)) != st.Sent || st.Accepted != st.Sent {
		t.Fatalf("peer saw %d frames / %d events, client %+v", res.frames, len(res.events), st)
	}
}

// TestClientLoneBatchLeaves pins the self-clocking: one SubmitBatch of
// exactly BatchEvents, followed by no client call at all, reaches the
// server's sink — no Flush, no timer, no second batch to push it out.
func TestClientLoneBatchLeaves(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &blockingSink{step: make(chan struct{}), received: make(chan int, 1)}
	close(sink.step) // never blocks: only the arrival signal is wanted
	srv := startServer(t, ServerConfig{Sink: sink})
	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 32})
	if err != nil {
		t.Fatal(err)
	}
	in := genEvents(32)
	if err := c.SubmitBatch(in); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sink.received:
		if n != len(in) {
			t.Fatalf("sink received a batch of %d events, want the %d sent", n, len(in))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a lone full batch did not leave the client")
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// gatedSink blocks every batch until open is closed, so the server
// grants no credit back.
type gatedSink struct {
	collectSink
	open chan struct{}
}

func (s *gatedSink) SubmitBatch(evs []event.Event) {
	<-s.open
	s.collectSink.SubmitBatch(evs)
}

// TestClientWriteFailureWakesReader kills the connection while the
// producer is blocked reading credit with its window's worth of frames
// queued or in flight behind a proxy that stopped forwarding after the
// handshake. A durable reconnecting client resyncs from its ledger and
// delivers every event exactly once; a plain client without Reconnect
// gets the connection error on that call and every later one.
func TestClientWriteFailureWakesReader(t *testing.T) {
	const frameEvents, window = 8, 16
	hello := uvarintFrame(FrameHello, 77)

	// produce spends the window, announces that the next call has to
	// wait for credit, and makes that call.
	produce := func(c *Client, in []event.Event, blocked chan<- struct{}) error {
		for off := 0; off < len(in); off += frameEvents {
			if off == window {
				close(blocked)
			}
			if err := c.SubmitBatch(in[off : off+frameEvents]); err != nil {
				return err
			}
		}
		return nil
	}

	t.Run("durable", func(t *testing.T) {
		harness.VerifyNoLeaks(t)
		sink := &gatedSink{open: make(chan struct{})}
		srv := startServer(t, ServerConfig{Sink: sink, Window: window})
		kill := make(chan struct{})
		proxy := startCuttingProxy(t, srv.Addr().String(), int64(2+len(hello)), kill)
		c, err := Dial(ClientConfig{Addr: proxy, BatchEvents: frameEvents, Session: 77,
			Reconnect: true, MaxBackoff: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		in := genEvents(10 * frameEvents)
		blocked, done := make(chan struct{}), make(chan error, 1)
		go func() { done <- produce(c, in, blocked) }()
		<-blocked
		close(kill)
		close(sink.open)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		st, err := c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Sent != uint64(len(in)) || st.Accepted != st.Sent {
			t.Fatalf("sent %d, accepted %d, want %d both", st.Sent, st.Accepted, len(in))
		}
		// The window's frames plus the one that was waiting for credit:
		// it entered the ledger before the wait.
		if want := uint64(window/frameEvents + 1); st.Redials != 1 || st.Retransmits != want {
			t.Fatalf("redials %d, retransmits %d, want 1 and %d", st.Redials, st.Retransmits, want)
		}
		requireExactly(t, &sink.collectSink, in)
	})

	t.Run("plain", func(t *testing.T) {
		harness.VerifyNoLeaks(t)
		sink := &gatedSink{open: make(chan struct{})}
		defer close(sink.open)
		srv := startServer(t, ServerConfig{Sink: sink, Window: window})
		kill := make(chan struct{})
		proxy := startCuttingProxy(t, srv.Addr().String(), 2, kill)
		c, err := Dial(ClientConfig{Addr: proxy, BatchEvents: frameEvents})
		if err != nil {
			t.Fatal(err)
		}
		in := genEvents(10 * frameEvents)
		blocked, done := make(chan struct{}), make(chan error, 1)
		go func() { done <- produce(c, in, blocked) }()
		<-blocked
		close(kill)
		if err := <-done; err == nil || !strings.Contains(err.Error(), "connection lost") {
			t.Fatalf("submit across the kill: %v, want the connection error", err)
		}
		if err := c.SubmitBatch(in[:frameEvents]); err == nil || !strings.Contains(err.Error(), "connection lost") {
			t.Fatalf("submit after the kill: %v, want the connection error", err)
		}
		st, err := c.Close()
		if err == nil {
			t.Fatal("Close on a lost connection succeeded")
		}
		if st.Sent != window || len(sink.snapshot()) != 0 {
			t.Fatalf("sent %d (want %d), sink holds %d (want 0: the proxy passed no frame)", st.Sent, window, len(sink.snapshot()))
		}
	})
}

// TestClientFailedHandshakeStopsWriter covers the writer's third exit:
// a connect that fails after the writer was started — token rejected,
// or the peer gone before granting credit — returns the error from Dial
// and leaves no goroutine behind.
func TestClientFailedHandshakeStopsWriter(t *testing.T) {
	t.Run("rejected token", func(t *testing.T) {
		harness.VerifyNoLeaks(t)
		srv := startServer(t, ServerConfig{
			Sink:         &collectSink{},
			Authenticate: testAuth(map[string]TenantAuth{"tok-good": {Tenant: "good"}}),
		})
		c, err := Dial(ClientConfig{Addr: srv.Addr().String(), Token: "tok-bad", Session: 5})
		if err == nil || !strings.Contains(err.Error(), "authentication failed") {
			t.Fatalf("dial with a bad token: client %v, err %v", c, err)
		}
	})
	t.Run("peer hangs up", func(t *testing.T) {
		harness.VerifyNoLeaks(t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		var wg sync.WaitGroup
		defer wg.Wait()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if conn, err := ln.Accept(); err == nil {
				conn.Close()
			}
		}()
		if c, err := Dial(ClientConfig{Addr: ln.Addr().String()}); err == nil {
			t.Fatalf("dial against a peer that hangs up: client %v, no error", c)
		}
	})
}
