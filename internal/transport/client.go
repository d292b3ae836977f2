package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
)

// ClientConfig assembles an ingest client.
type ClientConfig struct {
	// Addr is the server address (required), e.g. "127.0.0.1:7071".
	Addr string
	// BatchEvents is the framing threshold: Submit buffers events and
	// queues a FrameEvents on the connection's writer once this many are
	// pending (or on an explicit Flush/Close). Default DefaultBatchEvents.
	BatchEvents int
	// DialTimeout bounds each dial attempt (default 5s).
	DialTimeout time.Duration
	// Reconnect enables transparent redialing: when a write or read
	// fails mid-stream, the client redials (with exponential backoff up
	// to MaxRedials attempts) and keeps going. Events already written to
	// the broken connection, or still queued on its writer, may be lost —
	// the transport is at-most-once across reconnects; ClientStats
	// reports both sides of the ledger.
	Reconnect bool
	// MaxRedials bounds consecutive failed dial attempts before the
	// client gives up with ErrRedialsExhausted (default 5; only
	// meaningful with Reconnect).
	MaxRedials int
	// MaxBackoff caps the exponential redial backoff (default 2s). The
	// actual sleep is jittered uniformly over [backoff/2, backoff] so a
	// fleet of producers disconnected by one server restart does not
	// redial in lockstep.
	MaxBackoff time.Duration
	// Session, when non-zero, opens a durable session: every flushed
	// batch carries a monotonic batch sequence and stays in a client
	// ledger until the server acknowledges it as journaled; on every
	// (re)connect the client retransmits the unacknowledged tail, and
	// the server's per-session dedup makes the retransmits
	// effectively-once (see docs/wire.md, delivery semantics). The id
	// must be unique per logical producer stream — reusing one against
	// a server that already applied batches under it would dedup-drop
	// the new stream's prefix. Durable mode usually pairs with
	// Reconnect.
	Session uint64
	// Token, when non-empty, presents a tenant token: the client speaks
	// the ProtocolVersionTenant preface and opens every connection with
	// a FrameHello carrying Session (zero for plain connections) and
	// the token, receiving its credit window — carved from the tenant's
	// aggregate pool — only after the server authenticated it. Empty
	// keeps the version-1 wire behavior (anonymous tenant).
	Token string
	// Logf logs reconnect events (nil silences them).
	Logf func(format string, args ...any)
}

// DefaultBatchEvents is the client's flush threshold.
const DefaultBatchEvents = 256

// ErrRedialsExhausted reports that the client burned through its
// MaxRedials reconnect attempts without reaching the server. Check for
// it with errors.Is; the wrapped chain carries the last dial error.
var ErrRedialsExhausted = errors.New("transport: redials exhausted")

// ClientStats counts the client's view of the stream.
type ClientStats struct {
	// Sent counts unique events framed and queued for the wire
	// (retransmits of the same batch are not re-counted). Accepted is the
	// other side of the ledger: without a session it is the server's
	// count from the final FrameDone — the whole stream when no redial
	// happened, otherwise only the final connection's share (frames
	// queued or in flight across a reconnect are lost; plain transport
	// is at-most-once). On a durable session it counts events in
	// server-acknowledged batches, and Close returning nil implies
	// Sent == Accepted.
	Sent     uint64
	Accepted uint64
	// Flushes counts event frames queued for the wire; Writes counts the
	// socket writes that carried them (and the handshake and control
	// frames), so Flushes ÷ Writes is the coalescing factor. Redials
	// counts successful reconnections; Retransmits counts batches re-sent
	// after a reconnect on a durable session.
	Flushes     uint64
	Writes      uint64
	Redials     uint64
	Retransmits uint64
	// DegradedAcks counts server acks carrying FlagDegraded: batches
	// the server accepted explicitly WITHOUT durability (its journal
	// degraded to lossy). See Client.Degraded for the live bit.
	DegradedAcks uint64
	// CreditWait is the cumulative time spent blocked waiting for the
	// server to replenish the credit window — the client-visible shape
	// of server-side backpressure.
	CreditWait time.Duration
}

// Client is a batching, credit-aware binary-mode producer. All reads
// happen on the caller's goroutine: credit frames are read exactly when
// the window is exhausted, so no background reader is needed. All
// writes happen on the connection's connWriter, which sends whatever
// frames have been queued since its last write as one write. A Client
// is not safe for concurrent use.
type Client struct {
	cfg     ClientConfig
	conn    net.Conn    // read side; nil while connectionless
	w       *connWriter // write side of conn
	writes  atomic.Uint64
	scan    *frameScanner
	enc     Encoder
	pending []event.Event
	payload []byte // encoded-events scratch, sized before framing
	frame   []byte
	read    []byte

	credit   uint64
	window   uint64 // server's credit window, learned from the initial grant
	stats    ClientStats
	closed   bool
	degraded bool // last ack carried FlagDegraded

	// Durable-session ledger: flushed-but-unacknowledged batches, kept
	// as their encoded FrameEventsSeq payloads so a retransmit is a
	// verbatim byte replay.
	outstanding []outBatch
	nextBatch   uint64 // last batch sequence assigned
	ackedBatch  uint64 // highest server-acknowledged batch sequence
}

// outBatch is one ledger entry of a durable session.
type outBatch struct {
	seq   uint64
	count int
	frame []byte // FrameEventsSeq payload: uvarint seq ‖ encoded events
}

// maxBuffered bounds the bytes queued on a connection's writer: above
// it the producer blocks until a write lands. A full queue is one server
// read; a single frame larger than the bound is admitted when the queue
// is empty.
const maxBuffered = runReadSize

// connWriter is the write side of one client connection. The producer
// appends whole encoded frames to buf and returns; the writer goroutine
// swaps buf against its spare and sends everything queued since its
// last write with one conn.Write. While a write is in the kernel the
// producer keeps encoding and queueing, so under load many small frames
// share one syscall, and a lone frame leaves as soon as the writer is
// scheduled — the writer is clocked by its own writes, never by a timer.
type connWriter struct {
	conn   net.Conn
	writes *atomic.Uint64 // Client.writes
	done   chan struct{}  // closed when run has returned

	mu      sync.Mutex
	cond    sync.Cond // every change of the fields below
	buf     []byte    // frames queued since the last swap
	writing bool      // a swapped-out buffer is in conn.Write
	stopped bool
	err     error // first write failure; run has closed conn and exited
}

func startConnWriter(conn net.Conn, writes *atomic.Uint64) *connWriter {
	w := &connWriter{conn: conn, writes: writes, done: make(chan struct{})}
	w.cond.L = &w.mu
	go w.run()
	return w
}

func (w *connWriter) run() {
	defer close(w.done)
	var out []byte
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil {
		for len(w.buf) == 0 && !w.stopped {
			w.cond.Wait()
		}
		if w.stopped {
			return
		}
		out, w.buf = w.buf, out[:0]
		w.writing = true
		w.cond.Broadcast() // the queue has room again
		w.mu.Unlock()
		_, err := w.conn.Write(out)
		w.writes.Add(1)
		w.mu.Lock()
		w.writing = false
		if err != nil {
			// Closing the connection wakes a producer blocked reading
			// credit; it redials (or fails) on the read error.
			w.err = err
			w.conn.Close()
		}
		w.cond.Broadcast()
	}
}

// write queues one frame (or the preface) behind everything queued
// before it, blocking while the queue is at its bound. It reports the
// writer's failure, if any; nil means queued, not written.
func (w *connWriter) write(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && len(w.buf) > 0 && len(w.buf)+len(frame) > maxBuffered {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	w.buf = append(w.buf, frame...)
	w.cond.Broadcast()
	return nil
}

// flush returns once everything queued has been handed to the kernel,
// or with the write failure that prevented it.
func (w *connWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && (len(w.buf) > 0 || w.writing) {
		w.cond.Wait()
	}
	return w.err
}

// stop closes the connection — failing a write in flight — and waits
// for the goroutine; frames still queued are dropped with the
// connection.
func (w *connWriter) stop() {
	w.mu.Lock()
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
	w.conn.Close()
	<-w.done
}

// Dial connects to a server and performs the binary preface. The
// initial credit window arrives with the server's first frame.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("transport: ClientConfig.Addr is required")
	}
	if cfg.BatchEvents <= 0 {
		cfg.BatchEvents = DefaultBatchEvents
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.MaxRedials <= 0 {
		cfg.MaxRedials = 5
	}
	c := &Client{
		cfg:  cfg,
		scan: newFrameScanner(DefaultMaxFrame),
		read: make([]byte, 32<<10),
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials, starts the connection's writer, sends the preface and
// waits for the initial credit; on failure the writer is stopped again.
// With a tenant token the preface is ProtocolVersionTenant and the
// hello — session id (possibly zero) plus token — goes out before any
// credit exists; the server grants the carved window only after
// authenticating it. Without a token the version-1 flow is unchanged:
// credit arrives immediately, then a durable session sends its hello.
func (c *Client) connect() error {
	conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return err
	}
	version := ProtocolVersion
	if c.cfg.Token != "" {
		version = ProtocolVersionTenant
	}
	c.conn = conn
	c.w = startConnWriter(conn, &c.writes)
	c.credit = 0
	c.scan = newFrameScanner(DefaultMaxFrame)
	fail := func(err error) error {
		c.hangup()
		return err
	}
	if err := c.w.write([]byte{Magic, version}); err != nil {
		return fail(err)
	}
	if version == ProtocolVersionTenant {
		if err := c.sendHello(); err != nil {
			return fail(err)
		}
		if err := c.awaitHelloAck(); err != nil {
			return fail(err)
		}
		if err := c.waitCredit(1); err != nil {
			return fail(err)
		}
		c.window = c.credit
		if c.cfg.Session != 0 {
			if err := c.retransmitLedger(); err != nil {
				return fail(err)
			}
		}
		return nil
	}
	// The server grants the full window immediately after the preface;
	// remember it so flush chunks never exceed what a single window can
	// cover (a larger frame would be a credit violation by protocol).
	if err := c.waitCredit(1); err != nil {
		return fail(err)
	}
	c.window = c.credit
	if c.cfg.Session != 0 {
		if err := c.helloResync(); err != nil {
			return fail(err)
		}
	}
	return nil
}

// sendHello writes the FrameHello opening this connection: the session
// id (zero on plain tenant connections) followed by the tenant token.
func (c *Client) sendHello() error {
	var tmp [binary.MaxVarintLen64]byte
	payload := append(tmp[:binary.PutUvarint(tmp[:], c.cfg.Session)], c.cfg.Token...)
	c.frame = AppendFrame(c.frame[:0], FrameHello, payload)
	return c.w.write(c.frame)
}

// awaitHelloAck reads until the server's FrameHelloAck, applying the
// acknowledged watermark to the ledger and any trailing flags.
func (c *Client) awaitHelloAck() error {
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			return err
		}
		switch typ {
		case FrameHelloAck:
			applied, k := binary.Uvarint(payload)
			if k <= 0 {
				return fmt.Errorf("transport: malformed hello ack")
			}
			if c.cfg.Session != 0 {
				c.ackThrough(applied)
			}
			c.applyFlags(payload[k:])
			return nil
		case FrameCredit:
			if err := c.handleCredit(payload); err != nil {
				return err
			}
		case FrameError:
			return fmt.Errorf("transport: server error: %s", payload)
		default:
			return fmt.Errorf("transport: unexpected frame 0x%02x while awaiting hello ack", typ)
		}
	}
}

// helloResync opens the durable session on a fresh version-1
// connection: send FrameHello, learn the server's applied watermark
// from FrameHelloAck (dropping the ledger prefix it acknowledges), and
// retransmit every still-unacknowledged batch in order. Runs as part
// of connect, so any failure surfaces as a failed (re)dial attempt.
func (c *Client) helloResync() error {
	if err := c.sendHello(); err != nil {
		return err
	}
	if err := c.awaitHelloAck(); err != nil {
		return err
	}
	return c.retransmitLedger()
}

// retransmitLedger re-sends every still-unacknowledged durable batch
// in order on a freshly opened connection.
func (c *Client) retransmitLedger() error {
	// Iterate a snapshot, not the live ledger: when the unacked tail
	// exceeds the credit window, waitCredit reads credit frames mid-loop
	// whose piggybacked watermarks make ackThrough compact c.outstanding
	// in place — indexing the live slice would then skip a batch (and the
	// server rejects out-of-order retransmits). Entries the server acks
	// while we wait are skipped; resending one would be harmless (the
	// dedup watermark absorbs it) but wastes window.
	pending := append([]outBatch(nil), c.outstanding...)
	for i := range pending {
		b := &pending[i]
		if b.seq <= c.ackedBatch {
			continue
		}
		if err := c.waitCredit(uint64(b.count)); err != nil {
			return err
		}
		if b.seq <= c.ackedBatch {
			continue // acked by a credit frame read while waiting
		}
		c.frame = AppendFrame(c.frame[:0], FrameEventsSeq, b.frame)
		if err := c.w.write(c.frame); err != nil {
			return err
		}
		c.credit -= uint64(b.count)
		c.stats.Retransmits++
	}
	return nil
}

// ackThrough drops every ledger entry the server has acknowledged as
// applied, crediting its events to the Accepted side of the ledger.
// The watermark is compared against the ledger even when it did not
// advance, so a batch the server deduplicated (already at or below the
// watermark, e.g. after a stale-session reuse) still drains.
func (c *Client) ackThrough(applied uint64) {
	if applied > c.ackedBatch {
		c.ackedBatch = applied
	}
	i := 0
	for i < len(c.outstanding) && c.outstanding[i].seq <= c.ackedBatch {
		c.stats.Accepted += uint64(c.outstanding[i].count)
		i++
	}
	if i > 0 {
		c.outstanding = append(c.outstanding[:0], c.outstanding[i:]...)
	}
}

// handleCredit applies one FrameCredit payload: the grant, plus — on
// durable sessions — the piggybacked applied watermark, plus the
// optional trailing flags uvarint (present only while a flag is set).
func (c *Client) handleCredit(payload []byte) error {
	n, k := binary.Uvarint(payload)
	if k <= 0 {
		return fmt.Errorf("transport: malformed credit frame")
	}
	c.credit += n
	rest := payload[k:]
	if c.cfg.Session != 0 && len(rest) > 0 {
		applied, k2 := binary.Uvarint(rest)
		if k2 <= 0 {
			return fmt.Errorf("transport: malformed credit frame")
		}
		c.ackThrough(applied)
		rest = rest[k2:]
	}
	c.applyFlags(rest)
	return nil
}

// applyFlags decodes the optional trailing flags uvarint of a credit or
// hello-ack payload. The server appends it only while degraded, so an
// absent flags field clears the client's degraded view — that is how
// the client observes the server's restore without any extra frame.
func (c *Client) applyFlags(rest []byte) {
	var flags uint64
	if len(rest) > 0 {
		if f, k := binary.Uvarint(rest); k > 0 {
			flags = f
		}
	}
	degraded := flags&FlagDegraded != 0
	if degraded {
		c.stats.DegradedAcks++
	}
	if degraded != c.degraded {
		c.degraded = degraded
		if c.cfg.Logf != nil {
			if degraded {
				c.cfg.Logf("transport: server journal degraded; acks are at-most-once")
			} else {
				c.cfg.Logf("transport: server journal restored")
			}
		}
	}
}

// Degraded reports the server's journal state as of the last ack: true
// means batches are currently being accepted without durability
// (at-most-once) — see FlagDegraded.
func (c *Client) Degraded() bool { return c.degraded }

// hangup closes the connection, if any, and waits for its writer to
// exit; frames still queued on it are dropped.
func (c *Client) hangup() {
	if c.w != nil {
		c.w.stop()
	}
	c.conn, c.w = nil, nil
}

// redial replaces a broken connection, with jittered exponential
// backoff across consecutive dial failures. Frames of the old
// connection that were in flight, or still queued on its writer, are
// considered lost.
func (c *Client) redial() error {
	c.hangup()
	if !c.cfg.Reconnect {
		return fmt.Errorf("transport: connection lost (reconnect disabled)")
	}
	maxBackoff := c.cfg.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	backoff := 50 * time.Millisecond
	if backoff > maxBackoff {
		backoff = maxBackoff
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxRedials; attempt++ {
		if attempt > 0 {
			// Jitter over [backoff/2, backoff]: after a mass disconnect
			// (server restart), producers spread their retries instead
			// of thundering back in lockstep.
			d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			time.Sleep(d)
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		if err := c.connect(); err != nil {
			lastErr = err
			if c.cfg.Logf != nil {
				c.cfg.Logf("transport: redial %d/%d: %v", attempt+1, c.cfg.MaxRedials, err)
			}
			continue
		}
		c.stats.Redials++
		return nil
	}
	return fmt.Errorf("transport: %w after %d attempts: %v", ErrRedialsExhausted, c.cfg.MaxRedials, lastErr)
}

// waitCredit blocks until at least need events of credit are available,
// consuming server frames. Unexpected frames are a protocol error.
func (c *Client) waitCredit(need uint64) error {
	if c.credit >= need {
		return nil
	}
	start := time.Now()
	err := c.readCredit(need)
	c.stats.CreditWait += time.Since(start)
	return err
}

// readCredit is waitCredit's blocked path: it reads server frames until
// the window covers need.
func (c *Client) readCredit(need uint64) error {
	for c.credit < need {
		typ, payload, err := c.readFrame()
		if err != nil {
			return err
		}
		switch typ {
		case FrameCredit:
			if err := c.handleCredit(payload); err != nil {
				return err
			}
		case FrameError:
			return fmt.Errorf("transport: server error: %s", payload)
		default:
			return fmt.Errorf("transport: unexpected frame 0x%02x while awaiting credit", typ)
		}
	}
	return nil
}

// ensureConn reports a usable connection; after a failed redial (or a
// drop with Reconnect disabled) the client is connectionless and every
// wire operation degrades to this error instead of a nil dereference.
func (c *Client) ensureConn() error {
	if c.conn == nil {
		return fmt.Errorf("transport: connection lost")
	}
	return nil
}

// readFrame pops the next server frame, reading from the connection as
// needed. The returned payload aliases the scanner buffer.
func (c *Client) readFrame() (byte, []byte, error) {
	if err := c.ensureConn(); err != nil {
		return 0, nil, err
	}
	for {
		typ, payload, ok, err := c.scan.Next()
		if err != nil {
			return 0, nil, err
		}
		if ok {
			return typ, payload, nil
		}
		n, err := c.conn.Read(c.read)
		if n > 0 {
			c.scan.Feed(c.read[:n])
			continue
		}
		if err != nil {
			return 0, nil, err
		}
	}
}

// Submit buffers one event; see SubmitBatch for what crossing the batch
// threshold does.
func (c *Client) Submit(ev event.Event) error {
	return c.SubmitBatch([]event.Event{ev})
}

// SubmitBatch buffers a batch of events in stream order. Each time the
// batch threshold is crossed the pending events are encoded into one
// frame and queued on the connection's writer — credit is spent and
// Sent/Flushes are counted at that point (on a durable session the
// ledger entry is made before it) — and the call returns without
// waiting for the write: the writer sends the frame as soon as it is
// scheduled, together with whatever else was queued meanwhile. It
// blocks while the credit window is exhausted (the backpressure reaching
// the producer) or more than maxBuffered bytes are queued. A write
// failure surfaces on the next call that touches the connection, through
// the redial path when Reconnect is set. The event structs are copied,
// but their Vals backing arrays are referenced (not copied) until the
// events are framed; Events treat Vals as immutable throughout the
// repository, so this is only a constraint for callers that recycle
// value buffers — Flush before reusing them.
func (c *Client) SubmitBatch(events []event.Event) error {
	if c.closed {
		return fmt.Errorf("transport: client closed")
	}
	for _, ev := range events {
		c.pending = append(c.pending, ev)
		if len(c.pending) >= c.cfg.BatchEvents {
			if err := c.framePending(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush is the write barrier: it frames the pending events, waiting for
// window credit as needed, and returns once every frame queued so far
// has been handed to the kernel. If the connection fails first it
// redials (an error when Reconnect is off or the redials are exhausted):
// a durable session's frames are retransmitted from the ledger, a plain
// connection's queued frames are lost with it.
func (c *Client) Flush() error {
	if c.closed {
		return fmt.Errorf("transport: client closed")
	}
	if err := c.framePending(); err != nil {
		return err
	}
	for c.w != nil {
		if err := c.w.flush(); err == nil {
			break
		}
		if err := c.redial(); err != nil {
			return err
		}
	}
	return nil
}

// framePending encodes the pending events into frames of at most
// BatchEvents events (and one credit window) and queues them on the
// connection's writer.
func (c *Client) framePending() error {
	chunkMax := c.cfg.BatchEvents
	if c.window > 0 && uint64(chunkMax) > c.window {
		chunkMax = int(c.window)
	}
	off := 0
	for off < len(c.pending) {
		n := len(c.pending) - off
		if n > chunkMax {
			n = chunkMax
		}
		sent, err := c.writeChunk(c.pending[off : off+n])
		off += sent
		if err != nil {
			// Keep only the unsent tail pending — a byte-split chunk may
			// have delivered a prefix before failing, and resending that
			// prefix would duplicate events (delivery is at-most-once).
			c.pending = c.pending[:copy(c.pending, c.pending[off:])]
			return err
		}
	}
	c.pending = c.pending[:0]
	return nil
}

// maxChunkPayload bounds the encoded payload of one FrameEvents the
// client will emit; kept below the server's DefaultMaxFrame with slack
// for the frame header, so a batch of large-Vals events is split by
// bytes rather than rejected as an oversized frame.
const maxChunkPayload = DefaultMaxFrame - 64

// writeChunk queues the chunk as FrameEvents, splitting by encoded size
// when the events are too large to fit a single frame, and redialing on
// connection failure when enabled. It reports how many of the chunk's
// events were queued, so a partial split failure never gets the
// already-sent prefix resent (delivery stays at-most-once).
func (c *Client) writeChunk(chunk []event.Event) (int, error) {
	payload := c.enc.AppendEvents(c.payload[:0], chunk)
	c.payload = payload
	if len(payload) > maxChunkPayload {
		if len(chunk) == 1 {
			return 0, fmt.Errorf("transport: event %d encodes to %d bytes, exceeding the %d-byte frame bound",
				chunk[0].Seq, len(payload), maxChunkPayload)
		}
		half := len(chunk) / 2
		sent, err := c.writeChunk(chunk[:half])
		if err != nil {
			return sent, err
		}
		more, err := c.writeChunk(chunk[half:])
		return sent + more, err
	}
	if c.cfg.Session != 0 {
		return c.writeDurable(chunk, payload)
	}
	for {
		// Stale credit left over from a dead connection must not bypass
		// waitCredit into a nil-conn write: redial (or fail) first.
		if c.conn == nil {
			if rerr := c.redial(); rerr != nil {
				return 0, rerr
			}
		}
		if err := c.waitCredit(uint64(len(chunk))); err != nil {
			if isConnErr(err) {
				if rerr := c.redial(); rerr != nil {
					return 0, rerr
				}
				continue
			}
			return 0, err
		}
		c.frame = AppendFrame(c.frame[:0], FrameEvents, payload)
		if err := c.w.write(c.frame); err != nil {
			if rerr := c.redial(); rerr != nil {
				return 0, rerr
			}
			continue
		}
		c.credit -= uint64(len(chunk))
		c.stats.Sent += uint64(len(chunk))
		c.stats.Flushes++
		return len(chunk), nil
	}
}

// writeDurable queues one chunk as a sequenced FrameEventsSeq batch.
// The batch enters the ledger before it is queued, so a connection
// failure at any point — before, during or after its write — cannot
// lose it: the redial's resync retransmits every ledger entry, and the
// server's dedup watermark absorbs any copy that did arrive. The chunk
// counts into Sent exactly once, here.
func (c *Client) writeDurable(chunk []event.Event, payload []byte) (int, error) {
	c.nextBatch++
	var tmp [binary.MaxVarintLen64]byte
	fp := make([]byte, 0, binary.MaxVarintLen64+len(payload))
	fp = append(fp, tmp[:binary.PutUvarint(tmp[:], c.nextBatch)]...)
	fp = append(fp, payload...)
	b := outBatch{seq: c.nextBatch, count: len(chunk), frame: fp}
	c.outstanding = append(c.outstanding, b)
	c.stats.Sent += uint64(len(chunk))
	c.stats.Flushes++
	if c.conn == nil {
		// The batch is in the ledger; a successful redial's resync
		// retransmits it, and stale credit must not reach a nil conn.
		return len(chunk), c.redial()
	}
	if err := c.waitCredit(uint64(b.count)); err != nil {
		if isConnErr(err) {
			// A successful redial already retransmitted the ledger,
			// this batch included.
			return len(chunk), c.redial()
		}
		return len(chunk), err
	}
	c.frame = AppendFrame(c.frame[:0], FrameEventsSeq, b.frame)
	if err := c.w.write(c.frame); err != nil {
		return len(chunk), c.redial()
	}
	c.credit -= uint64(b.count)
	return len(chunk), nil
}

// isConnErr reports whether err is a connection-level failure (as
// opposed to a protocol error that redialing cannot fix).
func isConnErr(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &ne)
}

// ServerStats flushes pending events, then requests the server's
// statistics document (the ServerConfig.StatsJSON hook; empty when the
// server exposes none).
func (c *Client) ServerStats() ([]byte, error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	if err := c.w.write(AppendFrame(c.frame[:0], FrameStatsReq, nil)); err != nil {
		return nil, err
	}
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			return nil, err
		}
		switch typ {
		case FrameStats:
			return append([]byte(nil), payload...), nil
		case FrameCredit:
			if err := c.handleCredit(payload); err != nil {
				return nil, err
			}
		case FrameError:
			return nil, fmt.Errorf("transport: server error: %s", payload)
		default:
			return nil, fmt.Errorf("transport: unexpected frame 0x%02x while awaiting stats", typ)
		}
	}
}

// Close flushes pending events, signals end of stream and waits for
// the server's FrameDone — so when Close returns without error, every
// accepted event has been submitted to the server's sink. On a durable
// session it first drains the ledger: Close does not return nil until
// every sent batch has been acknowledged as journaled (redialing and
// retransmitting as needed), so a nil error implies Sent == Accepted.
// It returns the final statistics.
func (c *Client) Close() (ClientStats, error) {
	if c.closed {
		return c.Stats(), nil
	}
	err := c.finish()
	c.closed = true
	c.hangup()
	return c.Stats(), err
}

// finish is Close's conversation with the server: flush, drain the
// ledger, then EOF and FrameDone.
func (c *Client) finish() error {
	if err := c.Flush(); err != nil {
		return err
	}
	if c.cfg.Session != 0 {
		if err := c.drainAcks(); err != nil {
			return err
		}
	}
	for {
		if err := c.ensureConn(); err != nil {
			return err
		}
		if err := c.w.write(AppendFrame(c.frame[:0], FrameEOF, nil)); err != nil {
			if c.cfg.Session != 0 && isConnErr(err) {
				if rerr := c.redial(); rerr != nil {
					return rerr
				}
				continue
			}
			return err
		}
		done, err := c.awaitDone()
		if err != nil {
			if c.cfg.Session != 0 && isConnErr(err) {
				if rerr := c.redial(); rerr != nil {
					return rerr
				}
				continue // resend EOF on the fresh connection
			}
			return err
		}
		if c.cfg.Session == 0 {
			// Durable sessions keep the ledger count: FrameDone is
			// connection-scoped and undercounts across redials.
			c.stats.Accepted = done
		}
		return nil
	}
}

// drainAcks blocks until every ledger entry has been acknowledged,
// redialing (which retransmits the remainder) on connection failures.
func (c *Client) drainAcks() error {
	for len(c.outstanding) > 0 {
		typ, payload, err := c.readFrame()
		if err != nil {
			if isConnErr(err) {
				if rerr := c.redial(); rerr != nil {
					return rerr
				}
				continue
			}
			return err
		}
		switch typ {
		case FrameCredit:
			if err := c.handleCredit(payload); err != nil {
				return err
			}
		case FrameError:
			return fmt.Errorf("transport: server error: %s", payload)
		default:
			return fmt.Errorf("transport: unexpected frame 0x%02x while draining acks", typ)
		}
	}
	return nil
}

// awaitDone reads until the server's FrameDone and returns its count.
func (c *Client) awaitDone() (uint64, error) {
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			return 0, err
		}
		switch typ {
		case FrameDone:
			n, k := binary.Uvarint(payload)
			if k <= 0 {
				return 0, fmt.Errorf("transport: malformed done frame")
			}
			return n, nil
		case FrameCredit:
			if err := c.handleCredit(payload); err != nil {
				return 0, err
			}
		case FrameError:
			return 0, fmt.Errorf("transport: server error: %s", payload)
		default:
			return 0, fmt.Errorf("transport: unexpected frame 0x%02x while awaiting done", typ)
		}
	}
}

// Stats returns the client's counters so far.
func (c *Client) Stats() ClientStats {
	st := c.stats
	st.Writes = c.writes.Load()
	return st
}
