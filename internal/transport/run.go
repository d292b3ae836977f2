package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"

	"repro/internal/event"
)

// binaryConn is one connection's handler state, for either framing:
// what the connection is (tenant, session, credit) and the run in
// progress — the frames or lines that arrived with one read, staged
// together so that one journal sync and one socket write cover all of
// them (see serveBinary for the stage order). Both framings share every
// stage; only the replies are encoded per framing (ack, drop and the
// hello replies), switched on ndjson.
type binaryConn struct {
	s      *Server
	conn   net.Conn
	dec    Decoder
	ndjson bool // NDJSON framing: lines in, status and error lines out, no credit

	tenantMode bool // version-2 preface: hello first, window granted after auth
	helloDone  bool // binary: the hello frame was taken; NDJSON: the first line was judged
	sawEOF     bool
	degraded   bool // NDJSON: the producer's last status line said degraded
	ten        *tenantState
	carved     int      // credit window carved from the tenant's pool
	sess       *session // non-nil once FrameHello opened a durable session
	sessID     uint64
	credit     uint64
	accepted   uint64

	events []event.Event // the run's event slab; staged batches index into it
	staged []stagedBatch
	locked bool   // sess.mu is held: from the run's first dedup check to flush
	next   uint64 // batch sequence continuing the staged run (valid while locked)
	charge uint64 // events applied since the last tenant-bucket charge
	out    []byte // replies of the run, in stream order; one write sends them
}

// stagedBatch is one decoded, journal-appended batch awaiting its commit.
type stagedBatch struct {
	lo, hi    int    // events[lo:hi] of the run slab
	batchSeq  uint64 // zero for a plain FrameEvents batch
	seq       uint64 // journal sequence to commit when journaled
	journaled bool
	degraded  bool // the journal refused durability: ack with FlagDegraded
}

// errDropped ends a connection whose failure is already accounted for —
// a failed write. Unlike a protocol error, nothing is reported to the
// peer: to a producer it is indistinguishable from a crash, and its
// redial path recovers.
var errDropped = errors.New("transport: connection dropped")

// journalFault ends a connection on a fail-stop journal error: the
// batch is simply not durable, which is a server fault, not the
// client's — no protocol error is counted. A binary producer is told
// nothing and redials (as after errDropped); an NDJSON producer, which
// has no redial protocol, gets the fault as its error line.
type journalFault struct{ err error }

func (f journalFault) Error() string { return "transport: journal: " + f.err.Error() }

// admit authenticates the connection and, on a binary connection,
// carves its credit window out of the tenant's pool. NDJSON has no
// credit protocol, so there is nothing to carve.
func (c *binaryConn) admit(token []byte) error {
	ten, err := c.s.resolveTenant(token)
	if err != nil {
		return err
	}
	c.ten = ten
	tenantOpen(ten)
	if c.ndjson {
		return nil
	}
	if c.carved = c.s.carveWindow(ten); c.carved <= 0 {
		return fmt.Errorf("transport: tenant %q: aggregate credit window exhausted", ten.name)
	}
	c.credit = uint64(c.carved)
	return nil
}

// release undoes the connection's bindings when its handler returns —
// including by panic, which must not leave the session locked.
func (c *binaryConn) release() {
	if c.locked {
		c.unlockSession()
	}
	c.s.uncarveWindow(c.ten, c.carved)
	tenantClose(c.ten)
	if c.sess != nil {
		c.s.unbindSession(c.sess)
	}
}

// run pushes every complete frame in the scanner through the stages and
// answers them with one write.
func (c *binaryConn) run(scan *frameScanner) error {
	c.events = c.events[:0]
	return c.settle(c.dispatch(scan))
}

// settle ends a run: it commits, submits and acknowledges what the run
// staged and writes the replies. Whatever was staged ahead of a failing
// frame or line (err) is still committed, submitted and acknowledged
// first, exactly as if it had arrived alone.
func (c *binaryConn) settle(err error) error {
	if ferr := c.flush(); ferr != nil {
		err = ferr // in stream order the journal fault came first
	}
	if werr := c.send(); err == nil {
		err = werr
	}
	return err
}

// drop logs and answers the error that ends the connection, in its
// framing: a protocol error is counted and reported — FrameError or an
// {"error":...} line —, a journal fault is reported on NDJSON only (see
// journalFault), and errDropped is already accounted for. Best effort:
// the peer may already be gone.
func (c *binaryConn) drop(err error) {
	switch e := err.(type) {
	case journalFault:
		c.s.logf("transport: %s: journal: %v (dropping connection unacknowledged)", c.conn.RemoteAddr(), e.err)
		if !c.ndjson {
			return
		}
	default:
		if err == errDropped {
			return
		}
		c.s.protoErrs.Add(1)
		c.s.logf("transport: %s: %v", c.conn.RemoteAddr(), err)
	}
	if c.ndjson {
		_ = c.s.write(c.conn, fmt.Appendf(nil, "{\"error\":%q}\n", err.Error()))
	} else {
		_ = c.s.write(c.conn, AppendFrame(nil, FrameError, []byte(err.Error())))
	}
}

// dispatch walks the run's frames: events frames are staged, every other
// frame first settles what is staged so its reply lands in stream order.
func (c *binaryConn) dispatch(scan *frameScanner) error {
	s := c.s
	for {
		typ, payload, ok, err := scan.Next()
		if err != nil || !ok {
			return err
		}
		s.frames.Add(1)
		if c.tenantMode && !c.helloDone && typ != FrameHello {
			return fmt.Errorf("transport: tenant connection must open with a hello frame")
		}
		if typ == FrameEvents || typ == FrameEventsSeq {
			if err := c.stage(typ == FrameEventsSeq, payload); err != nil {
				return err
			}
			continue
		}
		if err := c.flush(); err != nil {
			return err
		}
		switch typ {
		case FrameHello:
			if c.helloDone || c.sess != nil {
				return fmt.Errorf("transport: duplicate hello frame")
			}
			id, k := binary.Uvarint(payload)
			if k <= 0 || (id == 0 && !c.tenantMode) {
				return fmt.Errorf("transport: malformed hello frame")
			}
			if c.tenantMode {
				// The bytes after the session uvarint are the tenant
				// token; authenticate before granting any credit.
				if err := c.admit(payload[k:]); err != nil {
					return err
				}
			}
			c.helloDone = true
			var applied uint64
			if id != 0 {
				c.sessID = id
				c.sess = s.bindSession(id)
				c.sess.mu.Lock()
				applied = c.sess.applied
				c.sess.mu.Unlock()
			}
			var tmp [2 * binary.MaxVarintLen64]byte
			ak := binary.PutUvarint(tmp[:], applied)
			if s.degraded() {
				// Trailing flags uvarint, as on FrameCredit: the
				// session resumes into a lossy episode and the
				// producer learns it from the very first ack.
				ak += binary.PutUvarint(tmp[ak:], FlagDegraded)
			}
			c.out = AppendFrame(c.out, FrameHelloAck, tmp[:ak])
			if c.tenantMode {
				// The initial grant, deferred past authentication:
				// the carved window opens the connection's credit.
				c.out = AppendCreditFrame(c.out, c.credit)
			}
		case FrameEOF:
			c.sawEOF = true
			var tmp [binary.MaxVarintLen64]byte
			c.out = AppendFrame(c.out, FrameDone, tmp[:binary.PutUvarint(tmp[:], c.accepted)])
			// Keep reading: the client may still request stats
			// before closing; further events are a protocol error.
		case FrameStatsReq:
			var stats []byte
			if s.cfg.StatsJSON != nil {
				stats = s.cfg.StatsJSON()
			}
			c.out = AppendFrame(c.out, FrameStats, stats)
		default:
			return fmt.Errorf("transport: unknown frame type 0x%02x", typ)
		}
	}
}

// stage decodes one events frame into the run's slab, checks it against
// the credit window and (sequenced frames) the session watermark, and
// stages it (stageBatch).
func (c *binaryConn) stage(sequenced bool, payload []byte) error {
	if c.sawEOF {
		return fmt.Errorf("transport: events after EOF frame")
	}
	var batchSeq, sessID uint64
	if sequenced {
		if c.sess == nil {
			return fmt.Errorf("transport: sequenced events before hello frame")
		}
		var k int
		if batchSeq, k = binary.Uvarint(payload); k <= 0 || batchSeq == 0 {
			return fmt.Errorf("transport: malformed batch sequence")
		}
		payload, sessID = payload[k:], c.sessID
	}
	lo := len(c.events)
	events, err := c.dec.appendEvents(c.events, payload)
	if err != nil {
		return err
	}
	c.events = events
	n := uint64(len(events) - lo)
	if n > c.credit {
		return fmt.Errorf("transport: %d events exceed remaining credit %d", n, c.credit)
	}
	if sequenced {
		if ok, err := c.sequence(batchSeq, n); !ok {
			return err
		}
	} else if n == 0 {
		return nil
	}
	c.credit -= n
	return c.stageBatch(lo, batchSeq, sessID, payload)
}

// stageBatch appends the slab's events[lo:] to the journal as one batch,
// under payload — its wire bytes, valid until the run ends — and stages
// it. Nothing is committed, submitted or acknowledged here; that is
// flush.
func (c *binaryConn) stageBatch(lo int, batchSeq, sessID uint64, payload []byte) error {
	b := stagedBatch{lo: lo, hi: len(c.events), batchSeq: batchSeq}
	if j := c.s.cfg.Journal; j != nil {
		var err error
		b.seq, err = j.Append(sessID, batchSeq, b.hi-lo, maxTS(c.events[lo:]), payload)
		switch {
		case err == nil:
			b.journaled = true
		case errors.Is(err, ErrJournalDegraded):
			b.degraded = true
		default:
			return journalFault{err}
		}
	}
	c.staged = append(c.staged, b)
	return nil
}

// sequence judges one sequenced batch against the session watermark. It
// reports true when the batch continues the session and must be staged.
// A retransmit at or below the watermark is acknowledged without
// re-delivery (false, nil); a gap is a protocol error (false, err).
//
// The first call of a run takes sess.mu, and flush releases it after
// the last watermark advance: dedup check, journal, submit and advance
// stay one critical section per session, so a retransmit racing its
// original on another connection of the same session can never be
// applied twice.
func (c *binaryConn) sequence(batchSeq, n uint64) (bool, error) {
	if !c.locked {
		c.lockSession()
	}
	if batchSeq == c.next {
		c.next++
		return true, nil
	}
	// Off the contiguous path. Settle what is staged first, so the
	// verdict is taken against the advanced watermark and its reply
	// lands behind the staged batches' acks.
	if len(c.staged) > 0 {
		if err := c.flush(); err != nil {
			return false, err
		}
		c.lockSession()
	}
	sess := c.sess
	switch {
	case batchSeq <= sess.applied:
		applied := sess.applied
		c.unlockSession()
		c.s.dedups.Add(1)
		c.ack(n, applied, c.s.degraded())
		return false, nil
	case batchSeq != sess.applied+1:
		// A fresh session — nothing applied this lifetime, no
		// recovered watermark — may start above 1: that is a
		// producer resuming after a clean restart released its
		// journal (every earlier batch was acked as durable
		// and absorbed, so nothing is lost by adopting the
		// sequence; see docs/wire.md, delivery semantics). A
		// gap on any other session is a protocol error.
		if sess.applied != 0 || sess.seeded {
			applied := sess.applied
			c.unlockSession()
			return false, fmt.Errorf("transport: batch %d skips applied watermark %d", batchSeq, applied)
		}
		c.s.logf("transport: %s: session %d resumes at batch %d", c.conn.RemoteAddr(), c.sessID, batchSeq)
	}
	c.next = batchSeq + 1
	return true, nil
}

func (c *binaryConn) lockSession() {
	c.sess.mu.Lock()
	c.locked = true
	c.next = c.sess.applied + 1
}

func (c *binaryConn) unlockSession() {
	c.locked = false
	c.sess.mu.Unlock()
}

// flush settles the staged batches in stream order: commit each batch,
// submit the committed prefix to the sink in one call, then per batch
// advance the session watermark and append its ack. A batch is
// submitted and acknowledged iff its own Commit returned nil — or the
// journal degraded (Append or Commit returned ErrJournalDegraded): then
// it is accepted without durability, the watermark advances in memory
// only, and the ack says so with FlagDegraded. Any other journal error
// stops the run there: that batch and every later one is neither
// submitted nor acknowledged, and the connection drops (journalFault) once
// the acks of the batches before it are out — the producer redials and
// retransmits, and the dedup watermark keeps delivery effectively-once.
//
// The staged batches lie back to back in the slab: a decode that is not
// staged adds no events (an empty plain frame), settles the staged
// batches first (a retransmit, in sequence) or ends the connection (gap,
// over-credit, events after EOF, journal fault), so the committed prefix
// is one slice.
func (c *binaryConn) flush() error {
	s := c.s
	var failed error
	ok := len(c.staged)
	for i := range c.staged {
		b := &c.staged[i]
		if b.journaled {
			if err := s.cfg.Journal.Commit(b.seq); errors.Is(err, ErrJournalDegraded) {
				b.degraded = true
			} else if err != nil {
				ok, failed = i, err
				break
			}
		}
	}
	if ok > 0 {
		if run := c.events[c.staged[0].lo:c.staged[ok-1].hi]; len(run) > 0 {
			s.submitBatch(c.ten, run)
		}
	}
	var total uint64
	for _, b := range c.staged[:ok] {
		n := uint64(b.hi - b.lo)
		if b.degraded {
			s.noteJournal(true)
			s.lostDurable.Add(n)
		} else if b.journaled {
			s.noteJournal(false)
		}
		if b.batchSeq != 0 {
			c.sess.applied = b.batchSeq
			c.sess.accepted += n
		}
		c.ack(n, b.batchSeq, b.degraded)
		total += n
	}
	c.staged = c.staged[:0]
	if c.locked {
		c.unlockSession()
	}
	c.credit += total
	c.accepted += total
	c.charge += total
	if c.ndjson {
		s.evNDJSON.Add(total)
	} else {
		s.evBinary.Add(total)
	}
	if c.ten != nil {
		c.ten.events.Add(total)
	}
	if failed != nil {
		return journalFault{failed}
	}
	return nil
}

// ack appends one batch's reply to the reply buffer. On a binary
// connection that is a credit grant of n events; a non-zero applied
// (batch sequences start at 1) makes it a durable session's ack of every
// batch through that watermark. NDJSON has no credit: a batch is
// answered only when it changes what the producer was last told about
// durability, by a status line.
func (c *binaryConn) ack(n, applied uint64, degraded bool) {
	if c.ndjson {
		if degraded != c.degraded {
			c.degraded = degraded
			status := "durable"
			if degraded {
				status = "degraded"
			}
			c.out = fmt.Appendf(c.out, "{\"status\":%q}\n", status)
		}
		return
	}
	switch {
	case applied != 0 && degraded:
		c.out = AppendCreditAckFlagsFrame(c.out, n, applied, FlagDegraded)
	case applied != 0:
		c.out = AppendCreditAckFrame(c.out, n, applied)
	case degraded:
		c.out = AppendCreditFlagsFrame(c.out, n, FlagDegraded)
	default:
		c.out = AppendCreditFrame(c.out, n)
	}
}

// send charges the tenant's token bucket for what the run applied — a
// deduplicated retransmit was paid for when its original was accepted —
// and writes the run's replies. Both happen strictly outside sess.mu:
// the throttle delays only the grant-back (the producer's next window),
// never the session's other connections.
func (c *binaryConn) send() error {
	c.s.throttle(c.ten, int(c.charge))
	c.charge = 0
	if len(c.out) == 0 {
		return nil
	}
	err := c.s.write(c.conn, c.out)
	c.out = c.out[:0]
	if err != nil {
		return errDropped
	}
	return nil
}
