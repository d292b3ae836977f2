package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/operator"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/wal"
)

// maxConns bounds the producer connections of one workload.
const maxConns = 2

// side is whatever absorbs accepted batches behind the server: a bare
// runtime.Pipeline or an engine.Engine with its registered queries.
type side interface {
	transport.Sink
	// run drives the side until its input closes; the error arrives on
	// the returned channel.
	run(ctx context.Context) <-chan error
	outputs() []output
	// drained reports whether every one of the sent events has been
	// processed (not merely queued).
	drained(sent uint64) bool
	closeInput()
	// counters sums the operator counters over every pipeline, and
	// returns how many pipeline-level events a full drain must show.
	counters() (st operator.Stats, expectProcessed uint64)
	// primary is the pipeline whose queue and latency trace the traced
	// run samples.
	primary() *runtime.Pipeline
}

// output is one complex-event channel together with what is needed to
// recompute it: the query, the connection whose stream feeds it and the
// admission filter in front of it.
type output struct {
	name    string
	conn    int
	query   queries.Query
	accepts func(event.Type) bool
	ch      <-chan operator.ComplexEvent
}

// ledger is the order-independent fingerprint of a set of events.
type ledger struct{ count, sum, xor uint64 }

func (l *ledger) add(events []event.Event) {
	for i := range events {
		l.sum += events[i].Seq
		l.xor ^= events[i].Seq
	}
	l.count += uint64(len(events))
}

func (l *ledger) merge(o ledger) {
	l.count += o.count
	l.sum += o.sum
	l.xor ^= o.xor
}

// legConfig assembles one loopback stack.
type legConfig struct {
	tiles   []*tile  // one per connection
	tokens  []string // tenant token per connection ("" = anonymous)
	batch   int
	window  int  // server credit window, 0 = transport default
	session bool // durable sessions (FrameEventsSeq, dedup, acks)
	journal bool // wal.Log with real fsync in front of the sink
	newSide func() (side, error)
	// keep makes the collectors retain every complex event (the shedding
	// leg compares sets); otherwise they fold them into a digest.
	keep bool
}

// pacing is the schedule of the running paced phase, published to the
// sink wrapper and the collectors so they can time work from the moment
// its batch was due.
type pacing struct {
	start    int64 // ns since epoch of batch 0
	interval float64
	conns    int
	batch    int
}

// due returns when batch j of connection conn was due.
func (p *pacing) due(conn int, j uint64) int64 {
	return p.start + int64(float64(j*uint64(p.conns)+uint64(conn))*p.interval)
}

// stack is one running loopback deployment: clients, server, optional
// journal, side and one collector per output channel.
type stack struct {
	cfg    legConfig
	srv    *transport.Server
	served chan error
	side   side
	sink   *sinkWrap
	jrn    *journalWrap
	walDir string

	cancel   context.CancelFunc
	sideDone chan struct{} // closed once the side's run returned
	sideErr  error

	prods      []*producer
	collectors []*collector
	collWG     sync.WaitGroup

	paced  atomic.Pointer[pacing]
	tr     *tracer
	closed bool
}

// producer owns one client connection and its position in the stream.
type producer struct {
	conn  int
	tile  *tile
	cl    *transport.Client
	buf   []event.Event
	next  uint64
	sent  ledger
	stats transport.ClientStats
}

// send submits the next full batch; the client flushes it as one frame
// because the batch is exactly its BatchEvents.
func (p *producer) send(tr *tracer) error {
	p.tile.fill(p.buf, p.conn, p.next)
	var t0 int64
	if tr.on.Load() {
		t0 = nowNs()
	}
	if err := p.cl.SubmitBatch(p.buf); err != nil {
		return fmt.Errorf("conn %d: submit: %w", p.conn, err)
	}
	if t0 != 0 {
		tr.conns[p.conn].client.add(t0, nowNs())
	}
	p.next += uint64(len(p.buf))
	p.sent.add(p.buf)
	return nil
}

// startStack builds and starts everything up to (and including) the
// dialed client connections.
func startStack(cfg legConfig, outDir string, tr *tracer) (_ *stack, err error) {
	s := &stack{cfg: cfg, tr: tr}
	defer func() {
		if err != nil {
			s.abort()
		}
	}()
	if s.side, err = cfg.newSide(); err != nil {
		return nil, err
	}
	s.sink = &sinkWrap{inner: s.side, st: s}
	s.sink.tenant, _ = s.side.(transport.TenantSink)

	scfg := transport.ServerConfig{Sink: s.sink, Registry: cfg.tiles[0].meta.Registry, Window: cfg.window}
	if cfg.journal {
		if s.walDir, err = os.MkdirTemp(outDir, "wal-"); err != nil {
			return nil, err
		}
		log, err := openLog(s.walDir, nil)
		if err != nil {
			return nil, err
		}
		s.jrn = &journalWrap{log: log, st: s}
		scfg.Journal = s.jrn
	}
	tenants := false
	for _, tok := range cfg.tokens {
		tenants = tenants || tok != ""
	}
	if tenants {
		scfg.Authenticate = func(token []byte) (transport.TenantAuth, error) {
			if len(token) == 0 {
				return transport.TenantAuth{}, fmt.Errorf("token required")
			}
			return transport.TenantAuth{Tenant: string(token)}, nil
		}
	}
	if s.srv, err = transport.NewServer(scfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.sideDone = make(chan struct{})
	ran := s.side.run(ctx)
	go func() {
		s.sideErr = <-ran
		close(s.sideDone)
	}()
	for _, o := range s.side.outputs() {
		c := &collector{out: o, st: s, tile: cfg.tiles[o.conn], digest: fnv.New64a()}
		s.collectors = append(s.collectors, c)
		s.collWG.Add(1)
		go c.run(&s.collWG)
	}

	for i, tl := range cfg.tiles {
		ccfg := transport.ClientConfig{Addr: ln.Addr().String(), BatchEvents: cfg.batch, Token: cfg.tokens[i]}
		if cfg.session {
			ccfg.Session = uint64(100 + i)
		}
		cl, err := transport.Dial(ccfg)
		if err != nil {
			return nil, fmt.Errorf("dial conn %d: %w", i, err)
		}
		s.prods = append(s.prods, &producer{conn: i, tile: tl, cl: cl, buf: make([]event.Event, cfg.batch)})
	}
	return s, nil
}

// openLog opens the write-ahead log in dir and replays it through emit.
func openLog(dir string, emit func(wal.Record) error) (*wal.Log, error) {
	log, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	if emit == nil {
		emit = func(wal.Record) error { return nil }
	}
	if _, err := log.Recover(emit); err != nil {
		log.Close()
		return nil, err
	}
	return log, nil
}

func (s *stack) sent() uint64 {
	var n uint64
	for _, p := range s.prods {
		n += p.sent.count
	}
	return n
}

// waitDrained blocks until every sent event has been accepted by the
// server and processed by the side.
func (s *stack) waitDrained() error {
	sent := s.sent()
	deadline := time.Now().Add(60 * time.Second)
	for s.sink.accepted.Load() != sent || !s.side.drained(sent) {
		if time.Now().After(deadline) {
			return fmt.Errorf("drain timed out: sent %d, accepted %d", sent, s.sink.accepted.Load())
		}
		select {
		case <-s.sideDone:
			return fmt.Errorf("side stopped during drain: %v", s.sideErr)
		default:
		}
		time.Sleep(200 * time.Microsecond)
	}
	// The last complex events trail the processed counter by a channel
	// hop or two; give the collectors a moment to time them.
	time.Sleep(5 * time.Millisecond)
	return nil
}

// finish ends the streams cleanly — EOF handshake, server close, side
// drain — and waits for every goroutine of the stack.
func (s *stack) finish() error {
	s.paced.Store(nil)
	var firstErr error
	for _, p := range s.prods {
		st, err := p.cl.Close()
		p.stats = st
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("conn %d: close: %w", p.conn, err)
		}
	}
	if err := s.stop(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// stop tears the server and the side down; idempotent.
func (s *stack) stop() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	if s.srv != nil {
		s.srv.Close()
		if s.served != nil {
			<-s.served
		}
	}
	if s.sideDone != nil {
		s.side.closeInput()
		<-s.sideDone
		if s.sideErr != nil {
			firstErr = fmt.Errorf("side: %w", s.sideErr)
		}
		s.cancel()
		s.collWG.Wait()
	}
	return firstErr
}

// abort is the error-path teardown: stop everything, drop the journal
// directory. Safe on a half-built stack.
func (s *stack) abort() {
	_ = s.stop()
	for _, p := range s.prods {
		_, _ = p.cl.Close()
	}
	s.dropJournal()
}

// dropJournal closes the log and removes its directory.
func (s *stack) dropJournal() {
	if s.jrn != nil {
		_ = s.jrn.log.Close()
		s.jrn = nil
	}
	if s.walDir != "" {
		_ = os.RemoveAll(s.walDir)
		s.walDir = ""
	}
}

// sinkWrap is the benchmark's wrapper around the side: it keeps the
// accepted-side ledger, stamps when each paced batch was accepted (the
// moment the server writes its ack) and records sink.submit spans when
// tracing.
type sinkWrap struct {
	inner  transport.Sink
	tenant transport.TenantSink
	st     *stack

	accepted atomic.Uint64
	// Per-connection state has one writer, the connection's handler
	// goroutine, and is read only after the stack has drained.
	ledgers [maxConns]ledger
	acks    [maxConns][]int64 // acceptance time of paced batch j
}

func (w *sinkWrap) SubmitBatch(events []event.Event) { w.submit("", events) }

func (w *sinkWrap) SubmitTenantBatch(tenant string, events []event.Event) {
	w.submit(tenant, events)
}

func (w *sinkWrap) submit(tenant string, events []event.Event) {
	conn := int(events[0].Seq >> connShift)
	w.ledgers[conn].add(events)
	tracing := w.st.tr.on.Load()
	pc := w.st.paced.Load()
	var t0 int64
	if tracing {
		t0 = nowNs()
	}
	if tenant != "" && w.tenant != nil {
		w.tenant.SubmitTenantBatch(tenant, events)
	} else {
		w.inner.SubmitBatch(events)
	}
	if tracing || pc != nil {
		t1 := nowNs()
		if tracing {
			w.st.tr.conns[conn].sink.add(t0, t1)
		}
		if pc != nil {
			w.acks[conn] = append(w.acks[conn], t1)
		}
	}
	w.accepted.Add(uint64(len(events)))
}

// journalWrap adapts wal.Log to transport.Journal and records the
// wal.append and wal.commit spans. Commit does not see which batch it
// covers; the journaled workload has one connection, so every span
// belongs to connection 0.
type journalWrap struct {
	log *wal.Log
	st  *stack
}

func (j *journalWrap) Append(session, batchSeq uint64, count int, maxTS event.Time, payload []byte) (uint64, error) {
	if !j.st.tr.on.Load() {
		return j.log.Append(session, batchSeq, payload)
	}
	t0 := nowNs()
	seq, err := j.log.Append(session, batchSeq, payload)
	j.st.tr.conns[0].walAppend.add(t0, nowNs())
	return seq, err
}

func (j *journalWrap) Commit(seq uint64) error {
	if !j.st.tr.on.Load() {
		return j.log.Commit(seq)
	}
	t0 := nowNs()
	err := j.log.Commit(seq)
	j.st.tr.conns[0].walCommit.add(t0, nowNs())
	return err
}

// collector drains one output channel. It folds every complex event
// into an order-sensitive digest (or keeps it, on the shedding leg) and,
// while a paced phase runs, times it from the due time of the batch that
// carried the window-closing event.
type collector struct {
	out  output
	st   *stack
	tile *tile

	n      uint64
	digest hash.Hash64
	kept   []operator.ComplexEvent
	latMs  []float64 // detection latency of every paced complex event
	emits  emitLog
}

func (c *collector) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for ce := range c.out.ch {
		recv := nowNs()
		c.n++
		if c.st.cfg.keep {
			c.kept = append(c.kept, ce)
		} else {
			foldCE(c.digest, ce)
		}
		pc := c.st.paced.Load()
		if pc == nil {
			continue
		}
		j := c.tile.indexOf(ce.DetectedAt) / uint64(pc.batch)
		c.latMs = append(c.latMs, float64(recv-pc.due(c.out.conn, j))/1e6)
		if c.st.tr.on.Load() {
			c.emits.batch = append(c.emits.batch, j)
			c.emits.recv = append(c.emits.recv, recv)
		}
	}
}

// foldCE mixes one complex event into the digest: identity, order and
// detection time all count.
func foldCE(h hash.Hash64, ce operator.ComplexEvent) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(ce.WindowID))
	put(ce.WindowOpen)
	put(uint64(ce.DetectedAt))
	h.Write([]byte(ce.Pattern))
	put(uint64(len(ce.Constituents)))
	for _, s := range ce.Constituents {
		put(s)
	}
}
