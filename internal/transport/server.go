package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
)

// Sink absorbs ingested event batches in connection order. A binary
// connection's call carries the committed batches of one run (every
// frame that arrived with one read), back to back in stream order, so
// call boundaries are not frame boundaries: a wrapper that stamps or
// counts per call measures runs, not frames, even at a paced rate,
// where a producer's frames still arrive in bursts. Both
// runtime.Pipeline and engine.Engine satisfy it; SubmitBatch must be
// done with the slice by the time it returns (both are — the serial
// pipeline copies it, the sharded pipeline partitions it straight into
// the shard queues on the calling goroutine) and may block — that block
// is exactly the backpressure the credit protocol propagates to clients.
type Sink interface {
	SubmitBatch(events []event.Event)
}

// TenantSink is the optional Sink extension a tenant-aware sink
// implements: when the server resolved a connection to a named tenant
// (see ServerConfig.Authenticate) and the sink satisfies TenantSink,
// accepted batches are submitted with their tenant identity so the
// sink can scope delivery and shedding per tenant. engine.Engine
// implements it. Batches from the anonymous tenant (and all batches
// when tenancy is disabled) go through plain SubmitBatch.
type TenantSink interface {
	Sink
	SubmitTenantBatch(tenant string, events []event.Event)
}

// Journal is the optional durability hook in front of the sink: when
// configured, every accepted event batch is appended (as its
// already-encoded wire bytes) and committed — fsynced — before it is
// submitted to the sink or acknowledged to the producer. A non-nil
// Commit error means the batch is NOT durable; the server then drops
// the connection without acking, so producers retransmit after the
// restart and the write-ahead log replays everything it did accept.
// internal/wal.Log satisfies the contract via a thin adapter in
// cmd/espice-serve (the count/maxTS metadata feeds its release policy).
type Journal interface {
	// Append stages the batch's wire bytes together with its dedup
	// identity (session, batchSeq — both zero for non-durable
	// connections) and returns the assigned journal sequence.
	Append(session, batchSeq uint64, count int, maxTS event.Time, payload []byte) (uint64, error)
	// Commit blocks until the record is on stable storage.
	Commit(seq uint64) error
}

// ErrJournalDegraded is the sentinel a Journal returns (possibly
// wrapped) when it has degraded to lossy instead of failing outright —
// the WAL adapter maps wal.ErrDegraded to it. A degraded journal result
// does NOT drop the connection: the server submits the batch to the
// sink anyway, advances the session watermark in memory only, and acks
// it with FlagDegraded set, making the loss of durability explicit
// at-most-once rather than a silent stall. Any other journal error
// still drops the connection unacknowledged (fail-stop).
var ErrJournalDegraded = errors.New("transport: journal degraded (lossy)")

// JournalHealth is an optional Journal extension: a journal that can
// report its live degraded state lets the server close a degraded
// episode as soon as the journal is restored, even when no batch
// arrives to observe the healthy result — otherwise the degraded bit
// (and its stats) would go stale on an idle connection until the next
// journaled batch.
type JournalHealth interface {
	Degraded() bool
}

// SessionState seeds one durable session's dedup watermark, typically
// from a write-ahead-log recovery (see Server.SeedSessions).
type SessionState struct {
	// Applied is the highest batch sequence applied for the session.
	Applied uint64
	// Accepted is the session's cumulative accepted event count.
	Accepted uint64
}

// ServerConfig assembles an ingest server.
type ServerConfig struct {
	// Sink receives every accepted event (required).
	Sink Sink
	// Journal, when non-nil, makes ingestion durable: batches are
	// journaled and committed before they are submitted or acked.
	Journal Journal
	// Registry bounds the acceptable binary type ids and resolves NDJSON
	// type names. Nil disables both (any non-negative id passes).
	Registry *event.Registry
	// Window is the per-connection credit window in events: the maximum
	// number of events a binary client may have sent beyond what the
	// sink has absorbed. Default DefaultWindow.
	Window int
	// MaxFrame bounds a single frame's payload bytes
	// (DefaultMaxFrame when zero).
	MaxFrame int
	// MaxVals bounds the per-event attribute count
	// (DefaultMaxVals when zero).
	MaxVals int
	// IdleTimeout evicts connections that produce no bytes for this
	// long: every read carries a deadline, so a stalled or half-dead
	// peer can never pin a handler goroutine (and its buffers) forever.
	// Zero disables the idle guard.
	IdleTimeout time.Duration
	// WriteTimeout bounds every write to a connection; a peer that
	// stops reading its credit/ack stream is dropped instead of
	// wedging the handler in a full TCP send buffer. Zero disables it.
	WriteTimeout time.Duration
	// StatsJSON, when non-nil, answers FrameStatsReq with its result —
	// the hook espice-serve uses to expose pipeline/shedder statistics
	// to load generators. Called from connection goroutines; must be
	// safe for concurrent use.
	StatsJSON func() []byte
	// Authenticate, when non-nil, enables multi-tenancy: it maps a
	// presented tenant token to a tenant identity and quota (see
	// TenantAuth). Connections that present no token — every version-1
	// binary connection, and NDJSON connections without a token line —
	// are authenticated with a nil token, so the callback owns the
	// anonymous-tenant policy too. An error rejects the connection with
	// FrameError. Called from connection goroutines; must be safe for
	// concurrent use. Nil disables tenancy entirely.
	Authenticate func(token []byte) (TenantAuth, error)
	// SessionExpiryFloor is the minimum idle time below which
	// ExpireSessions refuses to expire a durable session, whatever idle
	// period the caller passes. A producer mid-redial has conns == 0
	// while it backs off; expiring its session in that window would
	// drop the dedup watermark and double-accept the retransmit, so the
	// floor must sit comfortably above the client redial horizon
	// (MaxRedials × MaxBackoff). Zero means DefaultSessionExpiryFloor;
	// negative disables the floor (tests only).
	SessionExpiryFloor time.Duration
	// Logf logs connection-level events (nil silences them).
	Logf func(format string, args ...any)
}

// DefaultWindow is the per-connection credit window in events.
const DefaultWindow = 8192

// DefaultSessionExpiryFloor is the default minimum idle time before a
// durable session may expire (see ServerConfig.SessionExpiryFloor):
// comfortably above the default client redial horizon of 5 attempts
// backed off to 2s each.
const DefaultSessionExpiryFloor = 30 * time.Second

// maxSessionTombstones bounds the expired-session watermark cache (see
// ExpireSessions); the oldest tombstones are evicted FIFO past it.
const maxSessionTombstones = 8192

// ServerStats is a snapshot of server counters.
type ServerStats struct {
	// ConnsAccepted counts every accepted connection; ConnsActive the
	// currently open ones.
	ConnsAccepted uint64
	ConnsActive   int
	// Events counts accepted events, split by framing.
	EventsBinary uint64
	EventsNDJSON uint64
	// Frames counts parsed binary frames of every type.
	Frames uint64
	// ProtocolErrors counts connections dropped for malformed input.
	ProtocolErrors uint64
	// DedupBatches counts durable batches acknowledged without
	// re-delivery because their sequence was at or below the session's
	// applied watermark (producer retransmits after a crash or redial).
	DedupBatches uint64
	// Sessions counts the durable sessions currently tracked (seen and
	// not expired).
	Sessions int
	// Connection error taxonomy: IdleEvictions counts connections
	// dropped by the IdleTimeout read guard, WriteTimeouts those
	// dropped by the WriteTimeout guard, ReadErrors other non-clean
	// read failures (resets, aborted connections), and PanicsRecovered
	// handler panics contained by the per-connection recovery guard.
	IdleEvictions   uint64
	WriteTimeouts   uint64
	ReadErrors      uint64
	PanicsRecovered uint64
	// Degraded reports that the journal is currently refusing
	// durability and the server is acking at-most-once (see
	// ErrJournalDegraded); DegradedSince is when the current episode
	// began (zero when healthy). LostDurability counts events accepted
	// and acknowledged without a durable journal record — the explicit
	// price of degrade-to-lossy, visible instead of silent.
	Degraded       bool
	DegradedSince  time.Time
	LostDurability uint64
	// DegradedFor is the cumulative time spent degraded over the server
	// lifetime, current episode included.
	DegradedFor time.Duration
	// AuthFailures counts connections rejected because their tenant
	// token did not authenticate (only with ServerConfig.Authenticate).
	AuthFailures uint64
	// Tenants holds one entry per tenant seen since start, sorted by
	// name; empty when tenancy is disabled.
	Tenants []TenantStats
}

// Server is a TCP ingest server; build it with NewServer and drive it
// with Serve.
type Server struct {
	cfg ServerConfig

	accepted  atomic.Uint64
	evBinary  atomic.Uint64
	evNDJSON  atomic.Uint64
	frames    atomic.Uint64
	protoErrs atomic.Uint64
	dedups    atomic.Uint64
	activeCt  atomic.Int64

	idleEvicts    atomic.Uint64
	writeTimeouts atomic.Uint64
	readErrs      atomic.Uint64
	panics        atomic.Uint64
	lostDurable   atomic.Uint64
	degradedNanos atomic.Int64 // UnixNano of the degrade transition; 0 = healthy
	degradedTotal atomic.Int64 // nanoseconds spent degraded in closed episodes
	shutdownAt    atomic.Int64 // UnixNano of the Shutdown drain deadline; 0 = none

	// sessions maps durable session ids to their state; entries are
	// created on FrameHello or seeded from recovery and outlive their
	// connections (that is the point). They live for the server
	// lifetime unless the application prunes quiet ones with
	// ExpireSessions. tombs keeps the watermarks of expired sessions
	// (bounded FIFO, tombOrder is the eviction queue) so a producer
	// rebinding after an expiry re-seeds its dedup watermark instead of
	// double-accepting the retransmitted tail.
	sessMu    sync.Mutex
	sessions  map[uint64]*session
	tombs     map[uint64]SessionState
	tombOrder []uint64

	// tenants maps tenant identities to their quota/accounting state
	// (only populated when ServerConfig.Authenticate is set).
	tenMu     sync.Mutex
	tenants   map[string]*tenantState
	authFails atomic.Uint64

	mu        sync.Mutex
	ln        net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	serving   bool // a Serve call took ownership and will close serveDone
	serveDone chan struct{}
}

// session is one durable session's server-side state. Its mutex
// serializes the dedup-check → journal → submit → advance sequence, so
// a retransmitted batch racing its original (two connections of the
// same session) can never be applied twice.
type session struct {
	mu       sync.Mutex
	applied  uint64 // highest batch sequence applied
	accepted uint64 // cumulative accepted events
	// seeded marks a watermark installed by SeedSessions (WAL
	// recovery): a seeded session must stay contiguous, while a fresh
	// one may resume above batch 1 (see the FrameEventsSeq handler).
	seeded bool
	// conns counts the connections currently bound to the session and
	// idleSince records when it last dropped to zero; both are guarded
	// by Server.sessMu and drive ExpireSessions.
	conns     int
	idleSince time.Time
}

// NewServer validates the configuration and builds a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Sink == nil {
		return nil, fmt.Errorf("transport: ServerConfig.Sink is required")
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("transport: Window must be >= 0, got %d", cfg.Window)
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	return &Server{
		cfg:       cfg,
		conns:     make(map[net.Conn]struct{}),
		sessions:  make(map[uint64]*session),
		tombs:     make(map[uint64]SessionState),
		tenants:   make(map[string]*tenantState),
		serveDone: make(chan struct{}),
	}, nil
}

// SeedSessions installs recovered dedup watermarks, one per durable
// session replayed from the write-ahead log. Call it before Serve:
// producers reconnecting after a restart then have their already-
// journaled batches acknowledged instead of re-delivered.
func (s *Server) SeedSessions(states map[uint64]SessionState) {
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	for id, st := range states {
		s.sessions[id] = &session{applied: st.Applied, accepted: st.Accepted, seeded: true, idleSince: now}
	}
}

// bindSession returns (creating if needed) the state of one durable
// session and binds the calling connection to it; a bound session is
// never expired. A session rebinding after ExpireSessions dropped it
// re-seeds its dedup watermark from the expiry tombstone, so the
// producer's retransmitted tail is deduplicated, not double-accepted.
// Pair with unbindSession when the connection ends.
func (s *Server) bindSession(id uint64) *session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		sess = &session{}
		if st, ok := s.tombs[id]; ok {
			delete(s.tombs, id) // its tombOrder entry is skipped at eviction
			sess.applied = st.Applied
			sess.accepted = st.Accepted
			sess.seeded = true
		}
		s.sessions[id] = sess
	}
	sess.conns++
	return sess
}

// unbindSession releases one connection's binding, starting the
// session's idle clock when it was the last.
func (s *Server) unbindSession(sess *session) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if sess.conns--; sess.conns == 0 {
		sess.idleSince = time.Now()
	}
}

// ExpireSessions drops every durable session that has had no bound
// connection for at least idle, returning the expired ids, and bounds
// the session table under producer churn. The effective idle period is
// clamped up to ServerConfig.SessionExpiryFloor: a producer mid-redial
// has conns == 0 for exactly its backoff window, and expiring it there
// would discard the dedup watermark its retransmit depends on. Each
// expired session also leaves a bounded watermark tombstone behind, so
// even a session that does expire and later rebinds resumes dedup from
// where it left off (see bindSession); only a tombstone evicted under
// churn falls back to the fresh-session path, where the producer's
// next batch is adopted as the new watermark base. The ids are
// returned so the caller can drop derived state too (espice-serve
// unpins the sessions' newest WAL records, see -session-expiry).
func (s *Server) ExpireSessions(idle time.Duration) []uint64 {
	floor := s.cfg.SessionExpiryFloor
	if floor == 0 {
		floor = DefaultSessionExpiryFloor
	}
	if floor > 0 && idle < floor {
		idle = floor
	}
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	var expired []uint64
	for id, sess := range s.sessions {
		if sess.conns == 0 && now.Sub(sess.idleSince) >= idle {
			delete(s.sessions, id)
			sess.mu.Lock()
			st := SessionState{Applied: sess.applied, Accepted: sess.accepted}
			sess.mu.Unlock()
			s.entombLocked(id, st)
			expired = append(expired, id)
		}
	}
	return expired
}

// entombLocked records an expired session's watermark in the bounded
// tombstone cache; sessMu must be held.
func (s *Server) entombLocked(id uint64, st SessionState) {
	if _, ok := s.tombs[id]; !ok {
		s.tombOrder = append(s.tombOrder, id)
	}
	s.tombs[id] = st
	for len(s.tombs) > maxSessionTombstones && len(s.tombOrder) > 0 {
		victim := s.tombOrder[0]
		s.tombOrder = s.tombOrder[1:]
		delete(s.tombs, victim) // no-op for entries revived by bindSession
	}
}

// SessionStates snapshots every durable session's watermark.
func (s *Server) SessionStates() map[uint64]SessionState {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	out := make(map[uint64]SessionState, len(s.sessions))
	for id, sess := range s.sessions {
		sess.mu.Lock()
		out[id] = SessionState{Applied: sess.applied, Accepted: sess.accepted}
		sess.mu.Unlock()
	}
	return out
}

// logf forwards to the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// degraded reports whether the journal is currently in a degraded
// (lossy) episode. When the journal exposes its live health, a restored
// journal closes the episode here — so the degraded view cannot go
// stale while no batches arrive.
func (s *Server) degraded() bool {
	if s.degradedNanos.Load() == 0 {
		return false
	}
	if jh, ok := s.cfg.Journal.(JournalHealth); ok && !jh.Degraded() {
		s.noteJournal(false)
		return false
	}
	return true
}

// noteJournal tracks degrade/restore transitions from journal results:
// a degraded result opens an episode, a healthy result closes it.
func (s *Server) noteJournal(degraded bool) {
	if degraded {
		if s.degradedNanos.CompareAndSwap(0, time.Now().UnixNano()) {
			s.logf("transport: journal degraded; acking at-most-once")
		}
		return
	}
	if since := s.degradedNanos.Swap(0); since != 0 {
		episode := time.Since(time.Unix(0, since))
		s.degradedTotal.Add(int64(episode))
		s.logf("transport: journal restored after %v of degraded delivery",
			episode.Round(time.Millisecond))
	}
}

// capDeadline bounds a per-operation deadline by the Shutdown drain
// deadline, so a handler re-arming its timeouts cannot outlive a
// bounded shutdown. A zero d (no per-op timeout configured) still
// yields the drain deadline once one is set.
func (s *Server) capDeadline(d time.Time) time.Time {
	if at := s.shutdownAt.Load(); at != 0 {
		if sd := time.Unix(0, at); d.IsZero() || sd.Before(d) {
			return sd
		}
	}
	return d
}

// write sends one buffer under the configured write deadline, counting
// deadline expiries in the taxonomy. All handler writes go through it:
// binary replies, protocol-error frames and NDJSON reply lines.
func (s *Server) write(conn net.Conn, p []byte) error {
	var d time.Time
	if s.cfg.WriteTimeout > 0 {
		d = time.Now().Add(s.cfg.WriteTimeout)
	}
	if d = s.capDeadline(d); !d.IsZero() {
		_ = conn.SetWriteDeadline(d)
	}
	_, err := conn.Write(p)
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		s.writeTimeouts.Add(1)
		s.logf("transport: %s: write timed out; dropping connection", conn.RemoteAddr())
	}
	return err
}

// armIdle arms the idle read deadline before a blocking read.
func (s *Server) armIdle(conn net.Conn) {
	var d time.Time
	if s.cfg.IdleTimeout > 0 {
		d = time.Now().Add(s.cfg.IdleTimeout)
	}
	if d = s.capDeadline(d); !d.IsZero() {
		_ = conn.SetReadDeadline(d)
	}
}

// noteReadErr classifies a read-loop failure into the error taxonomy
// (nil, clean EOFs and locally closed connections are not errors).
func (s *Server) noteReadErr(conn net.Conn, err error) {
	switch {
	case err == nil, errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
	case errors.Is(err, os.ErrDeadlineExceeded):
		s.idleEvicts.Add(1)
		s.logf("transport: %s: idle for %v; evicting", conn.RemoteAddr(), s.cfg.IdleTimeout)
	default:
		s.readErrs.Add(1)
		s.logf("transport: %s: read: %v", conn.RemoteAddr(), err)
	}
}

// Serve accepts connections on ln until Close (or a fatal listener
// error) and blocks until every connection handler has returned. The
// listener is closed on return.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("transport: server closed")
	}
	if s.serving {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("transport: Serve called twice")
	}
	s.ln = ln
	s.serving = true
	s.mu.Unlock()

	var wg sync.WaitGroup
	defer close(s.serveDone)
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.accepted.Add(1)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			wg.Wait()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.activeCt.Add(1)
			var rerr error
			defer func() {
				// One publication step, in the order observers rely on:
				// whoever sees the eviction counted — or, later still,
				// the socket closed — already sees the connection gone
				// from ConnsActive.
				s.activeCt.Add(-1)
				s.noteReadErr(conn, rerr)
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			// A panic in a handler (a poisoned frame tripping a decode
			// bug, a sink misbehaving) costs this connection, not the
			// server: the process keeps accepting.
			defer func() {
				if r := recover(); r != nil {
					s.panics.Add(1)
					s.logf("transport: %s: handler panic (contained): %v", conn.RemoteAddr(), r)
				}
			}()
			rerr = s.handle(conn)
		}()
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every open connection and waits for
// Serve to return. Events already decoded are still submitted before
// their handlers exit; close the sink's input only after Close returns.
// Idempotent, and safe before Serve was ever called: the wait applies
// only when a Serve call owns the serveDone channel and will close it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		serving := s.serving
		s.mu.Unlock()
		if serving {
			<-s.serveDone
		}
		return nil
	}
	s.closed = true
	ln := s.ln
	serving := s.serving
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	if serving {
		<-s.serveDone
	}
	return err
}

// Shutdown is the bounded, graceful variant of Close: it stops
// accepting immediately, then gives every open connection until the
// timeout to finish its stream naturally — each gets one final
// read/write deadline, so a handler either drains to EOF or has its
// next wire operation fail at the deadline. It blocks until every
// handler has returned (at most ~timeout). In-flight batches are still
// journaled and submitted as usual; only peers that keep streaming past
// the deadline are cut off. Idempotent with Close; zero or negative
// timeout degrades to Close.
func (s *Server) Shutdown(timeout time.Duration) error {
	if timeout <= 0 {
		return s.Close()
	}
	s.mu.Lock()
	if s.closed {
		serving := s.serving
		s.mu.Unlock()
		if serving {
			<-s.serveDone
		}
		return nil
	}
	s.closed = true
	ln := s.ln
	serving := s.serving
	deadline := time.Now().Add(timeout)
	s.shutdownAt.Store(deadline.UnixNano()) // caps all re-armed deadlines too
	for c := range s.conns {
		_ = c.SetDeadline(deadline)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	if serving {
		<-s.serveDone
	}
	return err
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	s.sessMu.Lock()
	sessions := len(s.sessions)
	s.sessMu.Unlock()
	st := ServerStats{
		ConnsAccepted:   s.accepted.Load(),
		EventsBinary:    s.evBinary.Load(),
		EventsNDJSON:    s.evNDJSON.Load(),
		Frames:          s.frames.Load(),
		ProtocolErrors:  s.protoErrs.Load(),
		DedupBatches:    s.dedups.Load(),
		Sessions:        sessions,
		IdleEvictions:   s.idleEvicts.Load(),
		WriteTimeouts:   s.writeTimeouts.Load(),
		ReadErrors:      s.readErrs.Load(),
		PanicsRecovered: s.panics.Load(),
		LostDurability:  s.lostDurable.Load(),
	}
	// Read after the error taxonomy: a connection leaves the active
	// count before its eviction or read error is published, so one
	// snapshot never shows both the eviction and the evicted connection.
	st.ConnsActive = int(s.activeCt.Load())
	_ = s.degraded() // reconcile a stale episode against the live journal health
	st.DegradedFor = time.Duration(s.degradedTotal.Load())
	if since := s.degradedNanos.Load(); since != 0 {
		st.Degraded = true
		st.DegradedSince = time.Unix(0, since)
		st.DegradedFor += time.Since(st.DegradedSince)
	}
	st.AuthFailures = s.authFails.Load()
	if s.cfg.Authenticate != nil {
		st.Tenants = s.tenantStats()
	}
	return st
}

// handle serves one connection: sniff the framing from the first byte,
// then run the matching read loop until EOF or error. It returns the
// read failure that ended the connection, if any; the caller publishes
// it (see noteReadErr) together with the connection's departure.
func (s *Server) handle(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, 32<<10)
	s.armIdle(conn)
	first, err := br.Peek(1)
	if err != nil {
		return err // closed before the first byte; nothing to do
	}
	c := &binaryConn{s: s, conn: conn, ndjson: first[0] != Magic}
	defer c.release()
	if c.ndjson {
		return c.serveNDJSON(br)
	}
	return c.serveBinary(br)
}

// runReadSize is the binary handler's read size and so the byte bound of
// one run. At 32 KiB a run holds four 256-event frames and a journaled
// connection spends as long in fsync as in its own decode and submit;
// at 64 KiB the fsync is amortised over twice the frames (wire_durable:
// 1.6 → 2.5 M events/s), and larger reads bought nothing more.
const runReadSize = 64 << 10

// serveBinary runs the framed read loop. Its unit of work is the run:
// every complete frame already in the scanner after one Read, never a
// frame the handler would have to wait for. A run moves through ordered
// stages (binaryConn, run.go): per frame, scan → decode into the run's
// event slab → credit check → session dedup/gap check → Journal.Append;
// then Journal.Commit of each staged batch, in stream order → one submit
// of the committed prefix to the sink → per batch, advance the session
// watermark and append the credit/ack frame to the run's reply buffer;
// then one tenant-throttle charge and one conn.Write for the whole run.
// The first Commit of a run syncs everything the run staged, so under
// load one fsync, one sink call and one write cover every frame the
// producer sent during the previous fsync, while a lone paced frame is a
// run of one.
//
// Credit accounting: the client starts with Window events of credit;
// every events frame spends its event count at parse time (overspending
// is a protocol error, which makes the window a hard bound on what a
// run can stage); after the run carrying the batch has been submitted
// to the sink —
// which blocks while the pipeline's bounded queue is full — the same
// amount is granted back. Decode, submit and credit writes all happen on
// this one goroutine, so a connection never buffers more than the
// window plus one read.
//
// A version-1 connection is granted its window immediately after the
// preface and runs as the anonymous tenant. A version-2 connection
// (ProtocolVersionTenant) must open with FrameHello carrying its
// tenant token; the window — carved from the tenant's aggregate credit
// pool — is granted only after authentication, and grant-backs are
// throttled by the tenant's token bucket.
//
// It returns the read failure that ended the loop (nil when the
// connection ended for any other reason), for the caller to classify.
func (c *binaryConn) serveBinary(br *bufio.Reader) error {
	s := c.s
	var preface [2]byte
	if _, err := io.ReadFull(br, preface[:]); err != nil {
		return nil
	}
	if preface[1] != ProtocolVersion && preface[1] != ProtocolVersionTenant {
		c.drop(fmt.Errorf("transport: protocol version %d not supported", preface[1]))
		return nil
	}
	c.tenantMode = preface[1] == ProtocolVersionTenant
	c.dec = Decoder{Retain: true, MaxVals: s.cfg.MaxVals, MaxBatch: s.cfg.Window}
	if s.cfg.Registry != nil {
		c.dec.MaxTypes = s.cfg.Registry.Len()
	}
	if !c.tenantMode {
		if err := c.admit(nil); err != nil {
			c.drop(err)
			return nil
		}
		c.out = AppendCreditFrame(c.out, c.credit)
		if c.send() != nil {
			return nil
		}
	}
	scan := newFrameScanner(s.cfg.MaxFrame)
	read := make([]byte, runReadSize)
	for {
		s.armIdle(c.conn)
		n, rerr := br.Read(read)
		if n > 0 {
			scan.Feed(read[:n])
			if err := c.run(scan); err != nil {
				c.drop(err)
				return nil
			}
		}
		if rerr != nil {
			return rerr
		}
	}
}

// submitBatch forwards one accepted batch to the sink, carrying the
// tenant identity when the connection resolved to a named tenant and
// the sink is tenant-aware (see TenantSink).
func (s *Server) submitBatch(ten *tenantState, events []event.Event) {
	if ten != nil && ten.name != "" {
		if tsink, ok := s.cfg.Sink.(TenantSink); ok {
			tsink.SubmitTenantBatch(ten.name, events)
			return
		}
	}
	s.cfg.Sink.SubmitBatch(events)
}

// maxTS returns the newest timestamp of a batch — the journal record's
// release-policy metadata.
func maxTS(events []event.Event) event.Time {
	var ts event.Time
	for i := range events {
		if events[i].TS > ts {
			ts = events[i].TS
		}
	}
	return ts
}
