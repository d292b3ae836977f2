// Package engine is the multi-query deployment layer above the live
// runtime: one ingress stream fans out to N registered queries, each
// backed by its own runtime.Pipeline (optionally sharded), and a single
// global shedding budget coordinates all per-query load shedders.
//
// The engine has no queue of its own: a submitted batch fans out on the
// submitter's goroutine, as a batch, into the query pipelines' input
// queues, so the only backlog is the one in front of an operator — the
// one eSPICE sheds from (Section 3.4).
//
// The eSPICE paper sheds per-operator; real CEP middleware serves many
// queries over the same input stream, and the deployable unit is the
// middleware layer where cross-cutting concerns — admission, filtering,
// overload control — live. The engine adds exactly that layer:
//
//   - Fan-out with per-query type filters. A query only receives the
//     event types its patterns reference (plus everything, for wildcard
//     patterns), so background traffic never costs a query anything.
//     A query's input stream therefore IS the filtered stream: window
//     positions, trained models and ground truths are all defined over
//     it, and running the same filtered stream through a standalone
//     pipeline reproduces the engine's per-query output exactly.
//   - Per-query pipelines. Each registered query owns a runtime.Pipeline
//     with its own bounded queue, optional shards and optional trained
//     eSPICE shedder, and delivers complex events on its own channel.
//   - A global shedding budget. One aggregate overload check (summed
//     backlog against the latency bound, Section 3.4 applied at the
//     engine level) computes the total drop rate needed, and distributes
//     it across queries proportionally to per-window processing cost
//     divided by query weight: cheap high-utility queries shed less,
//     expensive low-utility queries shed more.
//
// Queries can be registered and deregistered while traffic flows;
// remaining queries observe every event exactly once.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/operator"
	"repro/internal/queries"
	"repro/internal/runtime"
)

const (
	// queryQueueCap is every query pipeline's input queue capacity in
	// events; a submit blocks while a query it delivers to is full.
	queryQueueCap = 1 << 14
	// outBuffer is every query's complex-event channel capacity.
	outBuffer = 1024
	// fanoutChunk bounds how many events of one submitted batch a query
	// receives before the next query gets its turn, so a caller that
	// submits a whole stream in one call still interleaves the queries.
	fanoutChunk = 256
)

// Config assembles an engine.
type Config struct {
	// LatencyBound enables the global shedding budget: the end-to-end
	// bound LB that detected complex events must meet across all queries.
	// Zero disables the budget loop (no shedding).
	LatencyBound event.Time
	// F is the queue-fill fraction triggering shedding, as in the
	// per-operator detector (Section 3.4). Default 0.8.
	F float64
	// PollInterval is the budget evaluation period and the per-pipeline
	// estimator period. Default 10ms.
	PollInterval time.Duration
	// RestartCooldown arms the quarantine circuit breaker: a query whose
	// pipeline panicked is re-registered from its original config this
	// long after the quarantine. Zero (the default) disables restarts —
	// a panicked query stays quarantined until re-registered manually.
	RestartCooldown time.Duration
	// MaxRestarts caps circuit-breaker restarts per query name; <= 0
	// means unlimited. Only meaningful with RestartCooldown > 0.
	MaxRestarts int
	// Logf, when non-nil, receives engine lifecycle diagnostics
	// (quarantines, restarts). Printf-style.
	Logf func(format string, args ...any)
	// Tenants pre-installs per-tenant quotas (ingress rate entitlement
	// and budget weight) keyed by tenant name; SetTenantQuota can add or
	// change quotas while the engine runs.
	Tenants map[string]TenantQuota
}

// QueryConfig registers one query with the engine.
type QueryConfig struct {
	// Query supplies the window spec and compiled patterns (required).
	Query queries.Query
	// Name overrides Query.Name as the registration key; names must be
	// unique within one engine.
	Name string
	// Model, when non-nil, installs an eSPICE shedder for the query,
	// driven by the engine's global budget. Train it on the query's
	// filtered stream (see Accepts) so positions agree.
	Model *core.Model
	// Lifecycle, when non-nil, puts the query's model under the online
	// lifecycle (runtime.Config.Lifecycle): the query's pipeline trains
	// the model from its own filtered traffic and swaps retrained models
	// into the shedder without a pause. Model may then be nil — the
	// query registers untrained and starts shedding once the first model
	// is warm; a non-nil Model is the starting point the lifecycle
	// adapts from. Lifecycle.Types defaults to Query.NumTypes.
	Lifecycle *runtime.LifecycleConfig
	// Weight is the query's utility weight for budget distribution:
	// the drop-rate share is proportional to per-window cost divided by
	// Weight, so heavier-weighted queries shed less. Default 1.
	Weight float64
	// Shards is the pipeline shard count (see runtime.Config.Shards).
	Shards int
	// ProcessingDelay is an artificial per-kept-membership cost, for
	// benchmarks and overload demos (see runtime.Config).
	ProcessingDelay time.Duration
	// DisableFilter delivers every event type to this query, not just
	// the types its patterns reference. Wildcard patterns imply it.
	DisableFilter bool
	// OnWindowClose, when non-nil, observes every closed window of this
	// query's pipeline (see operator.Config.OnWindowClose). A panic in
	// the hook quarantines the query, not the engine.
	OnWindowClose operator.WindowCloseHook
	// Tenant scopes the query to one tenant: it receives only events
	// submitted under that tenant (SubmitTenantBatch), and its shedder
	// is driven by that tenant's slice of the global budget. Empty means
	// unscoped — the query sees every tenant's events and is budgeted
	// with the default tenant's group.
	Tenant string
}

// Engine is a running multi-query deployment.
type Engine struct {
	cfg Config
	det *core.OverloadDetector // nil when the budget is disabled

	submitted atomic.Uint64

	// started is closed by Run once the registered pipelines run (a
	// submit waits for it), inputClosed by CloseInput. fanMu serializes
	// fan-outs — every query observes one total order of batches — and
	// guards each Query.sendBuf.
	started     chan struct{}
	inputClosed chan struct{}
	closeInput  sync.Once
	fanMu       sync.Mutex

	// tenants is the interning table for tenant identities; index 0 is
	// the default tenant "". Records are append-only under tenMu.
	tenMu      sync.RWMutex
	tenantIDs  map[string]int32
	tenants    []*tenantRec
	defaultTen *tenantRec

	// retiredDelivered/Skipped carry the lifetime counters of
	// deregistered queries so the engine-level sums stay monotonic
	// across Deregister; written under mu (write lock).
	retiredDelivered atomic.Uint64
	retiredSkipped   atomic.Uint64

	overloaded atomic.Bool
	dropRate   atomic.Uint64 // float64 bits: current global drop-rate target

	// faults carries tripped queries from their pipelines' OnPanic to
	// Run, which quarantines them.
	faults chan *Query

	mu            sync.RWMutex
	queries       []*Query // registration order; read per fan-out under RLock
	byName        map[string]*Query
	quarantined   map[string]*QuarantineStats
	restartTimers []*time.Timer
	ctx           context.Context // set by Run
	running       bool
	closed        bool
}

// Query is one registered query: a handle to its pipeline, output
// channel and counters. Obtain it from Register; it stays valid (for
// Stats and draining Out) after Deregister.
type Query struct {
	name string
	cfg  QueryConfig

	pipe    *runtime.Pipeline
	filter  []bool // indexed by event.Type; nil accepts every type
	tid     int32  // scoping tenant id; -1 = unscoped (all tenants)
	shedder *core.Shedder
	// sendBuf is the reusable fan-out staging buffer for this query,
	// guarded by Engine.fanMu and safe to reuse because
	// Pipeline.SubmitBatch copies.
	sendBuf []event.Event

	out      chan operator.ComplexEvent
	detached chan struct{} // closed by Deregister: stop blocking on out

	delivered atomic.Uint64
	skipped   atomic.Uint64

	started   bool // guarded by the engine mutex
	closeOnce sync.Once
	runDone   chan error
	runErr    error
}

// New validates the configuration and builds an engine with no queries
// registered yet.
func New(cfg Config) (*Engine, error) {
	if cfg.F == 0 {
		cfg.F = 0.8
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	e := &Engine{
		cfg:         cfg,
		started:     make(chan struct{}),
		inputClosed: make(chan struct{}),
		byName:      make(map[string]*Query),
		quarantined: make(map[string]*QuarantineStats),
		faults:      make(chan *Query, 64),
		tenantIDs:   make(map[string]int32),
	}
	e.defaultTen = e.tenantRecFor("")
	for name, q := range cfg.Tenants {
		e.SetTenantQuota(name, q)
	}
	if cfg.LatencyBound > 0 {
		det, err := core.NewOverloadDetector(core.DetectorConfig{
			LatencyBound: cfg.LatencyBound,
			F:            cfg.F,
		})
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		e.det = det
	}
	return e, nil
}

// untrainedModel dimensions the placeholder model an untrained lifecycle
// query starts from, using the *effective* lifecycle config so the swap
// target and the tap builders agree on the type count. The placeholder
// never sheds — Trained() is false — so N is only a label until the
// lifecycle's first real model replaces it.
func untrainedModel(cfg QueryConfig, lcfg *runtime.LifecycleConfig) (*core.Model, error) {
	n := lcfg.N
	if n == 0 {
		n = runtime.SpecWindowSize(cfg.Query.Window)
	}
	if n == 0 {
		n = 1
	}
	return core.NewUntrainedModel(lcfg.Types, n, lcfg.BinSize)
}

// typeFilter derives the per-query delivery filter from the query's
// patterns: the union of all step type lists, indexed by type id. A
// wildcard step (empty type list) disables filtering entirely.
func typeFilter(q queries.Query) []bool {
	size := q.NumTypes
	filter := make([]bool, size)
	for _, cp := range q.Patterns {
		for _, step := range cp.Pattern().Steps {
			if len(step.Types) == 0 {
				return nil // wildcard: every type may matter
			}
			for _, t := range step.Types {
				if int(t) >= len(filter) {
					grown := make([]bool, int(t)+1)
					copy(grown, filter)
					filter = grown
				}
				if t >= 0 {
					filter[t] = true
				}
			}
		}
	}
	return filter
}

// Register adds a query to the engine and (when the engine is running)
// immediately starts its pipeline and begins delivering events to it.
// Safe to call concurrently with Submit.
func (e *Engine) Register(cfg QueryConfig) (*Query, error) {
	name := cfg.Name
	if name == "" {
		name = cfg.Query.Name
	}
	if name == "" {
		return nil, fmt.Errorf("engine: query needs a name")
	}
	if cfg.Weight == 0 {
		cfg.Weight = 1
	}
	if cfg.Weight < 0 {
		return nil, fmt.Errorf("engine: query %s: Weight must be > 0, got %v", name, cfg.Weight)
	}

	rcfg := runtime.Config{
		Operator: operator.Config{
			Window:        cfg.Query.Window,
			Patterns:      cfg.Query.Patterns,
			OnWindowClose: cfg.OnWindowClose,
		},
		EstimateRates:   true,
		PollInterval:    e.cfg.PollInterval,
		QueueCap:        queryQueueCap,
		OutBuffer:       outBuffer,
		ProcessingDelay: cfg.ProcessingDelay,
		Shards:          cfg.Shards,
	}
	q := &Query{
		name:     name,
		cfg:      cfg,
		tid:      -1,
		out:      make(chan operator.ComplexEvent, outBuffer),
		detached: make(chan struct{}),
		runDone:  make(chan error, 1),
	}
	if cfg.Tenant != "" {
		q.tid = e.tenantRecFor(cfg.Tenant).id
	}
	if !cfg.DisableFilter {
		q.filter = typeFilter(cfg.Query)
	}
	// The effective lifecycle config is resolved first so the untrained
	// placeholder model and the tap builders agree on the type count.
	var lcfg *runtime.LifecycleConfig
	if cfg.Lifecycle != nil {
		c := *cfg.Lifecycle
		if c.Types == 0 {
			c.Types = cfg.Query.NumTypes
		}
		lcfg = &c
		rcfg.Lifecycle = lcfg
	}
	model := cfg.Model
	if model == nil && lcfg != nil {
		// Untrained registration: the shedder exists (so the budget can
		// command it) but refuses to shed until the lifecycle's first
		// model is swapped in.
		m, err := untrainedModel(cfg, lcfg)
		if err != nil {
			return nil, fmt.Errorf("engine: query %s: %w", name, err)
		}
		model = m
	}
	if model != nil {
		s, err := core.NewShedder(model)
		if err != nil {
			return nil, fmt.Errorf("engine: query %s: %w", name, err)
		}
		q.shedder = s
		// With Shards > 1 every shard shares this one shedder: its
		// decisions are pure functions of (window, position, state).
		rcfg.Operator.Shedder = s
	}
	// A pipeline panic hands q to Run for quarantine; fired at most once
	// per pipeline, from the goroutine that panicked (see quarantine.go).
	rcfg.OnPanic = func(*runtime.PanicError) { e.noteFault(q) }
	pipe, err := runtime.New(rcfg)
	if err != nil {
		return nil, fmt.Errorf("engine: query %s: %w", name, err)
	}
	q.pipe = pipe

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("engine: closed")
	}
	if _, dup := e.byName[name]; dup {
		return nil, fmt.Errorf("engine: query %q already registered", name)
	}
	e.byName[name] = q
	e.queries = append(e.queries, q)
	if e.running {
		e.startQueryLocked(q)
	}
	return q, nil
}

// startQueryLocked launches the query's pipeline and output forwarder;
// the engine mutex must be held.
func (e *Engine) startQueryLocked(q *Query) {
	q.started = true
	ctx := e.ctx
	go func() { q.runDone <- q.pipe.Run(ctx) }()
	go q.forward()
}

// forward relays pipeline output to the query's own channel. After
// Deregister detaches the query, delivery degrades to best-effort
// (buffered sends only) so teardown never blocks on an absent consumer.
func (q *Query) forward() {
	defer close(q.out)
	for ce := range q.pipe.Out() {
		select {
		case q.out <- ce:
		case <-q.detached:
			select {
			case q.out <- ce:
			default: // consumer gone; discard
			}
		}
	}
}

// shutdown closes the query's pipeline input and waits for it to drain;
// idempotent and safe to call from Deregister and engine teardown
// concurrently.
func (q *Query) shutdown() error {
	q.closeOnce.Do(func() {
		if !q.started {
			close(q.out)
			return
		}
		q.pipe.CloseInput()
		q.runErr = <-q.runDone
	})
	return q.runErr
}

// Deregister removes a query while traffic flows: delivery to it stops
// immediately (remaining queries are unaffected and lose no events), its
// pipeline drains, and its Out channel closes after the already-emitted
// complex events. Blocks until the query's pipeline has fully stopped.
func (e *Engine) Deregister(name string) error {
	e.mu.Lock()
	q, ok := e.byName[name]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("engine: query %q not registered", name)
	}
	delete(e.byName, name)
	for i, other := range e.queries {
		if other == q {
			e.queries = append(e.queries[:i], e.queries[i+1:]...)
			break
		}
	}
	// The routing table no longer lists q and a fan-out holds the read
	// lock across a whole batch, so its counters are final: fold them into
	// the retired totals to keep the engine-level sums monotonic.
	e.retiredDelivered.Add(q.delivered.Load())
	e.retiredSkipped.Add(q.skipped.Load())
	e.mu.Unlock()

	close(q.detached)
	return q.shutdown()
}

// Submit fans one event out under the default tenant: a one-event
// SubmitTenantBatch. Must not be called after CloseInput.
func (e *Engine) Submit(ev event.Event) {
	one := [1]event.Event{ev}
	e.SubmitTenantBatch("", one[:])
}

// SubmitBatch fans a batch of events out in stream order under the
// default tenant; see SubmitTenantBatch for what blocks and what a
// return means. Must not be called after CloseInput.
func (e *Engine) SubmitBatch(events []event.Event) {
	e.SubmitTenantBatch("", events)
}

// SubmitTenantBatch fans a batch of events out in stream order under a
// tenant identity: tenant-scoped queries receive only their own
// tenant's events, and the tenant's ingress rate is measured against
// its quota by the budget loop. It implements transport.TenantSink;
// the empty tenant is the default tenant (equivalent to SubmitBatch).
//
// The fan-out runs on the calling goroutine, fanoutChunk events at a
// time to each query in turn (a sharded query's partitioner runs inline
// in its submit). The call blocks until Run has started the pipelines —
// a fan-out ahead of Run would fill an unstarted queue while holding the
// read lock Run needs the write side of — while another submit is
// fanning out, and while the queue of a query that accepts the batch is
// full. It returns once every accepting query has taken the batch, so
// the slice may be reused. Holding the read lock across the whole batch
// means Deregister never observes a half-delivered one. Safe for
// concurrent use: all queries see concurrent batches in the same order.
// Must not be called after CloseInput.
func (e *Engine) SubmitTenantBatch(tenant string, events []event.Event) {
	rec := e.defaultTen
	if tenant != "" {
		rec = e.tenantRecFor(tenant)
	}
	e.submitted.Add(uint64(len(events)))
	rec.submitted.Add(uint64(len(events)))
	<-e.started
	e.fanMu.Lock()
	defer e.fanMu.Unlock()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return // the pipelines' inputs are sealed
	}
	for len(events) > 0 {
		chunk := events[:min(len(events), fanoutChunk)]
		events = events[len(chunk):]
		for _, q := range e.queries {
			if e.ctx.Err() != nil {
				return // pipelines are shutting down; stop delivering
			}
			// A tripped pipeline awaiting quarantine would drain the
			// submit unprocessed, so skip the staging work.
			if !q.pipe.Failed() {
				deliver(q, rec.id, chunk)
			}
		}
	}
}

// CloseInput signals end of stream: Run waits out a fan-out in flight,
// closes every query pipeline, waits for them to drain and returns.
// Every submit must have returned before CloseInput is called.
func (e *Engine) CloseInput() {
	e.closeInput.Do(func() { close(e.inputClosed) })
}

// Run drives the engine until the input is closed and every query
// pipeline has drained, or the context is canceled. Blocking; the
// budget loop runs on an internal goroutine for its duration. Run moves
// no events — submitters fan out on their own goroutines — it starts
// the pipelines, quarantines tripped queries and tears down.
func (e *Engine) Run(ctx context.Context) error {
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return fmt.Errorf("engine: Run called twice")
	}
	e.ctx = ctx
	e.running = true
	for _, q := range e.queries {
		e.startQueryLocked(q)
	}
	e.mu.Unlock()
	close(e.started)

	if e.det != nil {
		stop := make(chan struct{})
		done := make(chan struct{})
		go e.budgetLoop(stop, done)
		defer func() {
			close(stop)
			<-done
		}()
	}

	for {
		select {
		case <-ctx.Done():
			e.shutdownQueries()
			return ctx.Err()
		case q := <-e.faults:
			e.quarantine(q)
		case <-e.inputClosed:
			return e.shutdownQueries()
		}
	}
}

// deliver submits one chunk, all of tenant tid, to one query — the one
// place a batch is matched against a query's tenant scope and type
// filter. A tenant-scoped query skips a foreign tenant's chunk whole
// (counted as skipped, like a type-filter rejection); a query without a
// filter gets the caller's slice directly, since SubmitBatch copies; a
// filtered query gets the accepted events staged in sendBuf.
//
// It runs under the fan-out panic guard: a sharded pipeline runs the
// partitioner inline in SubmitBatch, so a panic in the windowing policy
// (or a close hook it invokes) unwinds into this goroutine. The guard
// attributes it to the query's pipeline — tripping it and firing the
// quarantine path — instead of killing the submitter; the partitioner's
// own defer has already released its mutex.
func deliver(q *Query, tid int32, events []event.Event) {
	defer recoverDeliver(q)
	if q.tid >= 0 && q.tid != tid {
		q.skipped.Add(uint64(len(events)))
		return
	}
	if q.filter != nil {
		buf := q.sendBuf[:0]
		for _, ev := range events {
			if q.Accepts(ev.Type) {
				buf = append(buf, ev)
			}
		}
		q.sendBuf = buf
		q.skipped.Add(uint64(len(events) - len(buf)))
		events = buf
	}
	if len(events) > 0 {
		q.delivered.Add(uint64(len(events)))
		q.pipe.SubmitBatch(events)
	}
}

// recoverDeliver converts a submit-path panic into a pipeline trip.
func recoverDeliver(q *Query) {
	if r := recover(); r != nil {
		q.pipe.Trip(r)
	}
}

// shutdownQueries closes every remaining query pipeline and waits for
// them; further Register calls fail. The write lock waits out a fan-out
// in flight; a later one sees closed and delivers nothing.
func (e *Engine) shutdownQueries() error {
	e.mu.Lock()
	e.closed = true
	for _, t := range e.restartTimers {
		t.Stop() // restartQuarantined also re-checks closed under mu
	}
	e.restartTimers = nil
	qs := append([]*Query(nil), e.queries...)
	e.mu.Unlock()
	var first error
	for _, q := range qs {
		if err := q.shutdown(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Name returns the registration key.
func (q *Query) Name() string { return q.name }

// Out delivers the query's detected complex events; it closes after the
// query is deregistered (or the engine shuts down) and its pipeline has
// drained.
func (q *Query) Out() <-chan operator.ComplexEvent { return q.out }

// Accepts reports whether the engine would deliver an event of type t to
// this query — the per-query admission filter. Use it to build the
// query's view of a stream externally (training, ground truth).
func (q *Query) Accepts(t event.Type) bool {
	if q.filter == nil {
		return true
	}
	return t >= 0 && int(t) < len(q.filter) && q.filter[t]
}

// FilterEvents returns the subsequence of events this query would
// receive from the engine — its filtered input stream.
func (q *Query) FilterEvents(events []event.Event) []event.Event {
	if q.filter == nil {
		return events
	}
	out := make([]event.Event, 0, len(events))
	for _, ev := range events {
		if q.Accepts(ev.Type) {
			out = append(out, ev)
		}
	}
	return out
}

// Pipeline exposes the query's underlying pipeline (read-only use:
// stats, latency traces).
func (q *Query) Pipeline() *runtime.Pipeline { return q.pipe }

// FilterStream returns the subsequence of events the engine would
// deliver to a query registered with the default filter — the query's
// input stream. Use it to train models and compute ground truths in the
// engine's coordinate system before registering the query.
func FilterStream(q queries.Query, events []event.Event) []event.Event {
	return (&Query{filter: typeFilter(q)}).FilterEvents(events)
}
