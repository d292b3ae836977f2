// Package engine is the multi-query deployment layer above the live
// runtime: one ingress stream fans out to N registered queries, each
// backed by its own runtime.Pipeline (optionally sharded), and a single
// global shedding budget coordinates all per-query load shedders.
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

// ingressQueueCap bounds the engine ingress queue in events; Submit
// blocks when it is full.
const ingressQueueCap = 1 << 16

// Config assembles an engine.
type Config struct {
	// QueryQueueCap is the default per-query pipeline queue capacity
	// (overridable per query). Default 1 << 14.
	QueryQueueCap int
	// OutBuffer is the per-query complex-event channel capacity.
	// Default 1024.
	OutBuffer int
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
	// QueueCap overrides Config.QueryQueueCap for this query.
	QueueCap int
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

	in        chan tenantEvent
	submitted atomic.Uint64

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
	// Run, which quarantines them between fan-out rounds.
	faults chan *Query

	// plainBuf is Run's reusable tenant-stripped mirror of the current
	// fan-out batch (owned by the Run goroutine).
	plainBuf []event.Event

	mu            sync.RWMutex
	queries       []*Query // registration order; read per event under RLock
	byName        map[string]*Query
	quarantined   map[string]*QuarantineStats
	restartTimers []*time.Timer
	ctx           context.Context // set by Run
	running       bool
	runCalled     bool
	closed        bool
	inClosed      bool
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
	// sendBuf is the reusable fan-out staging buffer for this query; it
	// is owned by the engine's Run goroutine (under the read lock) and
	// safe to reuse because Pipeline.SubmitBatch copies.
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
	if cfg.QueryQueueCap < 0 {
		return nil, fmt.Errorf("engine: QueryQueueCap must be >= 0, got %d", cfg.QueryQueueCap)
	}
	if cfg.QueryQueueCap == 0 {
		cfg.QueryQueueCap = 1 << 14
	}
	if cfg.OutBuffer == 0 {
		cfg.OutBuffer = 1024
	}
	if cfg.F == 0 {
		cfg.F = 0.8
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	e := &Engine{
		cfg:         cfg,
		in:          make(chan tenantEvent, ingressQueueCap),
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
	queueCap := cfg.QueueCap
	if queueCap == 0 {
		queueCap = e.cfg.QueryQueueCap
	}

	rcfg := runtime.Config{
		Operator: operator.Config{
			Window:        cfg.Query.Window,
			Patterns:      cfg.Query.Patterns,
			OnWindowClose: cfg.OnWindowClose,
		},
		EstimateRates:   true,
		PollInterval:    e.cfg.PollInterval,
		QueueCap:        queueCap,
		OutBuffer:       e.cfg.OutBuffer,
		ProcessingDelay: cfg.ProcessingDelay,
		Shards:          cfg.Shards,
	}
	q := &Query{
		name:     name,
		cfg:      cfg,
		tid:      -1,
		out:      make(chan operator.ComplexEvent, e.cfg.OutBuffer),
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
		// With Shards > 1 every shard shares this one shedder; its state
		// swaps atomically, so lockstep commands stay consistent.
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
	// The routing table no longer lists q and fanOut holds the read lock
	// across a whole delivery, so its counters are final: fold them into
	// the retired totals to keep the engine-level sums monotonic.
	e.retiredDelivered.Add(q.delivered.Load())
	e.retiredSkipped.Add(q.skipped.Load())
	e.mu.Unlock()

	close(q.detached)
	return q.shutdown()
}

// Submit enqueues one event for fan-out under the default tenant; it
// blocks while the ingress queue is full. Must not be called after
// CloseInput.
func (e *Engine) Submit(ev event.Event) {
	e.submitted.Add(1)
	e.defaultTen.submitted.Add(1)
	e.in <- tenantEvent{ev: ev}
}

// SubmitBatch enqueues a batch of events in stream order under the
// default tenant.
func (e *Engine) SubmitBatch(events []event.Event) {
	e.SubmitTenantBatch("", events)
}

// CloseInput signals end of stream: Run fans out the backlog, closes
// every query pipeline, waits for them to drain and returns.
func (e *Engine) CloseInput() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.inClosed {
		e.inClosed = true
		close(e.in)
	}
}

// Run drives the engine until the input is closed and every query
// pipeline has drained, or the context is canceled. Blocking; the
// budget loop runs on an internal goroutine for its duration.
func (e *Engine) Run(ctx context.Context) error {
	e.mu.Lock()
	if e.runCalled {
		e.mu.Unlock()
		return fmt.Errorf("engine: Run called twice")
	}
	e.runCalled = true
	e.ctx = ctx
	e.running = true
	for _, q := range e.queries {
		e.startQueryLocked(q)
	}
	e.mu.Unlock()

	if e.det != nil {
		stop := make(chan struct{})
		done := make(chan struct{})
		go e.budgetLoop(stop, done)
		defer func() {
			close(stop)
			<-done
		}()
	}

	// The fan-out drains the ingress queue opportunistically into a
	// batch, so per-query delivery amortizes filtering, counter updates
	// and the pipeline submit over many events when traffic is dense,
	// while a lone event still flows through immediately.
	batch := make([]tenantEvent, 0, fanoutChunk)
	for {
		select {
		case <-ctx.Done():
			e.shutdownQueries()
			return ctx.Err()
		case q := <-e.faults:
			e.quarantine(q)
		case ev, ok := <-e.in:
			if !ok {
				return e.shutdownQueries()
			}
			batch = append(batch[:0], ev)
			closed := false
		drain:
			for len(batch) < fanoutChunk {
				select {
				case ev2, ok2 := <-e.in:
					if !ok2 {
						closed = true
						break drain
					}
					batch = append(batch, ev2)
				default:
					break drain
				}
			}
			e.fanOut(ctx, batch)
			if closed {
				return e.shutdownQueries()
			}
		}
	}
}

// fanoutChunk bounds how many queued ingress events one fan-out round
// delivers per query.
const fanoutChunk = 256

// fanOut delivers a batch of events to every registered query whose
// tenant scope and filter accept them, one pipeline submit per query.
// For a sharded query pipeline that submit runs the partitioner inline,
// so the fan-out goroutine streams partition-aware op batches straight
// to the query's shards with no router hop in between. Holding the
// read lock across the (possibly blocking) per-query submits means
// Deregister cannot observe a half-delivered batch: once it acquires the
// write lock, no delivery to the removed query is in flight.
func (e *Engine) fanOut(ctx context.Context, events []tenantEvent) {
	// Mirror the batch into a plain event slice once per round so
	// unscoped wildcard queries keep their staging-free submit.
	plain := e.plainBuf[:0]
	for _, te := range events {
		plain = append(plain, te.ev)
	}
	e.plainBuf = plain
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, q := range e.queries {
		if ctx.Err() != nil {
			return // pipelines are shutting down; stop delivering
		}
		if q.pipe.Failed() {
			// Tripped but not yet quarantined (Run picks the fault up
			// between rounds); the pipeline would drain the submit
			// unprocessed, so skip the staging work.
			continue
		}
		e.deliver(q, events, plain)
	}
}

// deliver submits one batch to one query under the fan-out panic guard:
// a sharded pipeline runs the partitioner inline in SubmitBatch, so a
// panic in the windowing policy (or a close hook it invokes) unwinds
// into this goroutine. The guard attributes it to the query's pipeline
// — tripping it and firing the quarantine path — instead of killing the
// engine; the partitioner's own defer has already released its mutex.
// plain mirrors events without tenant tags; a tenant-scoped query
// admits only its own tenant's events (foreign ones count as skipped,
// exactly like a type-filter rejection).
func (e *Engine) deliver(q *Query, events []tenantEvent, plain []event.Event) {
	defer recoverDeliver(q)
	if q.filter == nil && q.tid < 0 {
		// Unscoped wildcard query: SubmitBatch copies, so the batch
		// goes in directly without a staging copy.
		q.delivered.Add(uint64(len(plain)))
		q.pipe.SubmitBatch(plain)
		return
	}
	buf := q.sendBuf[:0]
	var skipped uint64
	for _, te := range events {
		if (q.tid < 0 || te.tid == q.tid) && q.Accepts(te.ev.Type) {
			buf = append(buf, te.ev)
		} else {
			skipped++
		}
	}
	q.sendBuf = buf
	if skipped > 0 {
		q.skipped.Add(skipped)
	}
	if len(buf) > 0 {
		q.delivered.Add(uint64(len(buf)))
		q.pipe.SubmitBatch(buf)
	}
}

// recoverDeliver converts a submit-path panic into a pipeline trip.
func recoverDeliver(q *Query) {
	if r := recover(); r != nil {
		q.pipe.Trip(r)
	}
}

// shutdownQueries closes every remaining query pipeline and waits for
// them; further Register calls fail.
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
