// Package runtime hosts a live, goroutine-based deployment of the eSPICE
// architecture (Figure 1): events are submitted into a bounded input
// queue, a processing goroutine drives the CEP operator, and a detector
// goroutine periodically estimates input rate and operator throughput,
// evaluates the overload condition and commands the load shedder.
//
// With Config.Shards > 1 the pipeline becomes a sharded multi-operator
// deployment with no dedicated router goroutine: SubmitBatch itself runs
// the windowing policy (under one partitioner mutex, so positions and
// window identities stay deterministic) and streams compiled op batches
// to the owning shards — each window is placed on the least-occupied
// shard as it opens and never moves, and each shard owns its windows
// outright: open, membership add, shed decision, close, matching and
// pool recycling all happen on the shard goroutine behind its own
// bounded queue. Closed-window results carry a monotonic epoch (the
// global close order) and an epoch merge stage re-serializes them, so
// shard=N output equals shard=1 output while the per-membership
// processing cost spreads across N cores. Serial or sharded, one control
// loop (control.go) observes the input rate, the summed per-lane
// throughput and the backlog in events, and commands the pipeline's one
// shedder, which every shard shares: its decisions are pure functions of
// (window, position, published state), so sharing it costs no lock and
// changes no decision.
//
// The runtime mirrors the discrete-event simulator (internal/sim) on real
// clocks and channels; the simulator is the reproducible instrument for
// experiments, the runtime is the deployment surface the examples use.
package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/sim"
)

// Config assembles a live pipeline.
type Config struct {
	// Operator configuration (window, patterns, shedder decider). With
	// Shards > 1 every shard shares Operator.Shedder.
	Operator operator.Config
	// Detector and Controller enable load shedding; both nil disables it.
	Detector   *core.OverloadDetector
	Controller sim.Controller
	// EstimateRates keeps the input-rate and throughput estimators running
	// even without a Detector, so an external supervisor (e.g. the
	// multi-query engine's global shedding budget) can read
	// Stats().InputRate and Stats().Throughput. Implied by Detector.
	EstimateRates bool
	// PollInterval is the detector period (default 10ms).
	PollInterval time.Duration
	// QueueCap bounds the input-queue backlog in events; Submit and
	// SubmitBatch block when full (backpressure). Stats().QueueLen and
	// the overload detector see the backlog in events as well; a
	// SubmitBatch may overshoot the bound by up to one 256-event chunk.
	// When sharded, the bound is split across the shards' op-batch
	// queues and enforced approximately (in batch granularity), since
	// submitters partition directly into the shard queues. Default 1 << 16.
	QueueCap int
	// ProcessingDelay adds an artificial cost per kept membership,
	// letting examples provoke overload on small machines. Zero means
	// full speed.
	ProcessingDelay time.Duration
	// OutBuffer is the complex-event channel capacity (default 1024).
	OutBuffer int
	// LatencySampleEvery records one end-to-end latency sample per this
	// many processed events (default 1: every event). Whatever the
	// initial stride, the trace is hard-bounded: once it reaches
	// maxLatencySamples the pipeline halves it (dropping every second
	// sample) and doubles the stride, so an indefinitely running ingest
	// server keeps a uniformly spread, fixed-memory trace. Percentiles
	// remain meaningful under uniform 1-in-N sampling; raising the
	// initial stride just spends less hot-path time on clock reads.
	LatencySampleEvery int
	// Shards is the number of parallel operator instances (default 1).
	// Values above 1 spread per-membership processing across goroutines;
	// complex events are still emitted in window-close order. With
	// Shards > 1 the Operator.OnWindowClose hook runs on the shard
	// goroutines — one call at a time per shard, but concurrently across
	// shards — so a shared hook must synchronize its own state. Windows
	// are recycled shard-locally right after the hook returns.
	Shards int
	// OnPanic, when non-nil, is called once — from the goroutine that
	// panicked, right as the pipeline's failed flag trips — when a
	// processing path panics (guard.go). The pipeline then drains
	// without processing and Run returns the *PanicError; the callback
	// lets a supervisor (the multi-query engine) quarantine the query
	// without polling. It must not call back into the pipeline.
	OnPanic func(*PanicError)
	// Lifecycle enables the online model lifecycle: the pipeline samples
	// its own window closes into an in-flight model builder, builds the
	// utility model once warm, and swaps it into the *core.Shedder in
	// Operator.Shedder — retraining on drift alarms (Lifecycle.Drift) or
	// explicit Retrain calls. The shedder may start over an untrained
	// model (core.NewUntrainedModel) and come online once the first model
	// is built.
	Lifecycle *LifecycleConfig
}

// inMsg is the one message shape of the serial input queue: a chunk of
// events submitted together (Submit sends a chunk of one) and their
// shared arrival stamp. The processing goroutine handles a message as a
// unit (processMsg), so the channel rendezvous, the panic guard, the
// clock reads, the counter publication and the p.mu round trip are paid
// once per message, not once per event; the queued-event backlog is
// tracked separately (Pipeline.qlen) so overload detection still sees
// events, not messages.
type inMsg struct {
	events  []event.Event
	arrived time.Time
}

// submitChunk bounds how many events one input message may carry.
const submitChunk = 256

// Stats is a snapshot of pipeline counters. On the serial path Submitted
// advances once per enqueued chunk (at most 256 events), and Processed,
// QueueLen and Operator are published once per processed message — after
// every sleep as well under ProcessingDelay — so mid-run they may trail
// the operator by at most one message (one sleep under delay); once Run
// has returned they are exact.
type Stats struct {
	Submitted uint64
	Processed uint64
	// QueueLen is the backlog in events, the figure the overload detector
	// evaluates: the input queue when serial; when sharded, the shards'
	// staged memberships (ShardStats.QueueLen) divided by the cumulative
	// memberships-per-event factor, whether that is above 1 (overlapping
	// windows) or far below it (sparse predicate windows). The factor
	// trails the shards by whatever they have not processed yet.
	QueueLen int
	// InputRate and Throughput are the control loop's current estimates
	// in events per second, refreshed once per PollInterval. When sharded,
	// Throughput is the summed per-shard estimate.
	InputRate  float64
	Throughput float64
	// Operator aggregates operator counters; when sharded it is the
	// roll-up over all shards.
	Operator operator.Stats
	// Shards holds one entry per shard when Shards > 1, nil otherwise.
	Shards []ShardStats
	// Lifecycle is the online model lifecycle snapshot, nil when the
	// lifecycle is disabled.
	Lifecycle *LifecycleStats
}

// ShardStats is a snapshot of one shard's counters.
type ShardStats struct {
	// Memberships counts (event, window) incidences routed to the shard;
	// Kept and Shed split them by the shedding decision.
	Memberships uint64
	Kept        uint64
	Shed        uint64
	// WindowsClosed, ComplexEvents and WindowsWithMatch mirror the
	// operator counters for windows owned by this shard.
	WindowsClosed    uint64
	ComplexEvents    uint64
	WindowsWithMatch uint64
	// QueueLen is the shard's current queue backlog in staged
	// memberships (each (event, window) incidence counts one).
	QueueLen int
	// PoolMisses counts window opens that had to allocate because the
	// shard's window pool was empty. In steady state it plateaus at the
	// warm working set; a climbing value means closed windows are not
	// being recycled (a pool leak).
	PoolMisses uint64
	// PoolGets and PoolPuts count window-pool handouts and recycles for
	// this shard. A window is recycled into the pool of the shard it
	// opened on, so conservation holds per shard: PoolPuts + PoolMisses
	// >= PoolGets always, and PoolGets == PoolPuts once every window has
	// closed.
	PoolGets uint64
	PoolPuts uint64
	// Steals is always zero: windows never change shard.
	//
	// Deprecated: kept only until the end-to-end benchmark stops reading
	// it.
	Steals uint64
	// Occupancy is the partitioner's live placement estimate of this
	// shard's in-flight window work: the summed expected sizes of the
	// open windows it currently owns. A new window goes to the shard
	// with the lowest Occupancy; QueueLen only breaks exact ties.
	Occupancy int64
	// Throughput is the detector's unshed-capacity estimate for this
	// shard in events per second.
	Throughput float64
}

// Pipeline is a running eSPICE-enabled CEP operator.
type Pipeline struct {
	cfg Config
	op  *operator.Operator
	in  chan inMsg
	out chan operator.ComplexEvent

	// part and shards drive the sharded deployment (Config.Shards > 1):
	// submitters partition events through part straight into the shard
	// queues. The serial path uses the operator and the in channel.
	part   *partitioner
	shards []*shard

	// lifecycle supervises online model training (Config.Lifecycle).
	lifecycle *Lifecycle

	// free hands processed chunks back to the submitters (serial path).
	// A submitter reuses one only when it is large enough and otherwise
	// allocates exactly what it needs, so small messages never drag a
	// full-size chunk through the queue.
	free chan []event.Event

	// Latency sampling state, touched only by the processing goroutine
	// (serial) or under the partitioner mutex (sharded): events since
	// the last sample, the current stride (doubled on every decimation),
	// and the samples recorded since the last decimation check.
	latSkip    int
	latEvery   int
	latSamples int

	// Per-message state of the serial processing goroutine (processMsg):
	// the latency samples staged since the last publish, how many of the
	// message's events are already published (counters advanced, slots
	// released), and the clock reading busy time is next measured from.
	latBuf   []latSample
	msgDone  int
	msgClock time.Time

	submitted atomic.Uint64
	processed atomic.Uint64
	qlen      atomic.Int64 // events enqueued and not yet processed

	// lane holds the serial processing goroutine's control-loop counters;
	// lanes is what the loop iterates: &lane when serial, one per shard
	// when sharded.
	lane
	lanes []*lane

	// Event-based backpressure: producers block on flowCond while qlen
	// is at QueueCap; the pump wakes them as the backlog drains.
	// hasWaiters keeps the pump's fast path to one atomic load.
	flowMu     sync.Mutex
	flowCond   *sync.Cond
	hasWaiters atomic.Bool

	rateEst atomic.Uint64 // float64 bits: input rate in events/s

	// Panic containment (guard.go): failed trips on the first captured
	// processing panic, panicErr holds it.
	failed   atomic.Bool
	panicErr atomic.Pointer[PanicError]

	mu        sync.Mutex
	latency   metrics.LatencyTrace
	lastTS    event.Time
	inClosed  bool
	runCalled bool
	// opStats mirrors the serial operator's counters so Stats() stays
	// data-race free when called mid-run (the operator itself is owned by
	// the processing goroutine); updated under mu at every publish. Only
	// the processing goroutine writes it, so publish also reads it, lock
	// free, as the baseline of the next counter delta.
	opStats operator.Stats
}

// New validates the configuration and builds a pipeline.
func New(cfg Config) (*Pipeline, error) {
	if (cfg.Detector == nil) != (cfg.Controller == nil) {
		return nil, fmt.Errorf("runtime: Detector and Controller must be set together")
	}
	if cfg.QueueCap < 0 {
		return nil, fmt.Errorf("runtime: QueueCap must be >= 0, got %d", cfg.QueueCap)
	}
	if cfg.LatencySampleEvery < 0 {
		return nil, fmt.Errorf("runtime: LatencySampleEvery must be >= 0, got %d", cfg.LatencySampleEvery)
	}
	if cfg.LatencySampleEvery == 0 {
		cfg.LatencySampleEvery = 1
	}
	if cfg.OutBuffer < 0 {
		return nil, fmt.Errorf("runtime: OutBuffer must be >= 0, got %d", cfg.OutBuffer)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("runtime: Shards must be >= 0, got %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 1 << 16
	}
	if cfg.OutBuffer == 0 {
		cfg.OutBuffer = 1024
	}
	// The lifecycle is assembled first: every window owner, the serial
	// operator or each shard, gets a feedback tap of its own (newTap).
	var lc *Lifecycle
	if cfg.Lifecycle != nil {
		shedder, _ := cfg.Operator.Shedder.(*core.Shedder)
		var err error
		lc, err = newLifecycle(*cfg.Lifecycle, shedder, cfg.Operator.Window)
		if err != nil {
			return nil, err
		}
	}
	p := &Pipeline{
		cfg:       cfg,
		lifecycle: lc,
		latEvery:  cfg.LatencySampleEvery,
		in:        make(chan inMsg, cfg.QueueCap),
		// As deep as the input queue measured in full chunks: enough for a
		// submitter running a whole queue of 256-event messages ahead to
		// find every processed chunk waiting, and a bound (a few MB at the
		// default QueueCap) on what an idle pipeline keeps alive.
		free: make(chan []event.Event, cfg.QueueCap/submitChunk+1),
		out:  make(chan operator.ComplexEvent, cfg.OutBuffer),
	}
	p.flowCond = sync.NewCond(&p.flowMu)
	if cfg.Shards == 1 {
		op, err := operator.New(cfg.Operator)
		if err != nil {
			return nil, err
		}
		tap, err := lc.newTap()
		if err != nil {
			return nil, err
		}
		op.SetTap(tap)
		p.op, p.lanes = op, []*lane{&p.lane}
		return p, nil
	}
	// Each shard queue holds op batches of up to opsFlushBatch ops, about
	// one per routed event; sizing it as the shard's event-share divided
	// by the batch size keeps the aggregate backlog bound near QueueCap
	// events.
	batchCap := max(cfg.QueueCap/cfg.Shards/opsFlushBatch, 8)
	for i := 0; i < cfg.Shards; i++ {
		own, err := operator.NewOwner(cfg.Operator)
		if err != nil {
			return nil, err
		}
		tap, err := lc.newTap()
		if err != nil {
			return nil, err
		}
		own.SetTap(tap)
		// The recycle ring matches the input queue depth: a submitter
		// running batchCap batches ahead of a shard can still find every
		// drained batch waiting for reuse, so steady state allocates no
		// new batches regardless of how far ahead the producer runs.
		sh := &shard{
			id:      i,
			pipe:    p,
			in:      make(chan *shardBatch, batchCap),
			recycle: make(chan *shardBatch, batchCap+1),
			own:     own,
			delay:   cfg.ProcessingDelay,
		}
		p.shards = append(p.shards, sh)
		p.lanes = append(p.lanes, &sh.lane)
	}
	part, err := newPartitioner(p, cfg.Operator.Window)
	if err != nil {
		return nil, fmt.Errorf("operator: %w", err)
	}
	p.part = part
	return p, nil
}

// waitCapacity blocks the producer until the event backlog is below
// QueueCap. Submit and SubmitBatch share it, so mixed producers see one
// event-based bound; the channel's message capacity is only a secondary
// backstop. Wake-up is condvar-driven by the pump as it drains. The
// waiter raises hasWaiters before it re-checks the backlog and the pump
// lowers the backlog before it reads hasWaiters, so one of the two always
// sees the other: a queue that drains between the check and the Wait
// cannot strand the producer.
func (p *Pipeline) waitCapacity() {
	if int(p.qlen.Load()) < p.cfg.QueueCap {
		return
	}
	p.flowMu.Lock()
	for {
		p.hasWaiters.Store(true)
		if int(p.qlen.Load()) < p.cfg.QueueCap {
			break
		}
		p.flowCond.Wait()
	}
	p.flowMu.Unlock()
}

// releaseSlots marks n queued events processed and wakes blocked
// producers once the backlog falls back below QueueCap. The no-waiter
// fast path is a single atomic load.
func (p *Pipeline) releaseSlots(n int) {
	if int(p.qlen.Add(-int64(n))) < p.cfg.QueueCap && p.hasWaiters.Load() {
		p.flowMu.Lock()
		p.hasWaiters.Store(false)
		p.flowCond.Broadcast()
		p.flowMu.Unlock()
	}
}

// enqueue copies events (at most submitChunk) into a message chunk and
// sends it, blocking while the backlog is at QueueCap. A recycled chunk
// is reused only when it is large enough; otherwise the chunk is
// allocated exact-fit and the undersized one is left to the collector,
// so the ring's chunks grow to the submitters' batch size and steady
// state allocates nothing.
func (p *Pipeline) enqueue(events []event.Event, arrived time.Time) {
	p.waitCapacity()
	var chunk []event.Event
	select {
	case chunk = <-p.free:
	default:
	}
	if cap(chunk) < len(events) {
		chunk = make([]event.Event, len(events))
	}
	chunk = chunk[:len(events)]
	copy(chunk, events)
	p.submitted.Add(uint64(len(events)))
	p.qlen.Add(int64(len(events)))
	p.in <- inMsg{events: chunk, arrived: arrived}
}

// Submit enqueues an event for processing; it blocks when the input
// queue is full. Submit must not be called after CloseInput.
func (p *Pipeline) Submit(e event.Event) {
	if p.part != nil {
		p.part.submitOne(e)
		return
	}
	one := [1]event.Event{e}
	p.enqueue(one[:], time.Now())
}

// SubmitBatch enqueues a batch of events in stream order, amortizing the
// clock read and the channel rendezvous over chunks of the batch (one
// input message per 256 events, all carrying the call's arrival stamp);
// it blocks while the input queue is full. Events are copied into the
// chunks, so the caller may reuse the slice immediately. The submitted
// counter advances per enqueued chunk, so the detector's input-rate
// estimate tracks actual arrivals even when a large batch blocks on a
// full queue. SubmitBatch must not be called after CloseInput.
func (p *Pipeline) SubmitBatch(events []event.Event) {
	if len(events) == 0 {
		return
	}
	if p.part != nil {
		// Sharded path: partition straight into the shard queues; the
		// batch is consumed in place, no intermediate copy.
		p.part.submitBatch(events)
		return
	}
	// The channel bounds messages, so chunked submission alone would
	// weaken the event-based backpressure by up to submitChunk x; enqueue
	// gates each chunk on the event backlog instead, and the overshoot is
	// at most one chunk per producer.
	now := time.Now()
	for len(events) > submitChunk {
		p.enqueue(events[:submitChunk], now)
		events = events[submitChunk:]
	}
	p.enqueue(events, now)
}

// CloseInput signals end of stream; Run drains the queue and returns.
func (p *Pipeline) CloseInput() {
	p.mu.Lock()
	if p.inClosed {
		p.mu.Unlock()
		return
	}
	p.inClosed = true
	p.mu.Unlock()
	if p.part != nil {
		// The partitioner takes p.mu while routing (latency samples), so
		// seal it outside the pipeline mutex to keep lock order one-way.
		p.part.close()
		return
	}
	close(p.in)
}

// Out delivers detected complex events. The channel closes when Run
// finishes.
func (p *Pipeline) Out() <-chan operator.ComplexEvent { return p.out }

// Stats returns a snapshot of the pipeline counters.
func (p *Pipeline) Stats() Stats {
	st := Stats{
		Submitted:  p.submitted.Load(),
		Processed:  p.processed.Load(),
		QueueLen:   p.backlogEvents(p.kbar()),
		InputRate:  loadFloat(&p.rateEst),
		Throughput: p.throughput(),
	}
	if p.lifecycle != nil {
		ls := p.lifecycle.Stats()
		st.Lifecycle = &ls
	}
	if len(p.shards) == 0 {
		p.mu.Lock()
		st.Operator = p.opStats
		p.mu.Unlock()
		return st
	}
	st.Operator.EventsProcessed = st.Processed
	st.Shards = make([]ShardStats, len(p.shards))
	for i, s := range p.shards {
		ss := s.snapshot()
		st.Shards[i] = ss
		st.Operator.Memberships += ss.Memberships
		st.Operator.MembershipsKept += ss.Kept
		st.Operator.MembershipsShed += ss.Shed
		st.Operator.WindowsClosed += ss.WindowsClosed
		st.Operator.ComplexEvents += ss.ComplexEvents
		st.Operator.WindowsWithMatch += ss.WindowsWithMatch
	}
	return st
}

// Latency returns a copy of the recorded latency trace, merged across
// all shards when sharded. Safe to call mid-run (every trace is
// lock-protected); the ingest server snapshots it for live statistics,
// while experiment reports read it after Run returned.
func (p *Pipeline) Latency() *metrics.LatencyTrace {
	merged := &metrics.LatencyTrace{}
	p.mu.Lock()
	merged.Merge(&p.latency)
	p.mu.Unlock()
	for _, s := range p.shards {
		s.mu.Lock()
		merged.Merge(&s.latency)
		s.mu.Unlock()
	}
	return merged
}

// Retrain asks the online model lifecycle for an explicit rebuild from
// the statistics accumulated since the last swap; it errors when the
// pipeline was built without Config.Lifecycle. The rebuild happens on
// the supervisor goroutine as soon as the warm-up threshold is met.
func (p *Pipeline) Retrain() error {
	if p.lifecycle == nil {
		return fmt.Errorf("runtime: Retrain needs Config.Lifecycle")
	}
	p.lifecycle.Retrain()
	return nil
}

// Lifecycle returns the online model lifecycle supervisor (nil when
// disabled): stats, the currently published model, explicit retrains.
func (p *Pipeline) Lifecycle() *Lifecycle { return p.lifecycle }

// startLifecycle launches the lifecycle supervisor goroutine and returns
// its stop function (a no-op when the lifecycle is disabled).
func (p *Pipeline) startLifecycle() func() {
	if p.lifecycle == nil {
		return func() {}
	}
	return background(p.lifecycle.run)
}

// Run processes events until the input is closed and drained, or the
// context is canceled. It is a blocking call; the control loop and the
// model lifecycle run on internal goroutines for its duration.
func (p *Pipeline) Run(ctx context.Context) error {
	p.mu.Lock()
	if p.runCalled {
		p.mu.Unlock()
		return fmt.Errorf("runtime: Run called twice")
	}
	p.runCalled = true
	p.mu.Unlock()
	defer close(p.out)
	defer p.startLifecycle()()
	defer p.startControl()()
	if len(p.shards) > 0 {
		return p.runSharded(ctx)
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case msg, ok := <-p.in:
			if !ok {
				return p.flushGuarded(ctx)
			}
			if err := p.processMsg(ctx, msg); err != nil {
				if pe, tripped := err.(*PanicError); tripped {
					// Contained panic: keep draining so producers never
					// block on a dead pipeline, then surface the capture.
					p.drainIn(ctx)
					return pe
				}
				return err
			}
		}
	}
}

// processMsg drives the operator over one input message as a unit, the
// serial counterpart of shard.processBatch: one guard, one clock pair,
// one counter delta and one p.mu round trip per message; the clock is
// read per event only for the events sampleLatency picks. Complex events
// still leave as the event that completed them is processed, so a lone
// message flows through without waiting for anything.
//
// ProcessingDelay sleeps right after the event that kept the
// memberships, and everything the detector reads is published after
// every sleep, so under delay it observes the backlog and the service
// rate event by event.
func (p *Pipeline) processMsg(ctx context.Context, msg inMsg) (err error) {
	p.msgDone, p.msgClock = 0, time.Now()
	defer p.finishMsg(msg.events, &err)
	delay := p.cfg.ProcessingDelay
	kept := p.opStats.MembershipsKept
	for i, e := range msg.events {
		complexEvents := p.op.Process(e)
		slept := false
		if delay > 0 {
			if k := p.op.Stats().MembershipsKept; k > kept {
				time.Sleep(time.Duration(k-kept) * delay)
				kept, slept = k, true
			}
		}
		if sample := p.sampleLatency(); sample || slept {
			// One clock read serves the latency sample and the publish.
			now := time.Now()
			if sample {
				p.latBuf = append(p.latBuf, latSample{
					ts:  event.Time(now.UnixMicro()),
					lat: event.Time(now.Sub(msg.arrived).Microseconds()),
				})
			}
			if slept {
				p.publish(msg.events, i+1, now)
				// A message of sleeping events can take long: notice a
				// cancel here, not only at the next full Out channel.
				if ctx.Err() != nil {
					return ctx.Err()
				}
			}
		}
		for _, ce := range complexEvents {
			select {
			case p.out <- ce:
				continue
			default:
			}
			// The consumer is behind. Publish first, so the counters are
			// current while this goroutine is parked, and restart the
			// clock afterwards: waiting on the consumer is not busy time.
			p.publish(msg.events, i+1, time.Now())
			select {
			case p.out <- ce:
			case <-ctx.Done():
				return ctx.Err()
			}
			p.msgClock = time.Now()
		}
	}
	p.publish(msg.events, len(msg.events), time.Now())
	return nil
}

// publish makes the first n events of the current message visible: the
// counters the detector and Stats read advance by what the operator did
// since the last publish, the staged latency samples fold into the
// trace, and the events' backpressure slots are released.
func (p *Pipeline) publish(events []event.Event, n int, now time.Time) {
	if n == p.msgDone {
		return
	}
	after := p.op.Stats()
	p.busyNanos.Add(now.Sub(p.msgClock).Nanoseconds())
	p.processed.Add(uint64(n - p.msgDone))
	p.memberships.Add(after.Memberships - p.opStats.Memberships)
	p.kept.Add(after.MembershipsKept - p.opStats.MembershipsKept)

	p.mu.Lock()
	for _, ls := range p.latBuf {
		p.latency.Add(ls.ts, ls.lat)
	}
	p.lastTS = events[n-1].TS
	p.opStats = after
	p.mu.Unlock()
	p.latBuf = p.latBuf[:0]

	p.releaseSlots(n - p.msgDone)
	p.msgDone, p.msgClock = n, now
}

func (p *Pipeline) flush(ctx context.Context) {
	p.mu.Lock()
	last := p.lastTS
	p.mu.Unlock()
	ces := p.op.Flush(last)
	p.mu.Lock()
	p.opStats = p.op.Stats()
	p.mu.Unlock()
	for _, ce := range ces {
		select {
		case p.out <- ce:
		case <-ctx.Done():
			return
		}
	}
}

// maxLatencySamples bounds the total recorded latency samples per
// pipeline (~4 MiB across all traces); reaching it halves every trace
// and doubles the sampling stride.
const maxLatencySamples = 1 << 18

// sampleLatency reports whether the current event contributes a latency
// sample (1 in latEvery, initially Config.LatencySampleEvery). Called
// from the processing goroutine (serial) or under the partitioner mutex
// (sharded), never concurrently. When the recorded
// samples reach maxLatencySamples the traces are decimated and the
// stride doubles, keeping the memory and Summary cost of an unbounded
// run fixed.
func (p *Pipeline) sampleLatency() bool {
	p.latSkip++
	if p.latSkip < p.latEvery {
		return false
	}
	p.latSkip = 0
	p.latSamples++
	if p.latSamples >= maxLatencySamples {
		p.latSamples /= 2
		p.latEvery *= 2
		p.mu.Lock()
		p.latency.Decimate()
		p.mu.Unlock()
		for _, s := range p.shards {
			s.mu.Lock()
			s.latency.Decimate()
			s.mu.Unlock()
		}
	}
	return true
}
