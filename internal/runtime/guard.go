// Panic containment. The pipeline's processing paths — the serial
// processing goroutine, the shard workers, and (when sharded) the
// partitioner running inline in the submitter — all execute user code:
// shedder deciders, window-close hooks, pattern matchers. A panic in
// any of them must not take the process down, and must not wedge the
// producers feeding the pipeline.
//
// The containment contract is drain-don't-die: the first panic trips
// the pipeline's failed flag and is captured as a *PanicError; every
// processing path then keeps draining its input while skipping all
// work (exactly like the context-canceled path), so a blocked producer
// always completes its send and teardown never deadlocks. Run returns
// the PanicError once the input is sealed. The multi-query engine
// layers quarantine on top: its Config.OnPanic callback fires once per
// pipeline, from the goroutine that panicked, right when the flag
// trips.
//
// The guards are deferred method calls with no closure captures, so
// they compile to open-coded defers and add no allocations to the
// steady-state hot paths (the zero-alloc gates cover this).
package runtime

import (
	"context"
	"fmt"
	runtimedebug "runtime/debug"
	"time"

	"repro/internal/event"
)

// PanicError is a panic captured inside a pipeline processing path. It
// implements error; Run returns it after the pipeline drained.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
	// When is the capture time.
	When time.Time
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runtime: pipeline panic: %v", e.Value)
}

// Failed reports whether a processing panic has tripped the pipeline.
// A failed pipeline drains submissions without processing them; callers
// (the engine's fan-out) use this to stop delivering cheaply.
func (p *Pipeline) Failed() bool { return p.failed.Load() }

// PanicError returns the captured panic, nil while the pipeline is
// healthy.
func (p *Pipeline) PanicError() *PanicError {
	return p.panicErr.Load()
}

// Trip records a panic value against the pipeline: the first call
// captures the stack, trips the failed flag and fires Config.OnPanic
// (from the calling goroutine); later calls return the first capture.
// The pipeline itself calls it from its recovery guards; embedding
// layers call it to attribute a panic the pipeline's submit path threw
// into their goroutine (the sharded partitioner runs windowing inline
// in SubmitBatch).
func (p *Pipeline) Trip(v any) *PanicError {
	pe := &PanicError{Value: v, Stack: string(runtimedebug.Stack()), When: time.Now()}
	if !p.panicErr.CompareAndSwap(nil, pe) {
		return p.panicErr.Load()
	}
	p.failed.Store(true)
	if p.cfg.OnPanic != nil {
		p.cfg.OnPanic(pe)
	}
	return pe
}

// recoverProc is the serial flush guard: deferred by flushGuarded, it
// converts a panic into the pipeline's PanicError.
func (p *Pipeline) recoverProc(errp *error) {
	if r := recover(); r != nil {
		*errp = p.Trip(r)
	}
}

// finishMsg is the serial message guard, deferred by processMsg on every
// path: it converts a panic into the pipeline's PanicError, releases the
// slots of the events no publish accounted for — so a message's slots
// are released exactly once however it ended (completed, panicked,
// context canceled) — and hands the chunk back to the submitters.
func (p *Pipeline) finishMsg(events []event.Event, errp *error) {
	if r := recover(); r != nil {
		*errp = p.Trip(r)
	}
	if rest := len(events) - p.msgDone; rest > 0 {
		p.releaseSlots(rest)
	}
	select {
	case p.free <- events[:0]:
	default:
	}
}

// drainIn consumes the serial input queue without processing after a
// panic tripped the pipeline, releasing backpressure slots so blocked
// producers always complete; it returns when the input is sealed or
// the context ends.
func (p *Pipeline) drainIn(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case msg, ok := <-p.in:
			if !ok {
				return
			}
			p.releaseSlots(len(msg.events))
		}
	}
}

// flushGuarded runs the end-of-input flush under the processing guard:
// a panic in a window-close hook during the final flush is contained
// like any other.
func (p *Pipeline) flushGuarded(ctx context.Context) (err error) {
	defer p.recoverProc(&err)
	p.flush(ctx)
	return nil
}

// recoverBatch is the shard worker guard: deferred by processBatch, it
// trips the pipeline and completes the batch's backlog accounting (the
// panic unwound past the normal decrement — b.members is still set, the
// normal path zeroes it before returning).
func (s *shard) recoverBatch(b *shardBatch) {
	if r := recover(); r != nil {
		s.pipe.Trip(r)
		s.queued.Add(-int64(b.members))
	}
}
