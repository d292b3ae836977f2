package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/transport"
)

// Sink wraps a transport.Sink with deterministic delivery faults:
// scheduled panics (thrown into whatever goroutine is delivering — the
// transport handler or the engine fan-out, exactly where a buggy
// downstream would throw them) and seeded delays that stretch the
// sink's critical section. The panics exercise the recover guards on
// the delivery path; the delays exercise backpressure and deadline
// handling above it.
type Sink struct {
	// Inner receives every batch that is not panicked away (required).
	Inner transport.Sink
	// PanicEvery panics on every Nth SubmitBatch call (0 disables). The
	// batch is NOT forwarded: a panicking consumer loses the in-flight
	// delivery, and the layers above decide what that means. It counts
	// calls, not frames: behind a transport server one call carries one
	// run, every batch that arrived with one read.
	PanicEvery int
	// MaxDelay/DelayEvery sleep a seeded random duration up to MaxDelay
	// before one in DelayEvery forwards (DelayEvery 0 delays every
	// forward when MaxDelay > 0).
	MaxDelay   time.Duration
	DelayEvery int
	// Seed derives the delay draws.
	Seed int64

	calls  atomic.Uint64
	panics atomic.Uint64

	mu  sync.Mutex
	rng *rand.Rand
}

// SubmitBatch implements transport.Sink.
func (s *Sink) SubmitBatch(events []event.Event) {
	n := s.calls.Add(1)
	if s.PanicEvery > 0 && n%uint64(s.PanicEvery) == 0 {
		s.panics.Add(1)
		panic(fmt.Sprintf("chaos: injected sink panic (call %d)", n))
	}
	if s.MaxDelay > 0 && (s.DelayEvery <= 1 || n%uint64(s.DelayEvery) == 0) {
		s.mu.Lock()
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(s.Seed))
		}
		d := time.Duration(s.rng.Int63n(int64(s.MaxDelay) + 1))
		s.mu.Unlock()
		time.Sleep(d)
	}
	s.Inner.SubmitBatch(events)
}

// Calls reports SubmitBatch invocations; Panics the injected panics.
func (s *Sink) Calls() uint64  { return s.calls.Load() }
func (s *Sink) Panics() uint64 { return s.panics.Load() }
