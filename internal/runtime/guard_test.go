package runtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/window"
)

// TestPanicContainmentSerial panics inside the OnWindowClose hook of a
// serial pipeline: Run must return the captured *PanicError (not crash),
// the output channel must close, and producers submitting after the
// panic must not block.
func TestPanicContainmentSerial(t *testing.T) {
	harness.VerifyNoLeaks(t)
	var closes atomic.Int64
	cfg := Config{Operator: opConfig(nil)}
	cfg.Operator.OnWindowClose = func(w *window.Window, matched []window.Entry) {
		if closes.Add(1) == 2 {
			panic("hook boom")
		}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for range p.Out() {
		}
	}()

	events := deterministicStream(200)
	p.SubmitBatch(events[:100])
	// By the 100th event several windows have closed, so the trip has
	// happened; the second half must drain without blocking.
	p.SubmitBatch(events[100:])
	p.CloseInput()

	err = <-done
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want *PanicError", err)
	}
	if pe.Value != "hook boom" || pe.Stack == "" || pe.When.IsZero() {
		t.Errorf("PanicError incomplete: %+v", pe)
	}
	if !p.Failed() || p.PanicError() != pe {
		t.Error("Failed/PanicError disagree with Run's return")
	}
	<-collected
}

// TestPanicMidMessageReleasesSlots ends a 256-event message in the
// middle — by a hook panic, then by a context cancel — while the queue
// is exactly full and a second producer is parked in waitCapacity behind
// it. The whole message's slots must come back exactly once: the parked
// producer wakes and returns, and the backlog counter ends at exactly
// what is still queued (nothing after the drain that follows a panic,
// the second producer's message after a cancel, which stops the pump).
func TestPanicMidMessageReleasesSlots(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const msgEvents = 256
	for _, mode := range []string{"panic", "cancel"} {
		ctx, cancel := context.WithCancel(context.Background())
		var closes atomic.Int64
		// OutBuffer 1 and nobody reading Out: the first complex event fits,
		// the second finds the pump's non-blocking send refused, which is
		// where a canceled context is noticed mid-message.
		cfg := Config{Operator: opConfig(nil), QueueCap: msgEvents, OutBuffer: 1}
		cfg.Operator.OnWindowClose = func(w *window.Window, matched []window.Entry) {
			if closes.Add(1) != 2 {
				return
			}
			if mode == "panic" {
				panic("mid-message boom")
			}
			cancel()
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Fill the queue to the brim and park the second producer before
		// the pump starts, so the trip lands with a waiter in place.
		events := deterministicStream(2 * msgEvents)
		p.SubmitBatch(events[:msgEvents])
		second := make(chan struct{})
		go func() {
			defer close(second)
			p.SubmitBatch(events[msgEvents:])
		}()
		for !p.hasWaiters.Load() {
			time.Sleep(time.Millisecond)
		}
		done := make(chan error, 1)
		go func() { done <- p.Run(ctx) }()

		select {
		case <-second:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: second producer still parked: %+v", mode, p.Stats())
		}
		p.CloseInput()
		err = <-done
		st := p.Stats()
		switch mode {
		case "panic":
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != "mid-message boom" {
				t.Errorf("panic: Run returned %v, want the *PanicError", err)
			}
			if st.QueueLen != 0 {
				t.Errorf("panic: QueueLen = %d after the drain, want 0", st.QueueLen)
			}
		case "cancel":
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancel: Run returned %v, want context.Canceled", err)
			}
			if st.Submitted != 2*msgEvents || st.QueueLen != msgEvents {
				t.Errorf("cancel: Submitted %d QueueLen %d, want %d and the unread message's %d",
					st.Submitted, st.QueueLen, 2*msgEvents, msgEvents)
			}
		}
		cancel()
	}
}

// TestPanicContainmentSharded panics inside the OnWindowClose hook on a
// shard worker goroutine: the trip must propagate to Run's return value,
// every sibling shard must keep draining (no wedged producer, no
// deadlocked merge), and teardown must complete.
func TestPanicContainmentSharded(t *testing.T) {
	harness.VerifyNoLeaks(t)
	var closes atomic.Int64
	cfg := Config{Operator: overlappingOpConfig(), Shards: 4}
	cfg.Operator.OnWindowClose = func(w *window.Window, matched []window.Entry) {
		if closes.Add(1) == 3 {
			panic("shard boom")
		}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for range p.Out() {
		}
	}()

	events := deterministicStream(4000)
	// Submit in chunks well past the panic point: once tripped, the
	// partitioner drops instead of routing, so this must never block on
	// a dead shard's bounded queue.
	for i := 0; i < len(events); i += 500 {
		p.SubmitBatch(events[i : i+500])
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		p.CloseInput()
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("CloseInput blocked after a shard panic")
	}

	err = <-done
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want *PanicError", err)
	}
	if pe.Value != "shard boom" {
		t.Errorf("panic value = %v", pe.Value)
	}
	<-collected
}

// TestPanicOnPanicFiresOnce asserts the OnPanic callback fires exactly
// once even when several shards panic near-simultaneously.
func TestPanicOnPanicFiresOnce(t *testing.T) {
	harness.VerifyNoLeaks(t)
	var fired atomic.Int64
	cfg := Config{Operator: overlappingOpConfig(), Shards: 4}
	cfg.Operator.OnWindowClose = func(w *window.Window, matched []window.Entry) {
		panic("every close")
	}
	cfg.OnPanic = func(pe *PanicError) { fired.Add(1) }
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	go func() {
		for range p.Out() {
		}
	}()
	p.SubmitBatch(deterministicStream(2000))
	p.CloseInput()
	if err := <-done; err == nil {
		t.Fatal("Run returned nil after hook panics")
	}
	if n := fired.Load(); n != 1 {
		t.Errorf("OnPanic fired %d times, want 1", n)
	}
}
