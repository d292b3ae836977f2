package runtime

import (
	"context"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/window"
)

const (
	typeA = event.Type(0)
	typeB = event.Type(1)
)

func opConfig(shed operator.Decider) operator.Config {
	p := pattern.MustCompile(pattern.Pattern{
		Name: "seq(A;B)",
		Steps: []pattern.Step{
			{Types: []event.Type{typeA}},
			{Types: []event.Type{typeB}},
		},
	})
	return operator.Config{
		Window:   window.Spec{Mode: window.ModeCount, Count: 10, Slide: 10},
		Patterns: []*pattern.Compiled{p},
		Shedder:  shed,
	}
}

func TestNewValidation(t *testing.T) {
	det, _ := core.NewOverloadDetector(core.DetectorConfig{LatencyBound: event.Second, F: 0.8})
	if _, err := New(Config{Operator: opConfig(nil), Detector: det}); err == nil {
		t.Error("detector without controller must fail")
	}
	if _, err := New(Config{Operator: operator.Config{}}); err == nil {
		t.Error("invalid operator config must fail")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	harness.VerifyNoLeaks(t)
	p, err := New(Config{Operator: opConfig(nil)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()

	var detected []operator.ComplexEvent
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for ce := range p.Out() {
			detected = append(detected, ce)
		}
	}()

	const n = 200
	for i := 0; i < n; i++ {
		p.Submit(event.Event{Seq: uint64(i), Type: event.Type(i % 2)})
	}
	p.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-collected
	if len(detected) != n/10 {
		t.Errorf("detected %d complex events, want %d", len(detected), n/10)
	}
	st := p.Stats()
	if st.Submitted != n || st.Processed != n {
		t.Errorf("stats: %+v", st)
	}
	if p.Latency().Len() != n {
		t.Errorf("latency samples = %d", p.Latency().Len())
	}
}

func TestPipelineContextCancel(t *testing.T) {
	harness.VerifyNoLeaks(t)
	p, err := New(Config{Operator: opConfig(nil)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	p.Submit(event.Event{Seq: 0, Type: typeA})
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

func TestRunTwiceFails(t *testing.T) {
	p, err := New(Config{Operator: opConfig(nil)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	go func() {
		for range p.Out() {
		}
	}()
	// Give the first Run a beat to register.
	time.Sleep(20 * time.Millisecond)
	if err := p.Run(context.Background()); err == nil {
		t.Error("second Run must fail")
	}
	p.CloseInput()
	<-done
}

// shedController wires detector decisions to a core shedder (the same
// logic as harness.ESPICEController without the import cycle).
type shedController struct{ s *core.Shedder }

func (c shedController) OnDecision(dec core.Decision) {
	if dec.Overloaded && dec.X > 0 {
		_ = c.s.Configure(dec.Part, dec.X)
		return
	}
	c.s.Deactivate()
}

// trainedTestModel builds a tiny uniform model where every event is
// sheddable.
func trainedTestModel(t *testing.T) *core.Model {
	t.Helper()
	ut, err := core.NewUtilityTable(2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	shares := [][]float64{make([]float64, 10), make([]float64, 10)}
	for p := 0; p < 10; p++ {
		shares[0][p], shares[1][p] = 0.5, 0.5
	}
	m, err := core.NewModelFromTable(ut, shares)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEstimateRatesWithoutDetector checks that EstimateRates keeps the
// rate/throughput estimators alive with no detector attached, on both
// the serial and the sharded path — the multi-query engine's global
// budget reads these estimates from outside the pipeline. The estimates
// come from one control tick over stored counters, as in
// TestBacklogEvents; a short live run shows the loop starts without a
// Detector.
func TestEstimateRatesWithoutDetector(t *testing.T) {
	harness.VerifyNoLeaks(t)
	for _, shards := range []int{1, 2} {
		p, err := New(Config{Operator: opConfig(nil), EstimateRates: true, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		p.submitted.Store(4000)
		p.processed.Store(4000)
		for _, l := range p.lanes {
			l.memberships.Store(4000 / uint64(shards))
			l.kept.Store(4000 / uint64(shards))
			l.busyNanos.Store(int64(10 * time.Millisecond))
		}
		start := time.Now()
		newControl(p, start).tick(start.Add(time.Second))
		st := p.Stats()
		if st.InputRate <= 0 {
			t.Errorf("shards=%d: InputRate not estimated: %+v", shards, st)
		}
		if st.Throughput <= 0 {
			t.Errorf("shards=%d: Throughput not estimated: %+v", shards, st)
		}
	}

	p, err := New(Config{Operator: opConfig(nil), EstimateRates: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	go func() {
		for range p.Out() {
		}
	}()
	p.SubmitBatch(deterministicStream(1000))
	for deadline := time.Now().Add(5 * time.Second); p.Stats().InputRate <= 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("live control loop never estimated the input rate without a Detector")
		}
	}
	p.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestBackpressureEventBound pins the event-based QueueCap bound: mixed
// Submit/SubmitBatch producers against a slow pump may overshoot by at
// most one chunk each, every producer eventually unblocks (condvar
// wake-on-drain, no missed wakeups), and nothing is lost.
func TestBackpressureEventBound(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const (
		queueCap  = 64
		producers = 4
		perProd   = 600
	)
	p, err := New(Config{
		Operator: opConfig(nil),
		QueueCap: queueCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	go func() {
		for range p.Out() {
		}
	}()

	var maxSeen atomic.Int64
	stopWatch := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopWatch:
				return
			default:
				if q := p.qlen.Load(); q > maxSeen.Load() {
					maxSeen.Store(q)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				for j := 0; j < perProd; j++ {
					p.Submit(event.Event{Seq: uint64(i*perProd + j), TS: event.Time(j)})
				}
				return
			}
			batch := make([]event.Event, perProd)
			for j := range batch {
				batch[j] = event.Event{Seq: uint64(i*perProd + j), TS: event.Time(j)}
			}
			p.SubmitBatch(batch)
		}(i)
	}
	wg.Wait()
	close(stopWatch)
	p.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Processed != producers*perProd {
		t.Fatalf("processed %d events, want %d", st.Processed, producers*perProd)
	}
	// Each producer may overshoot by at most one chunk past the bound.
	limit := int64(queueCap + producers*submitChunk)
	if got := maxSeen.Load(); got > limit {
		t.Errorf("backlog peaked at %d events, want <= %d", got, limit)
	}
}

// TestBackpressureNoLostWakeup aims one producer's capacity check at the
// instant the pump releases the last queued slots: a producer that tests
// the backlog before announcing itself misses the pump's only wake-up and
// parks forever on an empty queue. To meet the pump there, the producer
// waits until its previous submission shows up in the processed counter —
// which the pump advances a few dozen nanoseconds before it releases the
// slots — and then submits after a short, varying pause that sweeps the
// check across the release. The watchdog turns the hang into a failure
// with the counters that show it (Submitted == Processed, QueueLen 0).
func TestBackpressureNoLostWakeup(t *testing.T) {
	harness.VerifyNoLeaks(t)
	for _, queueCap := range []int{1, 8, 64} {
		for _, batch := range []int{1, 64} {
			// The pump pays for every event of a batch: fewer, larger
			// submits keep each combination near the same wall-clock. A
			// release smaller than QueueCap cannot empty the queue, so the
			// releases after it rescue a missed wake-up; those shapes only
			// check that nothing else hangs and get a tenth of the budget.
			submits := 320_000
			if batch > 1 {
				submits = 16_000
			}
			if queueCap > batch {
				submits /= 10
			}
			p, err := New(Config{Operator: opConfig(nil), QueueCap: queueCap})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- p.Run(context.Background()) }()
			go func() {
				for range p.Out() {
				}
			}()
			produced := make(chan struct{})
			go func() {
				defer close(produced)
				events := make([]event.Event, batch)
				var seq uint64
				for i := 0; i < submits; i++ {
					for j := range events {
						events[j] = event.Event{Seq: seq, TS: event.Time(seq), Type: typeA}
						seq++
					}
					if batch == 1 {
						p.Submit(events[0])
					} else {
						p.SubmitBatch(events)
					}
					for p.processed.Load() < seq {
						stdruntime.Gosched()
					}
					pause := 0
					for k := i % 128; k > 0; k-- {
						pause += k & 1
					}
					pauseSink.Store(int64(pause))
				}
			}()
			select {
			case <-produced:
			case <-time.After(30 * time.Second):
				t.Fatalf("QueueCap=%d batch=%d: producer parked forever: %+v", queueCap, batch, p.Stats())
			}
			p.CloseInput()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if st := p.Stats(); st.Processed != uint64(submits*batch) || st.QueueLen != 0 {
				t.Errorf("QueueCap=%d batch=%d: counters after drain: %+v", queueCap, batch, st)
			}
		}
	}
}

// pauseSink keeps the producer's pause loop above from being compiled out.
var pauseSink atomic.Int64

// TestSubmitSteadyStateZeroAlloc gates the pipeline's share of
// ARCHITECTURE.md's "zero heap allocations in steady state": with the
// chunk ring (serial) or the op-batch recycle rings (sharded) warm and
// the consumer keeping up, a SubmitBatch allocates nothing, at the
// 8-event frames of a light wire client and at full 256-event chunks.
// Serial, that is the copy into a recycled chunk, the channel
// rendezvous, guarded per-message processing, publish and chunk
// hand-back; at two shards, the Policy step, op staging, the shard's
// replay, matching and the epoch merge. AllocsPerRun counts the whole
// process, so the processing goroutines are covered too; the stream
// matches nothing (complex events escape and do allocate) and latency
// sampling is strided out (the trace grows by design).
func TestSubmitSteadyStateZeroAlloc(t *testing.T) {
	harness.VerifyNoLeaks(t)
	for _, c := range []struct{ shards, count, slide int }{{1, 10, 10}, {2, 10, 10}, {2, 64, 8}} {
		shards := c.shards
		opCfg := opConfig(nil)
		opCfg.Window = window.Spec{Mode: window.ModeCount, Count: c.count, Slide: c.slide}
		for _, batch := range []int{8, 256} {
			p, err := New(Config{Operator: opCfg, LatencySampleEvery: 1 << 30, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- p.Run(context.Background()) }()
			go func() {
				for range p.Out() {
				}
			}()
			events := make([]event.Event, batch)
			var seq uint64
			// drained reports whether the pipeline has processed everything
			// submitted: serially the processed count, sharded the shards'
			// staged memberships (the partitioner counts an event processed
			// as it routes it).
			drained := func() bool {
				if shards == 1 {
					return p.processed.Load() >= seq
				}
				var queued int64
				for _, s := range p.shards {
					queued += s.queued.Load()
				}
				return queued == 0
			}
			step := func() {
				for i := range events {
					events[i] = event.Event{Seq: seq, TS: event.Time(seq), Type: typeA}
					seq++
				}
				p.SubmitBatch(events)
				for !drained() {
					stdruntime.Gosched()
				}
			}
			for i := 0; i < 64; i++ { // warm the queues, the window pools and the scratch
				step()
			}
			if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
				t.Errorf("shards=%d windows=%d/%d batch=%d: %.3f allocs per submitted batch, want 0",
					shards, c.count, c.slide, batch, allocs)
			}
			p.CloseInput()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
}
