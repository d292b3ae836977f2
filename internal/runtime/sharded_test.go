package runtime

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/window"
)

// runCollect runs the pipeline over the stream, submitted as one batch,
// and returns its output in emission order.
func runCollect(t *testing.T, cfg Config, events []event.Event) ([]operator.ComplexEvent, Stats) {
	t.Helper()
	return runCollectWith(t, cfg, func(p *Pipeline) { p.SubmitBatch(events) })
}

// runCollectWith runs the pipeline over whatever submit feeds it and
// returns its output in emission order.
func runCollectWith(t *testing.T, cfg Config, submit func(*Pipeline)) ([]operator.ComplexEvent, Stats) {
	t.Helper()
	p, err := New(cfg)
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
	submit(p)
	p.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-collected
	return detected, p.Stats()
}

// deterministicStream builds a fixed A/B stream whose windows overlap
// (Slide < Count), so every event fans out to several shards.
func deterministicStream(n int) []event.Event {
	events := make([]event.Event, n)
	for i := range events {
		events[i] = event.Event{
			Seq:  uint64(i),
			TS:   event.Time(i) * event.Millisecond,
			Type: event.Type(i % 2),
		}
	}
	return events
}

func overlappingOpConfig() operator.Config {
	cfg := opConfig(nil)
	cfg.Window = window.Spec{Mode: window.ModeCount, Count: 10, Slide: 5}
	return cfg
}

// TestShardedMatchesSerial asserts (a) that a 4-shard pipeline produces
// exactly the serial pipeline's complex events, in the same order, on a
// deterministic stream — with one match per window and with several —
// and (b) that the merged output arrives in window-close order. Run with
// -race to exercise the router/shard/merge handoffs.
func TestShardedMatchesSerial(t *testing.T) {
	harness.VerifyNoLeaks(t)
	events := deterministicStream(2000)
	perWindow := map[int]int{} // maxMatches -> serial complex events
	for _, maxMatches := range []int{1, 3} {
		opCfg := overlappingOpConfig()
		opCfg.MaxMatchesPerWindow = maxMatches
		serial, _ := runCollect(t, Config{Operator: opCfg}, events)
		if len(serial) == 0 {
			t.Fatal("serial run detected nothing; bad test setup")
		}
		perWindow[maxMatches] = len(serial)
		for _, shards := range []int{2, 4} {
			sharded, st := runCollect(t, Config{Operator: opCfg, Shards: shards}, events)
			if !reflect.DeepEqual(serial, sharded) {
				t.Fatalf("shards=%d matches=%d: output differs from serial (%d vs %d complex events)",
					shards, maxMatches, len(sharded), len(serial))
			}
			// Count windows of one fixed size close in open order, so
			// window-close order means non-decreasing window IDs.
			for i := 1; i < len(sharded); i++ {
				if sharded[i].WindowID < sharded[i-1].WindowID {
					t.Fatalf("shards=%d: complex event %d out of window-close order: %d after %d",
						shards, i, sharded[i].WindowID, sharded[i-1].WindowID)
				}
			}
			if len(st.Shards) != shards {
				t.Fatalf("shards=%d: Stats has %d shard entries", shards, len(st.Shards))
			}
			var kept uint64
			for _, ss := range st.Shards {
				kept += ss.Kept
			}
			if kept != st.Operator.MembershipsKept || kept == 0 {
				t.Errorf("shards=%d: per-shard kept %d != rollup %d", shards, kept, st.Operator.MembershipsKept)
			}
			if st.Processed != uint64(len(events)) {
				t.Errorf("shards=%d: processed %d events, want %d", shards, st.Processed, len(events))
			}
		}
	}
	if perWindow[3] <= perWindow[1] {
		t.Errorf("MaxMatchesPerWindow 3 detected %d complex events, no more than the %d of 1",
			perWindow[3], perWindow[1])
	}
}

// TestShardedLatencySamples asserts every event contributes exactly one
// latency sample in sharded mode, as in the serial path.
func TestShardedLatencySamples(t *testing.T) {
	harness.VerifyNoLeaks(t)
	events := deterministicStream(500)
	p, err := New(Config{Operator: overlappingOpConfig(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	go func() {
		for range p.Out() {
		}
	}()
	p.SubmitBatch(events)
	p.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := p.Latency().Len(); got != len(events) {
		t.Errorf("latency samples = %d, want %d", got, len(events))
	}
}

// TestShardOpsPerEvent pins the op stream's unit: a shard receives one
// op per event routed to it, not one per membership. Every event of the
// stream joins k overlapping count windows spread over two shards, and
// each shard's queue is drained by the test instead of the shard, so
// the ops are counted exactly as the partitioner staged them: per shard,
// ops = events routed there + opens + closes, while the batches still
// account k memberships per event for the backlog.
func TestShardOpsPerEvent(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const k = 8
	spec := window.Spec{Mode: window.ModeCount, Count: k, Slide: 1}
	events := deterministicStream(3000)
	ref, err := window.NewManager(spec)
	if err != nil {
		t.Fatal(err)
	}
	memberships := 0
	for _, ev := range events {
		m, _ := ref.Route(ev)
		memberships += len(m)
	}
	ref.Flush()

	opCfg := opConfig(nil)
	opCfg.Window = spec
	p, err := New(Config{Operator: opCfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	type tally struct{ ops, events, opens, closes, members int }
	tallies := make([]tally, len(p.shards))
	var wg sync.WaitGroup
	for i, s := range p.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := &tallies[i]
			for b := range s.in {
				tl.ops += len(b.ops)
				tl.members += b.members
				routed := map[uint64]bool{}
				for _, op := range b.ops {
					switch op.kind & opKindMask {
					case opOpen:
						tl.opens++
					case opClose:
						tl.closes++
					default:
						routed[b.events[op.evIdx].Seq] = true
					}
				}
				tl.events += len(routed)
			}
		}()
	}
	p.SubmitBatch(events)
	p.CloseInput()
	wg.Wait()

	var opens, closes, members int
	for i, tl := range tallies {
		if tl.events == 0 {
			t.Errorf("shard %d: no events routed; bad test setup", i)
		}
		if tl.ops != tl.events+tl.opens+tl.closes {
			t.Errorf("shard %d: %d ops for %d events, %d opens and %d closes: the stream carries per-membership ops",
				i, tl.ops, tl.events, tl.opens, tl.closes)
		}
		opens += tl.opens
		closes += tl.closes
		members += tl.members
	}
	if uint64(opens) != ref.TotalOpened() || uint64(closes) != ref.TotalClosed() {
		t.Errorf("staged %d opens and %d closes, want %d and %d",
			opens, closes, ref.TotalOpened(), ref.TotalClosed())
	}
	if members != memberships {
		t.Errorf("batches account %d memberships, want %d (k=%d per event)", members, memberships, k)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative QueueCap", Config{Operator: opConfig(nil), QueueCap: -1}},
		{"negative OutBuffer", Config{Operator: opConfig(nil), OutBuffer: -5}},
		{"negative Shards", Config{Operator: opConfig(nil), Shards: -2}},
		{"decider count mismatch", Config{
			Operator: opConfig(nil), Shards: 2,
			ShardDeciders: []operator.Decider{nil, nil, nil},
		}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
	// Zero values still mean "use defaults".
	if _, err := New(Config{Operator: opConfig(nil)}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestSubmitBatchCountsOnce(t *testing.T) {
	harness.VerifyNoLeaks(t)
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
	events := deterministicStream(100)
	p.SubmitBatch(events[:60])
	p.SubmitBatch(events[60:])
	p.SubmitBatch(nil)
	p.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Submitted != 100 || st.Processed != 100 {
		t.Errorf("stats after batches: %+v", st)
	}
}

func TestShardedContextCancel(t *testing.T) {
	harness.VerifyNoLeaks(t)
	p, err := New(Config{Operator: overlappingOpConfig(), Shards: 4,
		ProcessingDelay: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	go func() {
		for range p.Out() {
		}
	}()
	p.SubmitBatch(deterministicStream(5000))
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sharded Run did not return after cancel")
	}
}

func ExamplePipeline_sharded() {
	p, err := New(Config{Operator: overlappingOpConfig(), Shards: 4})
	if err != nil {
		panic(err)
	}
	go p.Run(context.Background())
	go func() {
		p.SubmitBatch(deterministicStream(40))
		p.CloseInput()
	}()
	n := 0
	for range p.Out() {
		n++
	}
	fmt.Println("complex events:", n)
	// Output: complex events: 8
}

// TestShardedWindowReuseHookIntegrity churns thousands of pooled windows
// through a sharded pipeline with an OnWindowClose hook and asserts the
// hook always observes live (in-range, own-window) data: a shard must
// never recycle a window into its pool, or trim its ring, before the
// hook is done with it.
// The hook runs on the shard goroutines — concurrently across shards,
// per the sharded OnWindowClose contract — so its counters are atomic.
// Run with -race to exercise the full handoff.
func TestShardedWindowReuseHookIntegrity(t *testing.T) {
	harness.VerifyNoLeaks(t)
	var hookWindows, hookEntries, badEntries atomic.Int64
	cfg := overlappingOpConfig()
	cfg.OnWindowClose = func(w *window.Window, matched []window.Entry) {
		hookWindows.Add(1)
		if !w.Closed() {
			badEntries.Add(1)
		}
		lastPos := -1
		v := w.Entries()
		for i := 0; i < v.Len(); i++ {
			ent := v.At(i)
			hookEntries.Add(1)
			if ent.Pos <= lastPos || ent.Pos >= w.Size() {
				badEntries.Add(1)
			}
			lastPos = ent.Pos
			if ent.Ev.Type != event.Type(ent.Ev.Seq%2) {
				badEntries.Add(1) // detached or cross-window data
			}
		}
		for _, ent := range matched {
			if ent.Pos < 0 || ent.Pos >= w.Size() {
				badEntries.Add(1)
			}
		}
	}
	events := deterministicStream(6000)
	detected, st := runCollect(t, Config{Operator: cfg, Shards: 4}, events)
	if len(detected) == 0 {
		t.Fatal("no complex events; bad test setup")
	}
	if hookWindows.Load() == 0 || hookEntries.Load() == 0 {
		t.Fatal("hook never ran")
	}
	if n := badEntries.Load(); n != 0 {
		t.Fatalf("%d corrupt entries observed in OnWindowClose", n)
	}
	if uint64(hookWindows.Load()) != st.Operator.WindowsClosed {
		t.Errorf("hook saw %d windows, closed %d", hookWindows.Load(), st.Operator.WindowsClosed)
	}
}
