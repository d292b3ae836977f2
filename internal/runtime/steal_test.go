package runtime

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/window"
)

// typeMark opens (and closes) the tumbling predicate windows used by the
// skew tests; the pattern matcher ignores it.
const typeMark = event.Type(2)

// tumblingSkewSpec is the windowing policy for the skewed steal
// workloads: marker events split the stream into tumbling predicate
// windows (each marker closes the open window and opens the next), so a
// window's size is exactly the number of events between its markers —
// the only way to give individual windows skewed sizes, since every
// event otherwise joins every open window. Length is a far-away
// backstop; timestamps advance by one microsecond per event.
func tumblingSkewSpec() window.Spec {
	mark := func(e event.Event) bool { return e.Type == typeMark }
	return window.Spec{
		Mode:   window.ModeTime,
		Length: 1 << 40,
		Open:   mark,
		Close:  mark,
	}
}

// tumblingSkewStream builds nWindows tumbling windows of cold filler
// events each, except every hotEvery-th window which gets hot fillers —
// a hot-window skew where a few windows carry most of the stream.
// Fillers alternate A/B so seq(A;B) detects in every window.
func tumblingSkewStream(nWindows, cold, hot, hotEvery int) []event.Event {
	var events []event.Event
	ts, seq := event.Time(0), uint64(0)
	emit := func(typ event.Type) {
		events = append(events, event.Event{Seq: seq, TS: ts, Type: typ})
		seq++
		ts += event.Time(1)
	}
	for w := 0; w < nWindows; w++ {
		emit(typeMark)
		fill := cold
		if w%hotEvery == 0 {
			fill = hot
		}
		for i := 0; i < fill; i++ {
			emit(event.Type(i % 2))
		}
	}
	return events
}

func stealTestConfig(shards, threshold int, delay time.Duration) Config {
	p := pattern.MustCompile(pattern.Pattern{
		Name: "seq(A;B)",
		Steps: []pattern.Step{
			{Types: []event.Type{typeA}},
			{Types: []event.Type{typeB}},
		},
	})
	return Config{
		Operator: operator.Config{
			Window:   tumblingSkewSpec(),
			Patterns: []*pattern.Compiled{p},
		},
		Shards:          shards,
		stealThreshold:  threshold,
		ProcessingDelay: delay,
	}
}

// TestStealPoolConservation churns skewed windows through a 4-shard
// pipeline with an aggressive steal threshold and pins the pool-counter
// conservation contract across ownership handoffs: a stolen window's
// pool entry travels with it and is recycled into the adopting shard's
// pool without counting as a miss, so per shard PoolPuts + PoolMisses
// >= PoolGets always, and at quiescence (every window closed and
// recycled) the global sums satisfy PoolGets == PoolPuts exactly. The
// output must stay byte-identical to the serial pipeline's. Run with
// -race to exercise the evict/adopt rendezvous.
func TestStealPoolConservation(t *testing.T) {
	harness.VerifyNoLeaks(t)
	events := tumblingSkewStream(24, 20, 800, 6)
	serial, _ := runCollect(t, stealTestConfig(0, 0, 0), events)
	want := streamSignature(serial)
	if want == "" {
		t.Fatal("workload detects nothing; bad test setup")
	}
	sharded, st := runCollect(t, stealTestConfig(4, 4, 30*time.Microsecond), events)
	if got := streamSignature(sharded); got != want {
		t.Fatalf("stealing changed the output (%d vs %d complex events)",
			len(sharded), len(serial))
	}
	var gets, puts, misses, steals uint64
	for i, ss := range st.Shards {
		if ss.PoolGets > ss.PoolPuts+ss.PoolMisses {
			t.Errorf("shard %d: PoolGets %d > PoolPuts %d + PoolMisses %d",
				i, ss.PoolGets, ss.PoolPuts, ss.PoolMisses)
		}
		if ss.Occupancy != 0 {
			t.Errorf("shard %d: occupancy %d after all windows closed, want 0",
				i, ss.Occupancy)
		}
		gets += ss.PoolGets
		puts += ss.PoolPuts
		misses += ss.PoolMisses
		steals += ss.Steals
	}
	if gets != puts {
		t.Errorf("pool counters leak across handoffs: gets %d != puts %d (misses %d, steals %d)",
			gets, puts, misses, steals)
	}
	if steals == 0 {
		t.Error("no steals under a skewed backlog; the test exercised nothing")
	}
}

// TestHotWindowNoStarvation feeds one window ~90%% of the stream and
// asserts no shard starves: work stealing hands the hot window across
// shards, every shard processes memberships, and the output still
// matches the serial pipeline byte for byte.
func TestHotWindowNoStarvation(t *testing.T) {
	harness.VerifyNoLeaks(t)
	// 16 cold windows of 15 events around one hot window of 3000:
	// the hot window receives ~92% of all memberships.
	var events []event.Event
	events = append(events, tumblingSkewStream(8, 15, 15, 9)...)
	hot := tumblingSkewStream(1, 0, 3000, 1)
	for i := range hot {
		hot[i].Seq += uint64(len(events))
		hot[i].TS += events[len(events)-1].TS + 1
	}
	events = append(events, hot...)
	tail := tumblingSkewStream(8, 15, 15, 9)
	for i := range tail {
		tail[i].Seq += uint64(len(events))
		tail[i].TS += events[len(events)-1].TS + 1
	}
	events = append(events, tail...)

	serial, _ := runCollect(t, stealTestConfig(0, 0, 0), events)
	want := streamSignature(serial)
	if want == "" {
		t.Fatal("workload detects nothing; bad test setup")
	}
	sharded, st := runCollect(t, stealTestConfig(4, 4, 30*time.Microsecond), events)
	if got := streamSignature(sharded); got != want {
		t.Fatalf("stealing changed the output (%d vs %d complex events)",
			len(sharded), len(serial))
	}
	var steals uint64
	for i, ss := range st.Shards {
		if ss.Memberships == 0 {
			t.Errorf("shard %d starved: zero memberships while one window held ~90%% of the stream", i)
		}
		steals += ss.Steals
	}
	if steals == 0 {
		t.Error("hot window never moved: expected at least one steal")
	}
}

// TestStealDisabled pins the opt-out: a negative stealThreshold turns
// stealing off entirely — zero steals even under heavy skew — without
// changing the output.
func TestStealDisabled(t *testing.T) {
	harness.VerifyNoLeaks(t)
	events := tumblingSkewStream(12, 20, 600, 6)
	serial, _ := runCollect(t, stealTestConfig(0, 0, 0), events)
	sharded, st := runCollect(t, stealTestConfig(4, -1, 30*time.Microsecond), events)
	if want, got := streamSignature(serial), streamSignature(sharded); got != want {
		t.Fatalf("disabling stealing changed the output (%d vs %d complex events)",
			len(sharded), len(serial))
	}
	for i, ss := range st.Shards {
		if ss.Steals != 0 {
			t.Errorf("shard %d: %d steals with stealThreshold < 0", i, ss.Steals)
		}
	}
}
