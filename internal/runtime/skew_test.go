package runtime

import (
	"testing"

	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/window"
)

// typeMark opens (and closes) the tumbling predicate windows used by the
// skew tests; the pattern matcher ignores it.
const typeMark = event.Type(2)

// tumblingSkewSpec is the windowing policy for the skewed workloads:
// marker events split the stream into tumbling predicate windows (each
// marker closes the open window and opens the next), so a window's size
// is exactly the number of events between its markers — the only way to
// give individual windows skewed sizes, since every event otherwise
// joins every open window. Length is a far-away backstop; timestamps
// advance by one microsecond per event.
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

func skewTestConfig(shards int) Config {
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
		Shards: shards,
	}
}

// TestShardPoolConservation churns skewed windows through a 4-shard
// pipeline and pins the pool-counter conservation contract per shard: a
// window is recycled into the pool of the shard it opened on, so at
// quiescence (every window closed and recycled) each shard has
// PoolGets == PoolPuts and zero occupancy. The output must stay
// byte-identical to the serial pipeline's.
func TestShardPoolConservation(t *testing.T) {
	harness.VerifyNoLeaks(t)
	events := tumblingSkewStream(24, 20, 800, 6)
	serial, _ := runCollect(t, skewTestConfig(0), events)
	want := streamSignature(serial)
	if want == "" {
		t.Fatal("workload detects nothing; bad test setup")
	}
	sharded, st := runCollect(t, skewTestConfig(4), events)
	if got := streamSignature(sharded); got != want {
		t.Fatalf("sharding changed the output (%d vs %d complex events)",
			len(sharded), len(serial))
	}
	used := 0
	for i, ss := range st.Shards {
		if ss.PoolGets > 0 {
			used++
		}
		if ss.PoolGets != ss.PoolPuts {
			t.Errorf("shard %d: PoolGets %d != PoolPuts %d at quiescence (misses %d)",
				i, ss.PoolGets, ss.PoolPuts, ss.PoolMisses)
		}
		if ss.Occupancy != 0 {
			t.Errorf("shard %d: occupancy %d after all windows closed, want 0",
				i, ss.Occupancy)
		}
	}
	if used < 2 {
		t.Errorf("windows opened on %d shard(s); the test exercised no placement", used)
	}
}
