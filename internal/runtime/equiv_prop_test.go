package runtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/window"
)

// dropFunc is a deterministic, stateless shedding decider: safe to share
// across shards, and its decisions depend only on the membership
// coordinates — exactly the property the shard=N ≡ shard=1 contract
// needs from a shedder.
type dropFunc func(t event.Type, pos, ws int) bool

func (f dropFunc) DropCounted(_ window.ID, t event.Type, pos, ws int) (bool, bool) {
	return f(t, pos, ws), true
}

func (dropFunc) TallyDecisions(uint64, uint64) {}

func (dropFunc) Active() bool { return true }

// The shedders the equivalence suites run a workload under: the
// workload's own choice (dropFunc or none), then the paper's shedder and
// its two baselines, each held at a fixed drop amount.
const (
	shedWorkload = iota
	shedESPICE
	shedBL
	shedRandom
	numShedKinds
)

var shedKindNames = [numShedKinds]string{"workload", "espice", "bl", "random"}

// equivModel is a trained three-type model over 16 positions whose
// utilities make Configure(two partitions of 8, x = 4) draw the border
// coin: the irrelevant type C (2) has utility 0 and always drops, B (1)
// sits exactly on the first half's threshold (10) and A (0) on the
// second half's (20), each dropping with probability 1/2.
func equivModel(tb testing.TB) *core.Model {
	tb.Helper()
	const n = 16
	ut, err := core.NewUtilityTable(3, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	shares := make([][]float64, 3)
	for typ := range shares {
		shares[typ] = make([]float64, n)
		for pos := 0; pos < n; pos++ {
			shares[typ][pos] = 1.0 / 3
			u := [3]int{20, 10, 0}[typ]
			if typ == 1 && pos >= n/2 {
				u = 30
			}
			ut.Set(event.Type(typ), pos, u)
		}
	}
	m, err := core.NewModelFromTable(ut, shares)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// newEquivDecider builds a fresh decider of the given kind at its fixed
// state; every call returns an identically configured one.
func newEquivDecider(tb testing.TB, kind int) operator.Decider {
	tb.Helper()
	switch kind {
	case shedESPICE:
		s, err := core.NewShedder(equivModel(tb))
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Configure(core.Partitioning{Rho: 2, PSize: 8, WS: 16}, 4); err != nil {
			tb.Fatal(err)
		}
		// B at position 0 sits on the first half's threshold: its coin
		// must come down both ways across windows.
		outcomes := map[bool]bool{}
		for win := window.ID(0); win < 64; win++ {
			drop, _ := s.DropCounted(win, typeB, 0, 16)
			outcomes[drop] = true
		}
		if len(outcomes) != 2 {
			tb.Fatalf("border coin came down only %v", outcomes)
		}
		return s
	case shedBL:
		b, err := baseline.NewBL(baseline.BLConfig{
			Types:   3,
			Weights: pattern.TypeWeights{PerType: map[event.Type]float64{typeA: 1, typeB: 1}},
			Freq:    []float64{3, 3, 3},
			Seed:    1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		b.SetDropAmount(3, 9)
		return b
	case shedRandom:
		r := baseline.NewRandom(1)
		r.SetDropAmount(1, 4)
		return r
	}
	return nil
}

// propWorkload is one randomized overlapping-window workload.
type propWorkload struct {
	label  string
	spec   window.Spec
	events []event.Event
	shed   bool
}

// makeWorkload derives a workload from a seed: one of three random
// (overlapping) window geometries, a random-length stream of randomly
// typed events with either irregular or bursty (skewed) timestamp gaps,
// and optionally a deterministic shedder. The geometries are count
// windows (closed by count after their last event is routed), sliding
// time windows (closed by expiry before the next event is routed), and
// Q2's shape: time windows opened by a predicate on every A event, plus
// a Close predicate that seals every open window before routing the
// closing event. Bursty streams pack most events into dense clusters
// separated by long quiet gaps, so time-based windows opened inside a
// burst are far larger than the rest — the hot-window skew load-aware
// placement spreads.
func makeWorkload(seed uint64, nEvents int) propWorkload {
	rng := rand.New(rand.NewSource(int64(seed)))
	w := propWorkload{shed: rng.Intn(2) == 0}
	burst := rng.Intn(2) == 0
	if nEvents <= 0 {
		nEvents = 200 + rng.Intn(1200)
	}
	// math/rand's Intn(4) is Intn(2) plus one more bit, so the seeds that
	// drew the two older geometries from Intn(2) keep their workloads;
	// the predicate geometry takes one of the time half's two values.
	switch rng.Intn(4) {
	case 0, 2:
		count := 3 + rng.Intn(22)
		slide := 1 + rng.Intn(count)
		w.spec = window.Spec{Mode: window.ModeCount, Count: count, Slide: slide}
		w.label = fmt.Sprintf("seed=%d/count=%d/slide=%d/n=%d/shed=%v/burst=%v",
			seed, count, slide, nEvents, w.shed, burst)
	case 3:
		length := event.Time(5+rng.Intn(45)) * event.Millisecond
		slide := event.Time(1+rng.Intn(20)) * event.Millisecond
		w.spec = window.Spec{Mode: window.ModeTime, Length: length, SlideTime: slide}
		w.label = fmt.Sprintf("seed=%d/time=%v/slide=%v/n=%d/shed=%v/burst=%v",
			seed, length, slide, nEvents, w.shed, burst)
	case 1:
		length := event.Time(5+rng.Intn(45)) * event.Millisecond
		closeEvery := uint64(8 + rng.Intn(40))
		w.spec = window.Spec{
			Mode:   window.ModeTime,
			Length: length,
			Open:   func(e event.Event) bool { return e.Type == typeA },
			Close:  func(e event.Event) bool { return e.Type == 2 && e.Seq%closeEvery == 0 },
		}
		w.label = fmt.Sprintf("seed=%d/open=A/time=%v/close=%d/n=%d/shed=%v/burst=%v",
			seed, length, closeEvery, nEvents, w.shed, burst)
	}
	w.events = make([]event.Event, nEvents)
	ts := event.Time(0)
	for i := range w.events {
		if burst {
			// ~90% of events arrive back-to-back inside a burst; the
			// rest open long quiet gaps between bursts.
			if rng.Intn(10) == 0 {
				ts += event.Time(5+rng.Intn(20)) * event.Millisecond
			}
		} else {
			ts += event.Time(rng.Intn(3)) * event.Millisecond
		}
		w.events[i] = event.Event{
			Seq:  uint64(i),
			TS:   ts,
			Type: event.Type(rng.Intn(3)),
		}
	}
	return w
}

// config assembles the workload's pipeline under a fresh decider of the
// given kind.
func (w propWorkload) config(tb testing.TB, kind int) Config {
	p := pattern.MustCompile(pattern.Pattern{
		Name: "seq(A;B)",
		Steps: []pattern.Step{
			{Types: []event.Type{typeA}},
			{Types: []event.Type{typeB}},
		},
	})
	cfg := Config{Operator: operator.Config{
		Window:   w.spec,
		Patterns: []*pattern.Compiled{p},
	}}
	switch {
	case kind != shedWorkload:
		cfg.Operator.Shedder = newEquivDecider(tb, kind)
	case w.shed:
		cfg.Operator.Shedder = dropFunc(func(t event.Type, pos, ws int) bool {
			return (int(t)+pos)%3 == 0
		})
	}
	return cfg
}

// streamSignature renders a complex-event stream byte-comparable:
// identity, pattern and detection time, in emission order.
func streamSignature(ces []operator.ComplexEvent) string {
	var b strings.Builder
	for _, ce := range ces {
		fmt.Fprintf(&b, "%s|%s|%d\n", ce.Key(), ce.Pattern, ce.DetectedAt)
	}
	return b.String()
}

// TestShardedEquivalenceProperty is the property sweep behind the
// scale-out refactor: over randomized overlapping-window workloads
// (count, sliding time and predicate-opened time windows with a Close
// predicate — so closes staged both before and after a shard's event op
// — skewed and uniform arrivals, with and without shedding), every
// sharded pipeline in {2,4,8} emits a byte-identical complex-event
// stream to the serial pipeline and sheds the same memberships. The
// paper's shedder and both baselines, each shared by all shards at a
// fixed drop amount, run every workload too, at {2,4} shards, and a
// second serial run must shed exactly as the first. Run with -race to
// exercise the partitioner, shard and epoch-merge handoffs.
func TestShardedEquivalenceProperty(t *testing.T) {
	harness.VerifyNoLeaks(t)
	for seed := uint64(1); seed <= 9; seed++ { // seed 9 draws the predicate geometry
		w := makeWorkload(seed, 0)
		t.Run(w.label, func(t *testing.T) {
			for kind := 0; kind < numShedKinds; kind++ {
				t.Run(shedKindNames[kind], func(t *testing.T) { checkShardedEquivalence(t, w, kind) })
			}
		})
	}
}

// checkShardedEquivalence runs w under a decider of the given kind,
// serial and sharded, and compares outputs and shed counts.
func checkShardedEquivalence(t *testing.T, w propWorkload, kind int) {
	serial, sst := runCollect(t, w.config(t, kind), w.events)
	want := streamSignature(serial)
	if want == "" {
		t.Skip("workload detects nothing; equivalence would be vacuous")
	}
	shardCounts := []int{2, 4, 8}
	if kind != shedWorkload {
		shardCounts = shardCounts[:2]
		if sst.Operator.MembershipsShed == 0 || sst.Operator.MembershipsKept == 0 {
			t.Errorf("fixed-state shedder split memberships %+v; want both kept and shed", sst.Operator)
		}
		if _, again := runCollect(t, w.config(t, kind), w.events); again.Operator != sst.Operator {
			t.Errorf("second serial run counted %+v, first %+v", again.Operator, sst.Operator)
		}
	}
	for _, shards := range shardCounts {
		cfg := w.config(t, kind)
		cfg.Shards = shards
		sharded, st := runCollect(t, cfg, w.events)
		if got := streamSignature(sharded); got != want {
			t.Errorf("shards=%d: stream differs from serial (%d vs %d complex events)",
				shards, len(sharded), len(serial))
		}
		if st.Operator.MembershipsShed != sst.Operator.MembershipsShed {
			t.Errorf("shards=%d: shed %d memberships, serial %d",
				shards, st.Operator.MembershipsShed, sst.Operator.MembershipsShed)
		}
	}
}

// bareOperatorSignature is the reference of the submit-shape sweep: the
// workload's events fed one by one to a bare operator.Operator — no
// queue, no chunks, no goroutines — and flushed at the last timestamp.
func bareOperatorSignature(t *testing.T, w propWorkload) string {
	t.Helper()
	op, err := operator.New(w.config(t, shedWorkload).Operator)
	if err != nil {
		t.Fatal(err)
	}
	var ces []operator.ComplexEvent
	for _, e := range w.events {
		ces = append(ces, op.Process(e)...)
	}
	ces = append(ces, op.Flush(w.events[len(w.events)-1].TS)...)
	return streamSignature(ces)
}

// TestSerialSubmitShapeEquivalence pins that how a stream is cut into
// input messages is invisible in the output: singles through Submit,
// batches below, at and above the 256-event chunk size, and a random mix
// of both all emit a complex-event stream byte-identical to a bare
// operator's, and the counters add up — without ProcessingDelay (one
// publish per message) and with it (one publish per sleep).
func TestSerialSubmitShapeEquivalence(t *testing.T) {
	harness.VerifyNoLeaks(t)
	shapes := []int{1, 7, 8, 64, 256, 257, 1000, 0} // 1: Submit; 0: mixed
	for seed := uint64(1); seed <= 6; seed++ {
		for _, delay := range []time.Duration{0, time.Microsecond} {
			nEvents := 0
			if delay > 0 {
				if seed > 2 {
					continue
				}
				nEvents = 100 // every kept event sleeps; keep the sweep short
			}
			w := makeWorkload(seed, nEvents)
			want := bareOperatorSignature(t, w)
			for _, shape := range shapes {
				rng := rand.New(rand.NewSource(int64(seed)))
				cfg := w.config(t, shedWorkload)
				cfg.ProcessingDelay = delay
				got, st := runCollectWith(t, cfg, func(p *Pipeline) {
					for rest := w.events; len(rest) > 0; {
						n := shape
						if n == 0 {
							n = 1 + rng.Intn(600)
						}
						n = min(n, len(rest))
						if n == 1 {
							p.Submit(rest[0])
						} else {
							p.SubmitBatch(rest[:n])
						}
						rest = rest[n:]
					}
				})
				if sig := streamSignature(got); sig != want {
					t.Errorf("%s/delay=%v/shape=%d: stream differs from the bare operator (%d complex events)",
						w.label, delay, shape, len(got))
				}
				if n := uint64(len(w.events)); st.Submitted != n || st.Processed != n ||
					st.Operator.EventsProcessed != n || st.QueueLen != 0 {
					t.Errorf("%s/delay=%v/shape=%d: counters after drain: %+v", w.label, delay, shape, st)
				}
			}
		}
	}
}

// FuzzShardedEquivalence lets the fuzzer search the workload space —
// including the skewed (bursty) arrival flavor baked into makeWorkload
// — for any divergence between the serial pipeline and a 4-shard
// deployment, at full speed or with a small processing delay that lets
// shard backlogs build and so steers placement, under the workload's
// own decider or one of the shared real shedders (kind).
func FuzzShardedEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(300), false, uint8(shedWorkload))
	f.Add(uint64(7), uint16(900), true, uint8(shedWorkload)) // predicate geometry
	f.Add(uint64(42), uint16(512), true, uint8(shedWorkload))
	f.Add(uint64(4), uint16(700), false, uint8(shedWorkload)) // predicate geometry
	f.Add(uint64(2), uint16(800), true, uint8(shedESPICE))
	f.Add(uint64(7), uint16(600), false, uint8(shedESPICE))
	f.Add(uint64(3), uint16(500), true, uint8(shedBL))
	f.Add(uint64(5), uint16(400), false, uint8(shedRandom))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, delay bool, kind uint8) {
		nEvents := int(n)%1000 + 50 // bound the per-input cost
		k := int(kind) % numShedKinds
		w := makeWorkload(seed, nEvents)
		serial, sst := runCollect(t, w.config(t, k), w.events)
		cfg := w.config(t, k)
		cfg.Shards = 4
		if delay {
			cfg.ProcessingDelay = 5 * time.Microsecond
		}
		sharded, st := runCollect(t, cfg, w.events)
		if want, got := streamSignature(serial), streamSignature(sharded); got != want {
			t.Fatalf("%s/%s delay=%v: sharded stream differs from serial (%d vs %d complex events)",
				w.label, shedKindNames[k], delay, len(sharded), len(serial))
		}
		if st.Operator.MembershipsShed != sst.Operator.MembershipsShed {
			t.Fatalf("%s/%s delay=%v: sharded run shed %d memberships, serial %d",
				w.label, shedKindNames[k], delay, st.Operator.MembershipsShed, sst.Operator.MembershipsShed)
		}
	})
}
