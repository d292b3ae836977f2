package espice

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/queries"
	"repro/internal/window"
)

// benchScale keeps the per-iteration cost of the figure benchmarks
// moderate; run cmd/espice-bench for the full-scale reproduction.
func benchScale() harness.Scale {
	s := harness.QuickScale()
	s.NYSEMinutes = 40
	s.RTLSSeconds = 900
	s.Q1Sizes = []int{2, 6}
	s.Q2Sizes = []int{10, 80}
	s.Q34Windows = []int{300, 2000}
	s.BinSizes = []int{1, 16, 64}
	s.Rates = []float64{1.2}
	return s
}

// reportFigure exposes the figure's series means as benchmark metrics so
// `go test -bench` output doubles as a quality summary. Metric units must
// not contain whitespace, so labels are sanitized.
func reportFigure(b *testing.B, fig *harness.Figure, unit string) {
	b.Helper()
	clean := strings.NewReplacer(" ", "", ":", "_")
	for _, ser := range fig.Series {
		if len(ser.Y) == 0 {
			continue
		}
		sum := 0.0
		for _, y := range ser.Y {
			sum += y
		}
		b.ReportMetric(sum/float64(len(ser.Y)), clean.Replace(ser.Label)+"_"+unit)
	}
}

func benchFigure(b *testing.B, fn func(harness.Scale) (*harness.Figure, error), unit string) {
	b.Helper()
	s := benchScale()
	for i := 0; i < b.N; i++ {
		fig, err := fn(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig, unit)
		}
	}
}

// --- One benchmark per table/figure of the paper's evaluation ----------

func BenchmarkTable1RunningExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunningExample(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5aQ1FirstFN(b *testing.B) { benchFigure(b, harness.Fig5a, "FN%") }
func BenchmarkFig5bQ1LastFN(b *testing.B)  { benchFigure(b, harness.Fig5b, "FN%") }
func BenchmarkFig5cQ2FirstFN(b *testing.B) { benchFigure(b, harness.Fig5c, "FN%") }
func BenchmarkFig5dQ2LastFN(b *testing.B)  { benchFigure(b, harness.Fig5d, "FN%") }
func BenchmarkFig5eQ3FN(b *testing.B)      { benchFigure(b, harness.Fig5e, "FN%") }
func BenchmarkFig5fQ4FN(b *testing.B)      { benchFigure(b, harness.Fig5f, "FN%") }
func BenchmarkFig6aQ1FP(b *testing.B)      { benchFigure(b, harness.Fig6a, "FP%") }
func BenchmarkFig6bQ3FP(b *testing.B)      { benchFigure(b, harness.Fig6b, "FP%") }

func BenchmarkFig7Latency(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		fig, err := harness.Fig7(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// Report the peak per-second mean latency: must stay < 1s.
			maxLat := 0.0
			for _, ser := range fig.Series {
				for _, y := range ser.Y {
					if y > maxLat {
						maxLat = y
					}
				}
			}
			b.ReportMetric(maxLat, "peak_latency_s")
		}
	}
}

func BenchmarkFig8aVariableWindowQ1(b *testing.B) { benchFigure(b, harness.Fig8a, "FN%") }
func BenchmarkFig8bVariableWindowQ2(b *testing.B) { benchFigure(b, harness.Fig8b, "FN%") }
func BenchmarkFig9aBinSizeQ1(b *testing.B)        { benchFigure(b, harness.Fig9a, "FN%") }
func BenchmarkFig9bBinSizeQ2(b *testing.B)        { benchFigure(b, harness.Fig9b, "FN%") }

func BenchmarkFig10ShedderOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.MeasureShedderOverhead([]int{2000, 4000, 16000}, 500, 1000)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig, "overhead%")
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ------

func BenchmarkAblationPartitioning(b *testing.B) { benchFigure(b, harness.AblationPartitioning, "val") }
func BenchmarkAblationShedders(b *testing.B)     { benchFigure(b, harness.AblationShedders, "FN%") }

// BenchmarkAblationExactVsAtLeast contrasts exact-amount dropping with
// the literal Algorithm 2 (drop at least x): the at-least variant drops
// every event at or below the threshold. Each iteration decides one
// whole window whose types are drawn from the model's per-position
// shares (drawnWindows), the stream the shedder's CDT expects, so exact
// mode drops x = 50 of every 200-event partition (25 %) and at-least a
// little more. drop% does not depend on b.N.
func BenchmarkAblationExactVsAtLeast(b *testing.B) {
	const ws = 2000
	m, windows := drawnWindows(b, 500, ws, 64)
	part := core.ComputePartitioning(ws, 1000, 0.8)
	for _, exact := range []bool{true, false} {
		name := "atleast"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			s, err := core.NewShedder(m)
			if err != nil {
				b.Fatal(err)
			}
			s.SetExactAmount(exact)
			if err := s.Configure(part, 50); err != nil {
				b.Fatal(err)
			}
			drops := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for pos, t := range windows[i%len(windows)] {
					if drop, _ := s.DropCounted(window.ID(i), t, pos, ws); drop {
						drops++
					}
				}
			}
			b.ReportMetric(float64(drops)/float64(b.N*ws)*100, "drop%")
		})
	}
}

// drawnWindows builds a synthetic model of n positions whose type
// shares are normalised to one expected event per position, and draws
// the types of count windows from those shares.
func drawnWindows(tb testing.TB, types, n, count int) (*core.Model, [][]event.Type) {
	tb.Helper()
	ut, err := core.NewUtilityTable(types, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	shares := make([][]float64, types)
	for t := range shares {
		shares[t] = make([]float64, n)
	}
	cum := make([][]float64, n) // cum[p][t]: the shares of types <= t at p
	for p := range cum {
		var sum float64
		for t := range shares {
			ut.Set(event.Type(t), p, rng.Intn(101))
			shares[t][p] = rng.Float64()
			sum += shares[t][p]
		}
		cum[p] = make([]float64, types)
		var acc float64
		for t := range shares {
			shares[t][p] /= sum
			acc += shares[t][p]
			cum[p][t] = acc
		}
	}
	m, err := core.NewModelFromTable(ut, shares)
	if err != nil {
		tb.Fatal(err)
	}
	windows := make([][]event.Type, count)
	for w := range windows {
		windows[w] = make([]event.Type, n)
		for p := range windows[w] {
			windows[w][p] = event.Type(min(sort.SearchFloat64s(cum[p], rng.Float64()), types-1))
		}
	}
	return m, windows
}

// markerType opens and closes the tumbling predicate windows of the
// skewed shard benchmarks; the seq(A;B) matcher ignores it.
const markerType = Type(2)

func isMarker(e Event) bool { return e.Type == markerType }

// skewWindowSpec is the windowing policy of the skewed shard
// benchmarks: marker events split the stream into tumbling predicate
// windows, so one window's size is exactly the events between its
// markers — the only policy that gives individual windows skewed sizes
// (with sliding windows every event joins every open window and all
// windows see the same load). Length is a far-away backstop.
func skewWindowSpec() WindowSpec {
	return WindowSpec{Mode: ModeTime, Length: 1 << 40, Open: isMarker, Close: isMarker}
}

// hotWindowEvents builds the hot-window skew stream: every 20th window
// is dense (640 events vs 8), putting ~81% of the stream into 5% of the
// windows. Hot window ordinals are ≡ 0 (mod 20), so under a static
// windowID%N placement every hot window of a 2-, 4- or 8-shard
// deployment lands on the same shard — the degenerate case load-aware
// placement exists to fix.
func hotWindowEvents(n int) []Event {
	const (
		cold     = 8
		hot      = 640
		hotEvery = 20
	)
	events := make([]Event, 0, n)
	for w := 0; len(events) < n; w++ {
		fill := cold
		if w%hotEvery == 0 {
			fill = hot
		}
		events = append(events, Event{Type: markerType})
		for i := 0; i < fill && len(events) < n; i++ {
			events = append(events, Event{Type: Type(i % 2)})
		}
	}
	events = events[:n]
	for i := range events {
		events[i].Seq = uint64(i)
		events[i].TS = Time(i)
	}
	return events
}

// zipfWindowEvents draws each window's size from a seeded Zipf
// distribution (s=1.3, v=2, max 512): many tiny windows, a heavy tail
// of large ones — the smooth-skew companion to hotWindowEvents.
func zipfWindowEvents(n int) []Event {
	z := rand.NewZipf(rand.New(rand.NewSource(42)), 1.3, 2, 512)
	events := make([]Event, 0, n)
	for len(events) < n {
		fill := int(z.Uint64()) + 2
		events = append(events, Event{Type: markerType})
		for i := 0; i < fill && len(events) < n; i++ {
			events = append(events, Event{Type: Type(i % 2)})
		}
	}
	events = events[:n]
	for i := range events {
		events[i].Seq = uint64(i)
		events[i].TS = Time(i)
	}
	return events
}

// BenchmarkPipelineShards measures the live pipeline in two regimes.
//
// The delayed families (shards=N, skew/{hotwindow,zipf}/shards=N)
// measure blocking-operator overlap: each kept membership costs a fixed
// sleep, so the serial pipeline is capped at 1/delay memberships per
// second while N shards overlap N sleeps — throughput should scale
// near-linearly from 1 to 4 shards. The skew variants route hot-window
// and Zipf-sized tumbling windows under that delay and so measure how
// well load-aware placement keeps skewed streams overlapping
// (cmd/benchjson compare gates kept_ev/s monotonicity per variant when
// the machine has >= 4 procs).
//
// The nodelay families (nodelay/shards=N, nodelay/skew/...) measure CPU:
// the same data paths at full speed, so ns/op and allocs/op reflect the
// real per-event cost of routing, shedding, buffering and matching.
// nodelay/shards=N uses overlapping count windows (8 memberships per
// event); nodelay/skew uses the skew streams and windows unchanged.
func BenchmarkPipelineShards(b *testing.B) {
	const delay = 50 * time.Microsecond
	run := func(b *testing.B, shards int, d time.Duration, spec WindowSpec, events []Event) {
		p, err := NewPipeline(PipelineConfig{
			Operator: OperatorConfig{
				Window:   spec,
				Patterns: []*CompiledPattern{mustCompileSeqAB(b)},
			},
			Shards:          shards,
			ProcessingDelay: d,
		})
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- p.Run(context.Background()) }()
		go func() {
			for range p.Out() {
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		p.SubmitBatch(events)
		p.CloseInput()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		kept := p.Stats().Operator.MembershipsKept
		b.ReportMetric(float64(kept)/b.Elapsed().Seconds(), "kept_ev/s")
	}
	uniformEvents := func(n int) []Event {
		events := make([]Event, n)
		for i := range events {
			events[i] = Event{Seq: uint64(i), TS: Time(i), Type: Type(i % 2)}
		}
		return events
	}
	// The shard sweep covers {1, 2, 4, 8} plus GOMAXPROCS when it is not
	// already in the list: the scaling contract is "shards=N monotonically
	// beats shards=1 up to GOMAXPROCS", so the machine's own core count is
	// always a measured point (cmd/benchjson compare gates regressions on
	// machines with >= 4 procs and warns elsewhere).
	shardCounts := []int{1, 2, 4, 8}
	if gmp := runtime.GOMAXPROCS(0); gmp != 1 && gmp != 2 && gmp != 4 && gmp != 8 {
		shardCounts = append(shardCounts, gmp)
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			run(b, shards, delay, WindowSpec{Mode: ModeCount, Count: 10, Slide: 10}, uniformEvents(b.N))
		})
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("nodelay/shards=%d", shards), func(b *testing.B) {
			run(b, shards, 0, WindowSpec{Mode: ModeCount, Count: 128, Slide: 16}, uniformEvents(b.N))
		})
	}
	for _, sk := range []struct {
		name string
		gen  func(int) []Event
	}{{"hotwindow", hotWindowEvents}, {"zipf", zipfWindowEvents}} {
		for _, shards := range shardCounts {
			b.Run(fmt.Sprintf("skew/%s/shards=%d", sk.name, shards), func(b *testing.B) {
				run(b, shards, delay, skewWindowSpec(), sk.gen(b.N))
			})
		}
		for _, shards := range shardCounts {
			b.Run(fmt.Sprintf("nodelay/skew/%s/shards=%d", sk.name, shards), func(b *testing.B) {
				run(b, shards, 0, skewWindowSpec(), sk.gen(b.N))
			})
		}
	}
}

// BenchmarkPipelineSerial measures what the serial pipeline adds around
// the operator per event — chunk copy, channel rendezvous, guard, clock,
// counter publication, backpressure accounting — as a function of how
// many events one input message carries: batch=1 goes through Submit,
// the others through SubmitBatch. Same windows and stream as
// BenchmarkPipelineShards/nodelay, so ns/op minus BenchmarkOperatorProcess
// is the plumbing; allocs/op should be ~0 once the chunk ring is warm.
func BenchmarkPipelineSerial(b *testing.B) {
	for _, batch := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			p, err := NewPipeline(PipelineConfig{
				Operator: OperatorConfig{
					Window:   WindowSpec{Mode: ModeCount, Count: 128, Slide: 16},
					Patterns: []*CompiledPattern{mustCompileSeqAB(b)},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- p.Run(context.Background()) }()
			go func() {
				for range p.Out() {
				}
			}()
			events := make([]Event, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				n := min(batch, b.N-i)
				for j := range events[:n] {
					events[j] = Event{Seq: uint64(i + j), TS: Time(i + j), Type: Type((i + j) % 2)}
				}
				if batch == 1 {
					p.Submit(events[0])
				} else {
					p.SubmitBatch(events[:n])
				}
			}
			p.CloseInput()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkOperatorProcess measures the serial operator data path alone —
// no channels, no goroutines: route into 8 overlapping count windows,
// shed (in the shed variant), buffer, and match seq(A;B) on every window
// close. This is the per-event cost the load shedder's O(1) budget is
// measured against; allocs/op should be ~0 in steady state. The
// inactive variant installs a trained shedder that was never
// configured, as the engine does for queries that are not overloaded:
// it should read as noshed, not as shed.
func BenchmarkOperatorProcess(b *testing.B) {
	events := make([]Event, 4096)
	for i := range events {
		events[i] = Event{Seq: uint64(i), TS: Time(i), Type: Type(i % 4)}
	}
	run := func(b *testing.B, shedder ShedDecider) {
		op, err := NewOperator(OperatorConfig{
			Window:   WindowSpec{Mode: ModeCount, Count: 128, Slide: 16},
			Patterns: []*CompiledPattern{mustCompileSeqAB(b)},
			Shedder:  shedder,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op.Process(events[i%len(events)])
		}
	}
	shedder := func(b *testing.B) *core.Shedder {
		s, err := core.NewShedder(syntheticModel(b, 4, 128))
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("noshed", func(b *testing.B) { run(b, nil) })
	b.Run("inactive", func(b *testing.B) { run(b, shedder(b)) })
	b.Run("shed", func(b *testing.B) {
		s := shedder(b)
		if err := s.Configure(core.ComputePartitioning(128, 64, 0.8), 4); err != nil {
			b.Fatal(err)
		}
		run(b, s)
	})
}

func mustCompileSeqAB(tb testing.TB) *CompiledPattern {
	tb.Helper()
	p, err := CompilePattern(Pattern{
		Name: "seq(A;B)",
		Steps: []PatternStep{
			{Types: []Type{Type(0)}},
			{Types: []Type{Type(1)}},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// --- Micro benchmarks on the hot path -----------------------------------

func syntheticModel(tb testing.TB, types, n int) *core.Model {
	tb.Helper()
	ut, err := core.NewUtilityTable(types, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	shares := make([][]float64, types)
	for t := 0; t < types; t++ {
		shares[t] = make([]float64, ut.Bins())
		for p := range shares[t] {
			ut.Set(event.Type(t), p, rng.Intn(101))
			shares[t][p] = rng.Float64()
		}
	}
	m, err := core.NewModelFromTable(ut, shares)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkShedderDecision measures the O(1) applyLS decision — the
// number the paper's Figure 10 divides by the event processing time.
func BenchmarkShedderDecision(b *testing.B) {
	m := syntheticModel(b, 500, 16000)
	s, err := core.NewShedder(m)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Configure(core.ComputePartitioning(16000, 1000, 0.8), 10); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	typs := make([]event.Type, 1024)
	poss := make([]int, 1024)
	for i := range typs {
		typs[i] = event.Type(rng.Intn(500))
		poss[i] = rng.Intn(16000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Drop(typs[i%1024], poss[i%1024], 16000)
	}
}

func BenchmarkCDTBuild(b *testing.B) {
	m := syntheticModel(b, 500, 2000)
	part := core.ComputePartitioning(2000, 1000, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildCDT(m, part); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThresholdLookup(b *testing.B) {
	m := syntheticModel(b, 500, 2000)
	cdt, err := core.BuildCDT(m, core.ComputePartitioning(2000, 1000, 0.8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdt.Threshold(i%cdt.Rho(), float64(i%200))
	}
}

func BenchmarkModelBuild(b *testing.B) {
	const types, n = 100, 1000
	mb, err := core.NewModelBuilder(core.ModelBuilderConfig{Types: types, N: n})
	if err != nil {
		b.Fatal(err)
	}
	w := &window.Window{ExpectedSize: n}
	rng := rand.New(rand.NewSource(2))
	for p := 0; p < n; p++ {
		w.Add(event.Event{Seq: uint64(p), Type: event.Type(rng.Intn(types))}, p)
		w.Arrivals++
	}
	matched := w.CopyKept(nil)[:20]
	for i := 0; i < 50; i++ {
		mb.ObserveWindow(w, matched)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mb.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUtilityLookupScaled(b *testing.B) {
	m := syntheticModel(b, 500, 2000)
	ut := m.UT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Window size differs from N: exercises the scaling path.
		ut.Utility(event.Type(i%500), i%1500, 1500)
	}
}

// benchPairQuery builds a seq(A;B) query over the type pair (2i, 2i+1)
// of an 8-type stream, with a tumbling time window — the multi-query
// fan-out workload.
func benchPairQuery(tb testing.TB, i int) queries.Query {
	tb.Helper()
	a, b := event.Type(2*i), event.Type(2*i+1)
	p, err := CompilePattern(Pattern{
		Name: fmt.Sprintf("pair%d", i),
		Steps: []PatternStep{
			{Types: []Type{a}},
			{Types: []Type{b}},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return queries.Query{
		Name:     fmt.Sprintf("pair%d", i),
		Window:   WindowSpec{Mode: ModeTime, Length: 64 * Millisecond, SlideTime: 64 * Millisecond, SizeHint: 16},
		Patterns: []*CompiledPattern{p},
		NumTypes: 8,
	}
}

// BenchmarkEngineFanout contrasts the multi-query engine against the
// naive deployment for 3 queries over one 8-type stream: naive runs 3
// standalone pipelines that each re-filter the full stream (every event
// joins every pipeline's windows and pays the per-kept-membership cost),
// while the engine's type filters deliver each query only the quarter of
// the stream its patterns reference. The useful_kept_ev/s metric counts
// only pattern-relevant kept memberships, so it measures productive
// throughput; expect the engine at ~4x (>= the 2x acceptance bar).
func BenchmarkEngineFanout(b *testing.B) {
	const (
		nQueries = 3
		delay    = 50 * time.Microsecond
	)
	makeEvents := func(n int) []Event {
		events := make([]Event, n)
		for i := range events {
			events[i] = Event{Seq: uint64(i), TS: Time(i) * Millisecond, Type: Type(i % 8)}
		}
		return events
	}
	usefulCount := func(events []Event) float64 {
		// Events whose type some query's pattern references: types 0..5.
		n := 0
		for _, ev := range events {
			if ev.Type < 2*nQueries {
				n++
			}
		}
		return float64(n)
	}

	b.Run("standalone-refilter", func(b *testing.B) {
		events := makeEvents(b.N)
		pipes := make([]*Pipeline, nQueries)
		for i := range pipes {
			q := benchPairQuery(b, i)
			p, err := NewPipeline(PipelineConfig{
				Operator:        OperatorConfig{Window: q.Window, Patterns: q.Patterns},
				ProcessingDelay: delay,
			})
			if err != nil {
				b.Fatal(err)
			}
			pipes[i] = p
		}
		b.ResetTimer()
		done := make(chan error, nQueries)
		for _, p := range pipes {
			go func(p *Pipeline) { done <- p.Run(context.Background()) }(p)
			go func(p *Pipeline) {
				for range p.Out() {
				}
			}(p)
			go func(p *Pipeline) { p.SubmitBatch(events); p.CloseInput() }(p)
		}
		for range pipes {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(usefulCount(events)/b.Elapsed().Seconds(), "useful_kept_ev/s")
	})

	runEngine := func(b *testing.B, perQueryDelay time.Duration) {
		events := makeEvents(b.N)
		eng, err := engine.New(engine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		handles := make([]*engine.Query, nQueries)
		for i := range handles {
			h, err := eng.Register(engine.QueryConfig{
				Query:           benchPairQuery(b, i),
				ProcessingDelay: perQueryDelay,
			})
			if err != nil {
				b.Fatal(err)
			}
			handles[i] = h
		}
		b.ReportAllocs()
		b.ResetTimer()
		done := make(chan error, 1)
		go func() { done <- eng.Run(context.Background()) }()
		for _, h := range handles {
			go func(h *engine.Query) {
				for range h.Out() {
				}
			}(h)
		}
		eng.SubmitBatch(events)
		eng.CloseInput()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		useful := 0.0
		for _, h := range handles {
			useful += float64(h.Stats().Delivered)
		}
		b.ReportMetric(useful/b.Elapsed().Seconds(), "useful_kept_ev/s")
	}

	b.Run("engine", func(b *testing.B) { runEngine(b, delay) })
	// nodelay runs the same fan-out at full speed: ns/op and allocs/op
	// reflect the real ingress + fan-out + per-query data path cost.
	b.Run("nodelay/engine", func(b *testing.B) { runEngine(b, 0) })
}

// BenchmarkCodecDecode measures the wire-to-event hot path of the
// ingest server: decoding one 256-event binary frame into the decoder's
// recycled scratch. In steady state this must be allocation-free (the
// zero-alloc gate lives in internal/transport); the retain variant pays
// exactly one Vals-slab allocation per frame for hand-off to a
// pipeline.
func BenchmarkCodecDecode(b *testing.B) {
	mkPayload := func() []byte {
		events := make([]Event, 256)
		for i := range events {
			events[i] = Event{
				Seq:  uint64(i),
				Type: Type(i % 16),
				TS:   Time(i) * Millisecond,
				Kind: Kind(i % 4),
				Vals: []float64{float64(i), 1.5, -3},
			}
		}
		var enc WireEncoder
		return enc.AppendEvents(nil, events)
	}
	b.Run("scratch", func(b *testing.B) {
		payload := mkPayload()
		var dec WireDecoder
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dec.DecodeEvents(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("retain", func(b *testing.B) {
		payload := mkPayload()
		dec := WireDecoder{Retain: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dec.DecodeEvents(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALAppend measures the durable-ingest journal. "stage" is
// the pure append path — header encode, CRC32C, staging-buffer copy —
// which must stay allocation-free (the zero-alloc gate in
// internal/wal's tests pins the same property); the periodic group
// commit that drains the staging buffer runs off the clock. "commit"
// measures a full journaled batch: one 256-event append plus its
// fsync-coalesced Commit, i.e. the per-batch durability cost a single
// uncontended producer pays.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	open := func(b *testing.B) *WAL {
		w, err := OpenWAL(WALConfig{Dir: b.TempDir(), SegmentSize: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Recover(func(WALRecord) error { return nil }); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { w.Close() })
		return w
	}
	b.Run("stage", func(b *testing.B) {
		w := open(b)
		// Warm BOTH staging buffers to steady-state size: commit swaps
		// the double-buffered staging pair, so it takes two full
		// fill+commit cycles before appends stop growing either one.
		var last uint64
		for cycle := 0; cycle < 2; cycle++ {
			for i := 0; i < 4096; i++ {
				var err error
				if last, err = w.Append(1, last+1, payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Commit(last); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq, err := w.Append(1, uint64(i+1), payload)
			if err != nil {
				b.Fatal(err)
			}
			if i%4096 == 4095 {
				b.StopTimer()
				if err := w.Commit(seq); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			last = seq
		}
		b.StopTimer()
		if err := w.Commit(last); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(payload)))
	})
	b.Run("commit", func(b *testing.B) {
		w := open(b)
		batch := make([]byte, 256*32) // ~a 256-event batch of 32B events
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq, err := w.Append(1, uint64(i+1), batch)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Commit(seq); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(batch)))
	})
}
