package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/operator"
	"repro/internal/parallel"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/window"
)

// isolatedPasses times each layer's public functions on the workload's
// own stream, one layer at a time with nothing else running. The stream
// prefix grows with -seconds (50 000 events per second, at most 1 M).
func isolatedPasses(o options, prep *prepared, m metricSet) error {
	n := int(50_000 * o.seconds)
	n = min(max(n, 2_000), 1_000_000)
	tl := prep.paced.tiles[0]
	batch := prep.paced.batch
	events := make([]event.Event, n)
	tl.fill(events, 0, 0)

	isolatedCodec(events, batch, m)
	if err := isolatedNullSink(o, prep, m); err != nil {
		return err
	}
	if err := isolatedOperator(prep.query, events, m); err != nil {
		return err
	}
	isolatedMerge(n/5, m)
	for _, shards := range []int{1, 2} {
		rate, err := inprocSlice(prep.query, events, shards)
		if err != nil {
			return err
		}
		name := "runtime.serial_inproc_events_per_s"
		if shards > 1 {
			name = "runtime.sharded_inproc_events_per_s"
		}
		m.set(name, rate, n)
	}
	if prep.engine {
		if err := isolatedEngine(prep, n, m); err != nil {
			return err
		}
	}
	if prep.shedder != nil {
		isolatedShedder(prep, events, m)
	}
	return nil
}

// isolatedCodec times Encoder.AppendEventsFrame and Decoder.DecodeEvents
// over the stream cut into the workload's frames.
func isolatedCodec(events []event.Event, batch int, m metricSet) {
	var enc transport.Encoder
	var payloads [][]byte
	var frame []byte
	bytes := 0
	t0 := time.Now()
	for off := 0; off+batch <= len(events); off += batch {
		frame = enc.AppendEventsFrame(frame[:0], events[off:off+batch])
		bytes += len(frame)
	}
	encoded := len(events) / batch * batch
	m.set("transport.codec.encode_ns_per_event", float64(time.Since(t0).Nanoseconds())/float64(encoded), encoded)
	m.set("transport.codec.bytes_per_event", float64(bytes)/float64(encoded), encoded)

	for off := 0; off+batch <= len(events) && len(payloads) < 512; off += batch {
		payloads = append(payloads, enc.AppendEvents(nil, events[off:off+batch]))
	}
	dec := transport.Decoder{Retain: true} // as the server decodes
	decoded := 0
	t0 = time.Now()
	for decoded < encoded {
		for _, p := range payloads {
			evs, err := dec.DecodeEvents(p)
			if err != nil {
				panic(err) // bytes the encoder just produced
			}
			decoded += len(evs)
		}
	}
	m.set("transport.codec.decode_ns_per_event", float64(time.Since(t0).Nanoseconds())/float64(decoded), decoded)
}

// nullSide discards every batch: what is left is the transport's cost.
type nullSide struct{ done chan error }

func (nullSide) SubmitBatch([]event.Event) {}
func (s nullSide) run(context.Context) <-chan error {
	return s.done
}
func (nullSide) outputs() []output                  { return nil }
func (nullSide) drained(uint64) bool                { return true }
func (s nullSide) closeInput()                      { s.done <- nil }
func (nullSide) counters() (operator.Stats, uint64) { return operator.Stats{}, 0 }
func (nullSide) primary() *runtime.Pipeline         { return nil }

// isolatedNullSink runs the workload's clients, server and loopback
// with a no-op sink: the ceiling of the transport layer on this box.
func isolatedNullSink(o options, prep *prepared, m metricSet) error {
	cfg := prep.paced
	cfg.journal = false
	cfg.keep = false
	cfg.newSide = func() (side, error) { return nullSide{done: make(chan error, 1)}, nil }
	st, err := startStack(cfg, o.outDir, &tracer{})
	if err != nil {
		return err
	}
	defer st.abort()
	res, err := st.runSat(time.Duration(max(0.05*o.seconds, 0.2)*float64(time.Second)), false)
	if err != nil {
		return err
	}
	m.set("transport.null_sink_events_per_s", res.rate, res.slices)
	return st.finish()
}

// isolatedOperator times the serial operator, the window manager and the
// matcher on one goroutine.
func isolatedOperator(q queries.Query, events []event.Event, m metricSet) error {
	op, err := operator.New(operator.Config{Window: q.Window, Patterns: q.Patterns})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, ev := range events {
		op.Process(ev)
	}
	ns := float64(time.Since(t0).Nanoseconds())
	st := op.Stats()
	n := float64(len(events))
	m.set("operator.process_ns_per_event", ns/n, len(events))
	m.set("operator.memberships_per_event", float64(st.Memberships)/n, len(events))
	m.set("operator.windows_closed", float64(st.WindowsClosed), len(events))
	m.set("operator.complex_events", float64(st.ComplexEvents), len(events))

	// Manager.Route + Release alone: windowing without buffering.
	mgr, err := window.NewManager(q.Window)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, ev := range events {
		_, closed := mgr.Route(ev)
		for _, w := range closed {
			mgr.Release(w)
		}
	}
	m.set("window.route_ns_per_event", float64(time.Since(t0).Nanoseconds())/n, len(events))

	// Matcher.MatchClosed alone: fill the windows unshed, time only the
	// match of each closed window.
	if mgr, err = window.NewManager(q.Window); err != nil {
		return err
	}
	matcher := operator.NewMatcher(q.Patterns, 1)
	var ces []operator.ComplexEvent
	var matchNs int64
	windows := 0
	for _, ev := range events {
		member, closed := mgr.Route(ev)
		for _, mb := range member {
			mb.W.Add(ev, mb.Pos)
		}
		for _, w := range closed {
			m0 := nowNs()
			ces, _, _ = matcher.MatchClosed(w, ev.TS, ces[:0])
			matchNs += nowNs() - m0
			windows++
			mgr.Release(w)
		}
	}
	if windows > 0 {
		m.set("pattern.match_ns_per_window", float64(matchNs)/float64(windows), windows)
	}
	return nil
}

// isolatedMerge times the epoch merger with two publishers handing in
// interleaved epochs in batches of 16, as two shards do.
func isolatedMerge(closes int, m metricSet) {
	const publishers, perBatch = 2, 16
	emitted := 0
	merger := parallel.NewEpochMerger(4*publishers, func(int) { emitted++ })
	t0 := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := merger.Batch()
			for e := p; e < closes; e += publishers {
				batch = append(batch, parallel.EpochResult[int]{Epoch: uint64(e), Val: e})
				if len(batch) == perBatch {
					merger.Publish(batch)
					batch = merger.Batch()
				}
			}
			merger.Publish(batch)
		}(p)
	}
	wg.Wait()
	merger.Close()
	m.set("parallel.merge_ns_per_close", float64(time.Since(t0).Nanoseconds())/float64(closes), emitted)
}

// inprocPipeline pushes connection 0's stream straight into a pipeline,
// no wire, for d, and returns events/s until the pipeline has drained.
func inprocPipeline(q queries.Query, tl *tile, cfg runtime.Config, d time.Duration) (float64, error) {
	return inprocEvents(q, cfg, func(submit func([]event.Event)) {
		buf := make([]event.Event, 256)
		deadline := time.Now().Add(d)
		for next := uint64(0); time.Now().Before(deadline); next += uint64(len(buf)) {
			tl.fill(buf, 0, next)
			submit(buf)
		}
	})
}

// inprocEvents runs a pipeline over whatever feed submits and returns
// events/s from the first submit until the pipeline has drained.
func inprocEvents(q queries.Query, cfg runtime.Config, feed func(submit func([]event.Event))) (float64, error) {
	cfg.Operator.Window = q.Window
	cfg.Operator.Patterns = q.Patterns
	p, err := runtime.New(cfg)
	if err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		for range p.Out() {
		}
	}()
	n := 0
	t0 := time.Now()
	feed(func(events []event.Event) {
		p.SubmitBatch(events)
		n += len(events)
	})
	p.CloseInput()
	err = <-done
	wall := time.Since(t0).Seconds()
	drain.Wait()
	return float64(n) / wall, err
}

// inprocSlice feeds a pipeline from a prepared slice, 256 at a time.
func inprocSlice(q queries.Query, events []event.Event, shards int) (float64, error) {
	return inprocEvents(q, runtime.Config{Shards: shards}, func(submit func([]event.Event)) {
		for off := 0; off < len(events); off += 256 {
			submit(events[off:min(off+256, len(events))])
		}
	})
}

// isolatedEngine feeds both tenants' streams straight into the engine,
// then runs the same six queries as standalone pipelines on their
// pre-filtered streams, all at once as the engine runs them. The
// difference per event is what the fan-out costs.
func isolatedEngine(prep *prepared, n int, m metricSet) error {
	tiles := prep.paced.tiles
	sd, err := newEngineSide(tiles)
	if err != nil {
		return err
	}
	es := sd.(*engineSide)
	done := es.run(context.Background())
	var drain sync.WaitGroup
	for _, o := range es.outputs() {
		drain.Add(1)
		go func(ch <-chan operator.ComplexEvent) {
			defer drain.Done()
			for range ch {
			}
		}(o.ch)
	}
	per := n / len(tiles)
	streams := make([][]event.Event, len(tiles))
	for c, tl := range tiles {
		streams[c] = make([]event.Event, per)
		tl.fill(streams[c], c, 0)
	}
	t0 := time.Now()
	var feed sync.WaitGroup
	for c := range streams {
		feed.Add(1)
		go func(c int) {
			defer feed.Done()
			for off := 0; off < per; off += 256 {
				es.SubmitTenantBatch(tenantNames[c], streams[c][off:min(off+256, per)])
			}
		}(c)
	}
	feed.Wait()
	es.closeInput()
	if err := <-done; err != nil {
		return err
	}
	engineWall := time.Since(t0).Seconds()
	drain.Wait()
	total := float64(per * len(streams))
	st := es.Stats()
	m.set("engine.inproc_events_per_s", total/engineWall, int(total))
	m.set("engine.delivered_per_submitted", float64(st.Delivered)/float64(max(st.Submitted, 1)), int(st.Submitted))

	type job struct {
		cfg    engine.QueryConfig
		events []event.Event
	}
	var jobs []job
	for _, eq := range es.queries {
		var filtered []event.Event
		for _, ev := range streams[eq.conn] {
			if eq.q.Accepts(ev.Type) {
				filtered = append(filtered, ev)
			}
		}
		jobs = append(jobs, job{eq.cfg, filtered})
	}
	t0 = time.Now()
	var run sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		run.Add(1)
		go func(j job) {
			defer run.Done()
			if _, err := inprocSlice(j.cfg.Query, j.events, max(j.cfg.Shards, 1)); err != nil {
				errs <- err
			}
		}(j)
	}
	run.Wait()
	select {
	case err := <-errs:
		return fmt.Errorf("standalone pipelines: %w", err)
	default:
	}
	standaloneWall := time.Since(t0).Seconds()
	m.set("engine.fanout_overhead_ns_per_event", (engineWall-standaloneWall)*1e9/total, int(total))
	return nil
}

// isolatedShedder times the active shedder's per-membership decision
// with thresholds configured for a one-third drop.
func isolatedShedder(prep *prepared, events []event.Event, m metricSet) {
	sh, err := core.NewShedder(prep.shedder.Model())
	if err != nil {
		return
	}
	ws := prep.query.Window.SizeHint
	part := core.ComputePartitioning(ws, 4*float64(ws), shedTriggerF)
	if err := sh.Configure(part, float64(part.PSize)/3); err != nil {
		return
	}
	drops := 0
	t0 := time.Now()
	for i, ev := range events {
		if sh.Drop(ev.Type, i%ws, ws) {
			drops++
		}
	}
	m.set("core.shedder.drop_ns_per_decision", float64(time.Since(t0).Nanoseconds())/float64(len(events)), drops)
}
