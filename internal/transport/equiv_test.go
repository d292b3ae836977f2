package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/runtime"
)

// equivStream generates the shared RTLS stream and Q1 query for the
// equivalence runs.
func equivStream(t *testing.T) (*datasets.RTLSMeta, []event.Event, queries.Query) {
	t.Helper()
	meta, events, err := datasets.GenerateRTLS(datasets.RTLSConfig{DurationSec: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	q, err := queries.Q1(meta, 3, pattern.SelectFirst, 15)
	if err != nil {
		t.Fatal(err)
	}
	return meta, events, q
}

// runPipelineInProcess replays events straight into a pipeline and
// returns the detected complex events in emission order.
func runPipelineInProcess(t *testing.T, q queries.Query, shards int, events []event.Event) []operator.ComplexEvent {
	t.Helper()
	pipe, err := runtime.New(runtime.Config{
		Operator: operator.Config{Window: q.Window, Patterns: q.Patterns},
		Shards:   shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- pipe.Run(context.Background()) }()
	var detected []operator.ComplexEvent
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for ce := range pipe.Out() {
			detected = append(detected, ce)
		}
	}()
	pipe.SubmitBatch(events)
	pipe.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-collected
	return detected
}

// runPipelineOverWire replays the same events through espice-serve's
// transport path: client -> loopback TCP -> server -> pipeline.
func runPipelineOverWire(t *testing.T, meta *datasets.RTLSMeta, q queries.Query, shards int, events []event.Event) []operator.ComplexEvent {
	t.Helper()
	return runPipelineOverWireJournaled(t, meta, q, shards, events, nil)
}

// runPipelineOverWireJournaled is runPipelineOverWire with an optional
// gated journal in front of the pipeline. With one, the producer is a
// durable session and writes its first full credit window while the
// journal's first Commit is still parked, so the server's runs start
// with a whole window in flight.
func runPipelineOverWireJournaled(t *testing.T, meta *datasets.RTLSMeta, q queries.Query, shards int, events []event.Event, journal *gateJournal) []operator.ComplexEvent {
	t.Helper()
	pipe, err := runtime.New(runtime.Config{
		Operator: operator.Config{Window: q.Window, Patterns: q.Patterns},
		Shards:   shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- pipe.Run(context.Background()) }()
	var detected []operator.ComplexEvent
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for ce := range pipe.Out() {
			detected = append(detected, ce)
		}
	}()

	scfg := ServerConfig{Sink: pipe, Registry: meta.Registry}
	ccfg := ClientConfig{BatchEvents: 128}
	if journal != nil {
		scfg.Journal, scfg.Window, ccfg.Session = journal, 8*ccfg.BatchEvents, 11
	}
	srv := startServer(t, scfg)
	ccfg.Addr = srv.Addr().String()
	client, err := Dial(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	total := len(events)
	if journal != nil {
		// Exactly one window: SubmitBatch returns with all of it written
		// and none of it acked.
		if err := client.SubmitBatch(events[:scfg.Window]); err != nil {
			t.Fatal(err)
		}
		close(journal.gate)
		events = events[scfg.Window:]
	}
	if err := client.SubmitBatch(events); err != nil {
		t.Fatal(err)
	}
	st, err := client.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != uint64(total) {
		t.Fatalf("server accepted %d of %d events", st.Accepted, total)
	}
	// Close returned, so every event sits in the pipeline's queue; the
	// server is no longer needed and the stream can be sealed.
	srv.Close()
	pipe.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-collected
	return detected
}

// diffComplexEvents asserts two detection sequences are identical.
func diffComplexEvents(t *testing.T, label string, want, got []operator.ComplexEvent) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d complex events in-process vs %d over the wire", label, len(want), len(got))
	}
	for i := range want {
		if want[i].Key() != got[i].Key() || want[i].Pattern != got[i].Pattern {
			t.Fatalf("%s: complex event %d differs:\n in-process: %+v\n wire:       %+v", label, i, want[i], got[i])
		}
	}
	if len(want) == 0 {
		t.Fatalf("%s: stream produced no complex events; equivalence is vacuous", label)
	}
}

// TestWireEquivalenceSerial pins the tentpole guarantee for the serial
// pipeline: the wire boundary changes nothing about what is detected.
func TestWireEquivalenceSerial(t *testing.T) {
	harness.VerifyNoLeaks(t)
	meta, events, q := equivStream(t)
	want := runPipelineInProcess(t, q, 1, events)
	got := runPipelineOverWire(t, meta, q, 1, events)
	diffComplexEvents(t, "serial", want, got)
}

// TestWireEquivalenceJournaled puts the group-committing journal stage
// in front of the serial pipeline: frames staged and committed a run at
// a time, a whole window of them at first, detect exactly what the
// in-process replay detects.
func TestWireEquivalenceJournaled(t *testing.T) {
	harness.VerifyNoLeaks(t)
	meta, events, q := equivStream(t)
	want := runPipelineInProcess(t, q, 1, events)
	journal := &gateJournal{gate: make(chan struct{})}
	got := runPipelineOverWireJournaled(t, meta, q, 1, events, journal)
	diffComplexEvents(t, "journaled", want, got)
	if _, rounds, _ := journal.state(); uint64(rounds) >= journal.lastSeq {
		t.Fatalf("%d sync rounds for %d journaled frames: no run held more than one frame", rounds, journal.lastSeq)
	}
}

// TestWireEquivalenceSharded covers the sharded deployment: the
// submitter-side partitioning (the server's reader goroutines feed the
// partitioner directly), per-shard window ownership and the epoch merge
// all stay deterministic behind the wire boundary, at 4- and 8-shard
// configurations.
func TestWireEquivalenceSharded(t *testing.T) {
	harness.VerifyNoLeaks(t)
	meta, events, q := equivStream(t)
	serial := runPipelineInProcess(t, q, 1, events)
	for _, shards := range []int{4, 8} {
		label := fmt.Sprintf("sharded-%d", shards)
		want := runPipelineInProcess(t, q, shards, events)
		got := runPipelineOverWire(t, meta, q, shards, events)
		diffComplexEvents(t, label, want, got)

		// Sharded output equals serial output, so the wire run
		// transitively matches every deployment mode.
		diffComplexEvents(t, label+"-vs-serial", serial, got)
	}
}

// engineQueries builds the two-query engine configuration used by the
// engine-mode equivalence run.
func engineQueries(t *testing.T, meta *datasets.RTLSMeta) []queries.Query {
	t.Helper()
	qa, err := queries.Q1(meta, 3, pattern.SelectFirst, 15)
	if err != nil {
		t.Fatal(err)
	}
	qa.Name = "QA"
	qb, err := queries.Q1(meta, 2, pattern.SelectFirst, 10)
	if err != nil {
		t.Fatal(err)
	}
	qb.Name = "QB"
	return []queries.Query{qa, qb}
}

// runEngine drives a two-query engine either in-process or through the
// wire and returns the per-query detections.
func runEngine(t *testing.T, meta *datasets.RTLSMeta, qs []queries.Query, events []event.Event, overWire bool) map[string][]operator.ComplexEvent {
	t.Helper()
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*engine.Query, len(qs))
	for i, q := range qs {
		h, err := eng.Register(engine.QueryConfig{Query: q, Shards: 1 + i})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	// One drain goroutine per query: a sequential drain stops reading
	// the later queries' channels, and once one's output channel fills its
	// pipeline backpressures the whole engine (see cmd/espice-serve).
	detected := make(map[string][]operator.ComplexEvent)
	var detectedMu sync.Mutex
	var drains sync.WaitGroup
	collected := make(chan struct{})
	for _, h := range handles {
		drains.Add(1)
		go func(h *engine.Query) {
			defer drains.Done()
			for ce := range h.Out() {
				detectedMu.Lock()
				detected[h.Name()] = append(detected[h.Name()], ce)
				detectedMu.Unlock()
			}
		}(h)
	}
	go func() {
		defer close(collected)
		drains.Wait()
	}()

	if overWire {
		srv := startServer(t, ServerConfig{Sink: eng, Registry: meta.Registry})
		client, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 128})
		if err != nil {
			t.Fatal(err)
		}
		if err := client.SubmitBatch(events); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Close(); err != nil {
			t.Fatal(err)
		}
		srv.Close()
	} else {
		eng.SubmitBatch(events)
	}
	eng.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-collected
	return detected
}

// TestWireEquivalenceEngine covers the multi-query engine: fan-out,
// per-query filters and per-query pipelines behind the wire boundary
// detect exactly what the in-process engine detects.
func TestWireEquivalenceEngine(t *testing.T) {
	harness.VerifyNoLeaks(t)
	meta, events, _ := equivStream(t)
	qs := engineQueries(t, meta)
	want := runEngine(t, meta, qs, events, false)
	got := runEngine(t, meta, qs, events, true)
	for _, q := range qs {
		diffComplexEvents(t, "engine/"+q.Name, want[q.Name], got[q.Name])
	}
}

// TestWireEquivalenceNDJSON drives the serial pipeline through the
// NDJSON framing: the line codec is as faithful as the binary one.
func TestWireEquivalenceNDJSON(t *testing.T) {
	harness.VerifyNoLeaks(t)
	meta, events, q := equivStream(t)
	want := runPipelineInProcess(t, q, 1, events)

	pipe, err := runtime.New(runtime.Config{
		Operator: operator.Config{Window: q.Window, Patterns: q.Patterns},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- pipe.Run(context.Background()) }()
	var detected []operator.ComplexEvent
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for ce := range pipe.Out() {
			detected = append(detected, ce)
		}
	}()
	srv := startServer(t, ServerConfig{Sink: pipe, Registry: meta.Registry})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, ev := range events {
		buf = AppendNDJSON(buf[:0], ev, meta.Registry)
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	waitCond(t, 10e9, func() bool { return srv.Stats().EventsNDJSON == uint64(len(events)) })
	srv.Close()
	pipe.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-collected
	diffComplexEvents(t, "ndjson", want, detected)
}
