package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
)

// spanLog is an append-only list of spans of one kind on one
// connection. Each log has a single writer (the producer goroutine, the
// connection's server handler or a collector) and is read only after the
// stack has drained. Every batch of a connection passes each recording
// point exactly once and in order, so within a traced phase the i-th
// entry of every log of a connection belongs to the same batch.
type spanLog struct{ start, end []int64 }

func (l *spanLog) add(start, end int64) {
	l.start = append(l.start, start)
	l.end = append(l.end, end)
}

func (l *spanLog) len() int { return len(l.start) }

// durUs returns span i's duration in microseconds.
func (l *spanLog) durUs(i int) float64 { return float64(l.end[i]-l.start[i]) / 1e3 }

// emitLog records, per complex event, the paced batch that carried its
// window-closing event and when the collector received it.
type emitLog struct {
	batch []uint64
	recv  []int64
}

// connTrace holds the spans of one connection.
type connTrace struct {
	client    spanLog // transport.client.submit: SubmitBatch (which flushes the frame)
	walAppend spanLog
	walCommit spanLog
	sink      spanLog // sink.submit: the call into pipeline or engine, blocking included
}

// tracer is the in-memory span recorder of the benchmark's own
// wrappers. It exists in every run; only a traced phase switches it on.
type tracer struct {
	on    atomic.Bool
	conns [maxConns]connTrace
}

// reset drops every span; call only while the stack is quiescent.
func (t *tracer) reset() { t.conns = [maxConns]connTrace{} }

// traceSpan is the on-disk form of one span.
type traceSpan struct {
	Name    string  `json:"name"`
	BatchID uint64  `json:"batch_id"` // first Seq of the batch
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// traceFileBatches bounds how many batches per connection the span file
// holds; the reductions always use every span.
const traceFileBatches = 2000

// writeTrace dumps the first traceFileBatches batches of the paced
// phase as spans, gen.batch (due → sent) being the root of each batch.
func writeTrace(path string, tr *tracer, pc *pacing, colls []*collector) error {
	var spans []traceSpan
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for c := range tr.conns {
		ct := &tr.conns[c]
		n := min(ct.client.len(), ct.sink.len(), traceFileBatches)
		for i := 0; i < n; i++ {
			id := uint64(c)<<connShift | uint64(i*pc.batch)
			spans = append(spans,
				traceSpan{"gen.batch", id, us(pc.due(c, uint64(i))), us(ct.client.end[i])},
				traceSpan{"transport.client.submit", id, us(ct.client.start[i]), us(ct.client.end[i])},
				traceSpan{"sink.submit", id, us(ct.sink.start[i]), us(ct.sink.end[i])})
			if i < ct.walAppend.len() && i < ct.walCommit.len() {
				spans = append(spans,
					traceSpan{"wal.append", id, us(ct.walAppend.start[i]), us(ct.walAppend.end[i])},
					traceSpan{"wal.commit", id, us(ct.walCommit.start[i]), us(ct.walCommit.end[i])})
			}
		}
	}
	for _, col := range colls {
		ct := &tr.conns[col.out.conn]
		for k, j := range col.emits.batch {
			if j >= traceFileBatches || int(j) >= ct.sink.len() {
				continue
			}
			id := uint64(col.out.conn)<<connShift | j*uint64(pc.batch)
			spans = append(spans, traceSpan{"emit", id, us(ct.sink.start[j]), us(col.emits.recv[k])})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// reduceTrace turns the paced phase's spans into per-layer figures.
// Per batch, with due the scheduled send time:
//
//	loadgen   = client.start − due            (generator lateness)
//	transport = sink.start − client.start − wal   (encode, syscalls, loopback, scan, decode, admission)
//	wal       = wal.append + wal.commit
//	sink      = sink.end − sink.start         (pipeline or engine submit, blocking included)
//	emit      = receipt − sink.start of the closing batch, per complex event
//
// Each layer's figure is its span minus the spans nested inside it.
func reduceTrace(tr *tracer, pc *pacing, colls []*collector, m metricSet, engine bool) {
	// ack: from the client starting to send until the server has handed
	// the batch to the sink and writes the ack (generator lateness excluded).
	var loadgen, wire, walUs, sink, ack, clientNs, commitUs []float64
	var appendNs float64
	var appends int
	for c := range tr.conns {
		ct := &tr.conns[c]
		n := min(ct.client.len(), ct.sink.len())
		hasWal := ct.walAppend.len() >= n && ct.walCommit.len() >= n && n > 0
		for i := 0; i < n; i++ {
			due := pc.due(c, uint64(i))
			w := 0.0
			if hasWal {
				w = ct.walAppend.durUs(i) + ct.walCommit.durUs(i)
				appendNs += ct.walAppend.durUs(i) * 1e3
				appends++
				commitUs = append(commitUs, ct.walCommit.durUs(i))
			}
			loadgen = append(loadgen, float64(ct.client.start[i]-due)/1e3)
			wire = append(wire, float64(ct.sink.start[i]-ct.client.start[i])/1e3-w)
			walUs = append(walUs, w)
			sink = append(sink, ct.sink.durUs(i))
			ack = append(ack, float64(ct.sink.end[i]-ct.client.start[i])/1e3)
			clientNs = append(clientNs, ct.client.durUs(i)*1e3/float64(pc.batch))
		}
	}
	var emit []float64
	for _, col := range colls {
		ct := &tr.conns[col.out.conn]
		for k, j := range col.emits.batch {
			if int(j) < ct.sink.len() {
				emit = append(emit, float64(col.emits.recv[k]-ct.sink.start[j])/1e3)
			}
		}
	}
	m.set("trace.self_us.loadgen", mean(loadgen), len(loadgen))
	m.set("trace.self_us.transport", mean(wire), len(wire))
	m.set("trace.self_us.wal", mean(walUs), appends)
	m.set("trace.self_us.sink", mean(sink), len(sink))
	m.set("trace.self_us.emit", mean(emit), len(emit))
	m.set("transport.client.submit_ns_per_event", mean(clientNs), len(clientNs))
	m.set("transport.server.self_ns_per_event", mean(wire)*1e3/float64(pc.batch), len(wire))
	if appends > 0 {
		m.set("wal.append_ns_per_record", appendNs/float64(appends), appends)
		m.set("wal.commit_share_of_ack", 100*mean(commitUs)/mean(ack), appends)
		m.set("wal.commit_us_p50", percentile(commitUs, 50), appends)
		m.set("wal.commit_us_p99", percentile(commitUs, 99), appends)
	}
	if engine {
		m.set("engine.submit_us_p50", percentile(sink, 50), len(sink))
		m.set("engine.submit_us_p99", percentile(sink, 99), len(sink))
	}
}
