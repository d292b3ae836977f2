package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/parallel"
	"repro/internal/window"
)

// shard is one parallel operator instance. It owns every window the
// partitioner assigned to it through an operator.Owner — open,
// position, shed decision, close, matching and pool recycling all happen
// on the shard goroutine — and it replays the partitioner's compiled
// op stream in FIFO order, which is what makes the per-window
// open→event→close ordering, and so every position it hands out, the
// serial pipeline's without locks. A window never leaves the shard it
// opened on, so a shard never waits on another shard: it blocks only on
// its input channel and on the epoch merger.
type shard struct {
	id      int
	pipe    *Pipeline        // back-pointer for panic containment (guard.go)
	in      chan *shardBatch // op batches from the partitioner
	recycle chan *shardBatch // drained batches handed back for reuse
	// own holds the shard's windows. Its close hook, the user's, runs on
	// the shard goroutine, so with Shards > 1 it must be safe for
	// concurrent calls (one per shard).
	own *operator.Owner
	// merger re-serializes this shard's closed-window results into
	// global window-close order; set by runSharded before the shard
	// goroutine starts.
	merger *parallel.EpochMerger[[]operator.ComplexEvent]
	delay  time.Duration

	// latBuf collects the batch's latency samples; they fold into the
	// lock-protected trace once per batch instead of once per sample.
	latBuf []latSample

	lane                // the shard's control-loop counters
	queued atomic.Int64 // memberships staged but not yet processed

	// occupancy is the partitioner's placement estimate: the summed
	// expected sizes of the open windows this shard owns, updated under
	// the partitioner mutex.
	occupancy atomic.Int64

	mu      sync.Mutex
	latency metrics.LatencyTrace
	stats   operator.Stats // own's counters as of the last published batch
}

type latSample struct{ ts, lat event.Time }

// snapshot reads the shard counters. QueueLen reports the staged
// memberships (not batches); Pipeline.backlogEvents converts their sum
// to events.
func (s *shard) snapshot() ShardStats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	pool := s.own.Windows().Pool()
	return ShardStats{
		Memberships:      st.Memberships,
		Kept:             st.MembershipsKept,
		Shed:             st.MembershipsShed,
		WindowsClosed:    st.WindowsClosed,
		ComplexEvents:    st.ComplexEvents,
		WindowsWithMatch: st.WindowsWithMatch,
		QueueLen:         int(s.queued.Load()),
		PoolMisses:       pool.Misses(),
		PoolGets:         pool.Gets(),
		PoolPuts:         pool.Puts(),
		Occupancy:        s.occupancy.Load(),
		Throughput:       loadFloat(&s.thEst),
	}
}

// run drains the shard's batch queue until the partitioner closes it.
// After a context cancel — or a panic tripping the pipeline, on this
// shard or any other — it keeps draining but skips all work, so a
// blocked partitioner send always completes and teardown never
// deadlocks.
func (s *shard) run(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	for b := range s.in {
		if ctx.Err() != nil || s.pipe.failed.Load() {
			s.queued.Add(-int64(b.members))
			continue
		}
		s.processBatch(b)
	}
}

// processBatch replays one op batch against the shard's windows, under
// the panic guard: a panic anywhere in it — shed decider, matcher,
// close hook — trips the pipeline and drops the rest of the batch, and
// run falls into drain mode on the next iteration. ProcessingDelay is
// charged once per event for the memberships it kept, as on the serial
// path.
func (s *shard) processBatch(b *shardBatch) {
	defer s.recoverBatch(b)
	start := time.Now()
	var out []parallel.EpochResult[[]operator.ComplexEvent]
	haveOut := false
	for _, op := range b.ops {
		switch op.kind & opKindMask {
		case opEvent:
			if kept := s.own.Route(b.events[op.evIdx]); kept > 0 && s.delay > 0 {
				time.Sleep(time.Duration(kept) * s.delay)
			}
			if op.kind&opSampleFlag != 0 {
				now := time.Now()
				s.latBuf = append(s.latBuf, latSample{
					ts:  event.Time(now.UnixMicro()),
					lat: event.Time(now.Sub(b.arrived).Microseconds()),
				})
			}
		case opOpen:
			ev := b.events[op.evIdx]
			s.own.Open(window.Rec{ID: op.win, OpenSeq: ev.Seq, OpenTS: ev.TS, ExpectedSize: int(op.a)})
		case opClose:
			if !haveOut {
				out = s.merger.Batch()
				haveOut = true
			}
			out = append(out, parallel.EpochResult[[]operator.ComplexEvent]{
				Epoch: op.a,
				Val:   s.own.Close(op.win, event.Time(op.b), nil),
			})
		}
	}
	s.own.Tally()
	st := s.own.Stats()
	s.memberships.Add(st.Memberships - s.stats.Memberships)
	s.kept.Add(st.MembershipsKept - s.stats.MembershipsKept)
	// Zero the membership count the moment it is accounted, so the
	// panic guard (which decrements by b.members) stays exactly-once no
	// matter where in the batch a panic lands.
	s.queued.Add(-int64(b.members))
	b.members = 0
	s.busyNanos.Add(time.Since(start).Nanoseconds())
	s.mu.Lock()
	s.stats = st
	for _, ls := range s.latBuf {
		s.latency.Add(ls.ts, ls.lat)
	}
	s.mu.Unlock()
	s.latBuf = s.latBuf[:0]
	// Publish the batch's closes in one rendezvous — empty epochs
	// included, the merge stage needs every epoch to stay contiguous.
	if len(out) > 0 {
		s.merger.Publish(out)
	}
	b.ops, b.events = b.ops[:0], b.events[:0]
	select {
	case s.recycle <- b:
	default:
	}
}

// runSharded is the Shards > 1 body of Run. The data path itself lives
// in the submitters (partitioning) and the shards (window ownership);
// it only assembles the merge stage, then waits for the input to be
// sealed or the context to end.
func (p *Pipeline) runSharded(ctx context.Context) error {
	merger := parallel.NewEpochMerger(4*len(p.shards), func(ces []operator.ComplexEvent) {
		for _, ce := range ces {
			select {
			case p.out <- ce:
			case <-ctx.Done():
				return
			}
		}
	})
	var wg sync.WaitGroup
	for _, s := range p.shards {
		s.merger = merger
		wg.Add(1)
		go s.run(ctx, &wg)
	}

	var err error
	select {
	case <-ctx.Done():
		err = ctx.Err()
		p.part.cancel()
	case <-p.part.done:
	}
	// The shard channels are closed (cancel or close sealed them), so
	// the shards drain and exit; then no producer holds the merger.
	wg.Wait()
	merger.Close()
	if err == nil {
		// A contained panic (in a shard or in the partitioner inline in
		// a submitter) outranks a clean drain.
		if pe := p.panicErr.Load(); pe != nil {
			return pe
		}
	}
	return err
}
