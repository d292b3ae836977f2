package runtime

import (
	"cmp"
	"context"
	"slices"
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
// partitioner assigned to it — open, position, shed decision,
// close, matching and pool recycling all happen on the shard goroutine,
// against shard-local state — and it replays the partitioner's compiled
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
	decider operator.Decider
	batched operator.BatchingDecider // non-nil when decider batches counters
	matcher *operator.Matcher        // per-shard match scratch
	// merger re-serializes this shard's closed-window results into
	// global window-close order; set by runSharded before the shard
	// goroutine starts.
	merger *parallel.EpochMerger[[]operator.ComplexEvent]
	// hook is the user OnWindowClose hook. It runs on the shard
	// goroutine, so with Shards > 1 it must be safe for concurrent calls
	// (one per shard); the matched entries alias the shard's match
	// scratch exactly as on the serial path.
	hook operator.WindowCloseHook
	// tap feeds the shard's window closes to the online model lifecycle
	// (nil when disabled); per-shard statistics accumulate without
	// contention and merge at (re)train time.
	tap   *operator.FeedbackTap
	delay time.Duration

	// open holds the shard's open windows in ascending window ID — the
	// tracker's membership order, so an event op visits them in the
	// serial operator's order. The tracker numbers windows in opening
	// order, so an open op appends. pool recycles them shard-locally, so
	// no closed window is ever lost to a full cross-goroutine release
	// channel.
	open []*window.Window
	pool window.Pool
	// ring holds every event routed to the shard, once: an event op
	// reaches every open window the shard owns, so window w's position p
	// is the ring's event w.Start+p. It is trimmed to open[0].Start after
	// each close.
	ring window.Ring

	// latBuf collects the batch's latency samples; they fold into the
	// lock-protected trace once per batch instead of once per sample.
	latBuf []latSample

	lane             // the shard's control-loop counters
	shed             atomic.Uint64
	queued           atomic.Int64 // memberships staged but not yet processed
	windowsClosed    atomic.Uint64
	complexEvents    atomic.Uint64
	windowsWithMatch atomic.Uint64

	// occupancy is the partitioner's placement estimate: the summed
	// expected sizes of the open windows this shard owns, updated under
	// the partitioner mutex.
	occupancy atomic.Int64

	mu      sync.Mutex
	latency metrics.LatencyTrace
}

type latSample struct{ ts, lat event.Time }

// snapshot reads the shard counters. QueueLen reports the staged
// memberships (not batches); Pipeline.backlogEvents converts their sum
// to events.
func (s *shard) snapshot() ShardStats {
	return ShardStats{
		Memberships:      s.memberships.Load(),
		Kept:             s.kept.Load(),
		Shed:             s.shed.Load(),
		WindowsClosed:    s.windowsClosed.Load(),
		ComplexEvents:    s.complexEvents.Load(),
		WindowsWithMatch: s.windowsWithMatch.Load(),
		QueueLen:         int(s.queued.Load()),
		PoolMisses:       s.pool.Misses(),
		PoolGets:         s.pool.Gets(),
		PoolPuts:         s.pool.Puts(),
		Occupancy:        s.occupancy.Load(),
		Throughput:       loadFloat(&s.thEst),
	}
}

// tallyFlushBatch caps how many shedding decisions a shard accumulates
// locally before folding them into the shedder's shared atomic counters.
const tallyFlushBatch = 1024

// take removes window id from the shard's open windows and returns it.
// A close op always follows its window's open op on the same FIFO, so
// the window is there; a miss is a partitioner bug, and the panic guard
// contains it.
func (s *shard) take(id window.ID) *window.Window {
	i, ok := slices.BinarySearchFunc(s.open, id, func(w *window.Window, id window.ID) int {
		return cmp.Compare(w.ID, id)
	})
	if !ok {
		panic("runtime: shard closes a window it does not own")
	}
	w := s.open[i]
	s.open = slices.Delete(s.open, i, i+1)
	return w
}

// run drains the shard's batch queue until the partitioner closes it.
// After a context cancel — or a panic tripping the pipeline, on this
// shard or any other — it keeps draining but skips all work, so a
// blocked partitioner send always completes and teardown never
// deadlocks. Shedding counters are tallied locally and flushed when the
// queue momentarily drains or every tallyFlushBatch decisions.
func (s *shard) run(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	var decisions, drops uint64
	flush := func() {
		if decisions > 0 {
			s.batched.TallyDecisions(decisions, drops)
			decisions, drops = 0, 0
		}
	}
	defer flush()
	for b := range s.in {
		if ctx.Err() != nil || s.pipe.failed.Load() {
			s.queued.Add(-int64(b.members))
			continue
		}
		s.processBatch(b, &decisions, &drops)
		if decisions >= tallyFlushBatch || len(s.in) == 0 {
			flush()
		}
	}
}

// processBatch replays one op batch against the shard's windows, under
// the panic guard: a panic anywhere in it — shed decider, matcher,
// close hook — trips the pipeline and drops the rest of the batch, and
// run falls into drain mode on the next iteration.
func (s *shard) processBatch(b *shardBatch, decisions, drops *uint64) {
	defer s.recoverBatch(b)
	start := time.Now()
	var kept, shed, members uint64
	var out []parallel.EpochResult[[]operator.ComplexEvent]
	haveOut := false
	for _, op := range b.ops {
		switch op.kind & opKindMask {
		case opEvent:
			// One membership per open window, positions handed out here:
			// each window has seen exactly the tracker's arrivals. The
			// event itself is stored once, in the ring.
			ev := b.events[op.evIdx]
			s.ring.Push(ev)
			for _, w := range s.open {
				pos := w.Arrivals
				w.Arrivals++
				if operator.ShedDecision(s.decider, s.batched, ev.Type, pos,
					w.ExpectedSize, decisions, drops) {
					w.Drop(pos)
					shed++
				} else {
					kept++
					if s.delay > 0 {
						time.Sleep(s.delay)
					}
				}
			}
			members += uint64(len(s.open))
			if op.kind&opSampleFlag != 0 {
				now := time.Now()
				s.latBuf = append(s.latBuf, latSample{
					ts:  event.Time(now.UnixMicro()),
					lat: event.Time(now.Sub(b.arrived).Microseconds()),
				})
			}
		case opOpen:
			w := s.pool.Get()
			ev := b.events[op.evIdx]
			w.ID = op.win
			w.OpenSeq = ev.Seq
			w.OpenTS = ev.TS
			w.ExpectedSize = int(op.a)
			w.Start = s.ring.End() // the opening event's event op follows
			s.open = append(s.open, w)
		case opClose:
			w := s.take(op.win)
			if !haveOut {
				out = s.merger.Batch()
				haveOut = true
			}
			out = append(out, parallel.EpochResult[[]operator.ComplexEvent]{
				Epoch: op.a,
				Val:   s.closeOwned(w, event.Time(op.b)),
			})
			if len(s.open) > 0 {
				s.ring.Trim(s.open[0].Start)
			} else {
				s.ring.Trim(s.ring.End())
			}
		}
	}
	s.memberships.Add(members)
	if kept > 0 {
		s.kept.Add(kept)
	}
	if shed > 0 {
		s.shed.Add(shed)
	}
	// Zero the membership count the moment it is accounted, so the
	// panic guard (which decrements by b.members) stays exactly-once no
	// matter where in the batch a panic lands.
	s.queued.Add(-int64(b.members))
	b.members = 0
	s.busyNanos.Add(time.Since(start).Nanoseconds())
	if len(s.latBuf) > 0 {
		s.mu.Lock()
		for _, ls := range s.latBuf {
			s.latency.Add(ls.ts, ls.lat)
		}
		s.mu.Unlock()
		s.latBuf = s.latBuf[:0]
	}
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

// closeOwned mirrors operator.closeWindow for one shard-owned window:
// seal, bind to the ring, match, tap, hook, recycle. The returned
// complex events are the window's merge payload; they reference no
// window memory, so the window goes straight back to the shard's pool —
// release is local and never lossy.
func (s *shard) closeOwned(w *window.Window, now event.Time) []operator.ComplexEvent {
	s.windowsClosed.Add(1)
	w.MarkClosed()
	w.Bind(&s.ring)
	ces, matched, found := s.matcher.MatchClosed(w, now, nil)
	if found {
		s.windowsWithMatch.Add(1)
	}
	if s.tap != nil {
		s.tap.OnWindowClose(w, matched)
	}
	if s.hook != nil {
		s.hook(w, matched)
	}
	s.complexEvents.Add(uint64(len(ces)))
	s.pool.Put(w)
	return ces
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
