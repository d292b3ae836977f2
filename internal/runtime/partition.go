package runtime

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/window"
)

// Shard op kinds. The low bits select the operation; opSampleFlag marks
// the one event op per sampled event whose processing time feeds the
// latency trace (see Config.LatencySampleEvery).
const (
	opEvent = 0 // route evIdx into every open window the shard owns, positions assigned there
	opOpen  = 1 // open window win: a = expected size, evIdx = opening event
	opClose = 2 // close window win: a = merge epoch, b = close timestamp

	opKindMask   = 0x7f
	opSampleFlag = 1 << 7
)

// shardOp is one decoded instruction for a shard. The partitioner runs
// the windowing Policy centrally (so window identities, opens, closes
// and size predictions stay exactly the serial pipeline's) and compiles
// its steps into these fixed-size ops, in the order routeOne gives.
// The owning shard replays them in order against its operator.Owner,
// exactly as the serial Operator applies a step. The event op carries
// no position: every open window of the shard counts the same arrivals
// the Policy does. 32 bytes, no pointers — a staged op stream costs the
// shard no GC scanning.
type shardOp struct {
	kind  uint8
	evIdx int32     // index into the batch's events array (opEvent, opOpen)
	win   window.ID // target window (opOpen, opClose)
	a     uint64
	b     uint64
}

// shardBatch is the unit of work handed to a shard: an op stream plus
// the deduplicated events it references. Batches are recycled through
// each shard's recycle channel, so a warm pipeline stages ops into
// previously used buffers.
type shardBatch struct {
	ops     []shardOp
	events  []event.Event
	arrived time.Time // submit time shared by every op in the batch
	members int       // memberships the event ops carry (backlog accounting)
}

// opsFlushBatch caps how many ops — about one per routed event — a
// batch accumulates before the partitioner flushes it to the shard
// mid-call; every public Submit/SubmitBatch call also flushes whatever
// is staged on return, so a paced producer never leaves work parked in
// the staging area.
const opsFlushBatch = 512

// partitioner is the submitter-side front end of the sharded pipeline.
// It replaces the dedicated router goroutine: SubmitBatch itself runs
// the windowing policy (under pt.mu) and streams compiled ops to the
// owning shards, so the former router-channel rendezvous and the
// central-manager serialization disappear from the scale path.
//
// policy decides opens, closes and size predictions exactly as the
// serial operator's does; it holds no windows. The windows live in the
// shards, and a window's whole life (open, position, shed, close,
// match, recycle) happens on the goroutine of the shard placeShard
// picked at its open: windows never change shard, so no shard ever
// waits on another.
type partitioner struct {
	p  *Pipeline
	mu sync.Mutex

	policy *window.Policy
	// home[i] is the shard owning window homeBase+i, or -1 once it has
	// closed. Windows are numbered in opening order, so an open appends
	// and the closed prefix is dropped.
	home     []int32
	homeBase window.ID

	// Per-shard staging state, indexed by shard id.
	staged []*shardBatch
	owned  []int    // open windows per shard: memberships per event op
	evMark []uint64 // stamp of the event currently staged per shard
	evIdx  []int32  // its index in that shard's staged events

	evStamp uint64     // bumped once per routed event (dedup stamps)
	epoch   uint64     // next window-close epoch (merge order)
	arrived time.Time  // arrival time of the submit call being staged
	lastTS  event.Time // latest routed event timestamp (flush close time)

	closed   bool        // input sealed; shard channels are closed
	canceled atomic.Bool // Run's context ended; drop instead of send
	done     chan struct{}
}

func newPartitioner(p *Pipeline, spec window.Spec) (*partitioner, error) {
	policy, err := window.NewPolicy(spec)
	if err != nil {
		return nil, err
	}
	n := len(p.shards)
	return &partitioner{
		p:      p,
		policy: policy,
		staged: make([]*shardBatch, n),
		owned:  make([]int, n),
		evMark: make([]uint64, n),
		evIdx:  make([]int32, n),
		done:   make(chan struct{}),
	}, nil
}

// batchFor returns shard si's staging batch, starting a fresh one (from
// the shard's recycle ring when possible) on demand.
func (pt *partitioner) batchFor(si int) *shardBatch {
	b := pt.staged[si]
	if b == nil {
		select {
		case b = <-pt.p.shards[si].recycle:
		default:
			b = &shardBatch{}
		}
		b.arrived = pt.arrived
		pt.staged[si] = b
	}
	return b
}

// flushShard sends shard si's staged batch. Sends happen only under
// pt.mu and channels are closed only under pt.mu, so a send can never
// race a close; after a cancel the batch is dropped instead (the shards
// are in drain mode and the backlog is moot).
func (pt *partitioner) flushShard(si int) {
	b := pt.staged[si]
	if b == nil {
		return
	}
	pt.staged[si] = nil
	pt.evMark[si] = 0 // event indices die with the batch
	if pt.canceled.Load() {
		pt.p.shards[si].queued.Add(-int64(b.members))
		return
	}
	pt.p.shards[si].in <- b
}

func (pt *partitioner) flushAll() {
	for si := range pt.staged {
		pt.flushShard(si)
	}
}

// ensureEvent stages ev into shard si's batch once per routed event and
// returns its index; the open op and the event op of one event on one
// shard share the entry (stamp-based dedup, no map).
func (pt *partitioner) ensureEvent(si int, ev event.Event) int32 {
	if pt.evMark[si] == pt.evStamp {
		return pt.evIdx[si]
	}
	b := pt.batchFor(si)
	idx := int32(len(b.events))
	b.events = append(b.events, ev)
	pt.evMark[si] = pt.evStamp
	pt.evIdx[si] = idx
	return idx
}

// stageOp appends one op to shard si's batch, flushing it once it
// reaches opsFlushBatch ops.
func (pt *partitioner) stageOp(si int, op shardOp) {
	b := pt.batchFor(si)
	b.ops = append(b.ops, op)
	if len(b.ops) >= opsFlushBatch {
		pt.flushShard(si)
	}
}

// routeOne runs the windowing Policy for one event and streams the
// step to the owning shards: the closes before routing, the open, one
// event op per shard that owns an open window (the ops around it keep
// each shard's open windows at that op exactly the event's
// memberships), then the closes after routing. Close epochs follow that
// same order. Caller holds pt.mu.
func (pt *partitioner) routeOne(ev event.Event) {
	st := pt.policy.Step(ev)
	pt.evStamp++
	pt.lastTS = ev.TS
	for _, r := range st.Before {
		pt.stageClose(r, ev.TS)
	}
	if st.Opened {
		pt.stageOpen(st.Open, ev)
	}
	pt.stageEvent(ev)
	for _, r := range st.After {
		pt.stageClose(r, ev.TS)
	}
	pt.p.processed.Add(1)
}

// stageOpen places a freshly opened window on the least-occupied shard
// (see placeShard) and stages its open op there. Placement
// does not affect the output — opens, close epochs and (through the
// shard's ascending-ID order) positions are the Policy's regardless of
// where the window lives — so load-aware placement keeps
// shard=N output byte-identical to shard=1 while spreading skewed (hot)
// windows across cores instead of pinning windowID%N. Caller holds
// pt.mu.
func (pt *partitioner) stageOpen(r window.Rec, ev event.Event) {
	si := pt.placeShard(r.ID, len(pt.p.shards))
	pt.home = append(pt.home, int32(si))
	pt.owned[si]++
	pt.p.shards[si].occupancy.Add(occWeight(r))
	pt.stageOp(si, shardOp{
		kind:  opOpen,
		evIdx: pt.ensureEvent(si, ev),
		win:   r.ID,
		a:     uint64(r.ExpectedSize),
	})
}

// stageEvent stages ev's event op on every shard that owns an open
// window, counting its memberships (one per owned open window) into the
// shard's backlog. The first such op carries the latency sample when ev
// is sampled; an event in no window is timed here instead, so every
// 1-in-N event still contributes. Caller holds pt.mu.
func (pt *partitioner) stageEvent(ev event.Event) {
	sample := pt.p.sampleLatency()
	for si, n := range pt.owned {
		if n == 0 {
			continue
		}
		op := shardOp{kind: opEvent, evIdx: pt.ensureEvent(si, ev)}
		if sample {
			op.kind |= opSampleFlag
			sample = false
		}
		pt.batchFor(si).members += n
		pt.p.shards[si].queued.Add(int64(n))
		pt.stageOp(si, op)
	}
	if sample {
		now := time.Now()
		pt.p.mu.Lock()
		pt.p.latency.Add(event.Time(now.UnixMicro()),
			event.Time(now.Sub(pt.arrived).Microseconds()))
		pt.p.mu.Unlock()
	}
}

// occWeight is a window's contribution to its owning shard's occupancy
// estimate: the expected in-flight work it represents. It must be
// stable over the window's life (added at placement, subtracted at
// close), so it derives only from ExpectedSize, which the Policy fixes
// at open time.
func occWeight(r window.Rec) int64 {
	if r.ExpectedSize > 0 {
		return int64(r.ExpectedSize)
	}
	return 1
}

// placeShard picks the owning shard for a freshly opened window: the
// one with the lowest occupancy (sum of expected sizes of the open
// windows it owns), with queued-membership backlog breaking exact
// occupancy ties. The split matters: scoring on backlog directly makes
// uniform-workload placement chase whichever shard the scheduler
// drained last, clustering consecutive windows and costing ~10%
// throughput, so backlog only decides when occupancy genuinely cannot —
// notably tumbling predicate windows, where at most one window is open
// and every shard's occupancy is zero at placement time, exactly the
// regime where a hot window leaves a backlogged shard that static
// modular placement would keep re-picking. The scan starts at
// windowID%n so a fully balanced pipeline degenerates to the old
// deterministic round-robin placement instead of piling ties onto
// shard 0. Caller holds pt.mu.
func (pt *partitioner) placeShard(id window.ID, nshards int) int {
	start := int(id % window.ID(nshards))
	if nshards == 1 {
		return 0
	}
	best, bestScore, bestQ := start, int64(1)<<62, int64(1)<<62
	for k := 0; k < nshards; k++ {
		i := start + k
		if i >= nshards {
			i -= nshards
		}
		s := pt.p.shards[i]
		score := s.occupancy.Load()
		if score > bestScore {
			continue
		}
		if q := s.queued.Load(); score < bestScore || q < bestQ {
			best, bestScore, bestQ = i, score, q
		}
	}
	return best
}

// stageClose emits the close op for a window the Policy closed on the
// shard that owns it and assigns its merge epoch (global close order —
// exactly the serial pipeline's emission order). Caller holds pt.mu.
func (pt *partitioner) stageClose(r window.Rec, now event.Time) {
	i := int(r.ID - pt.homeBase)
	si := int(pt.home[i])
	pt.home[i] = -1
	n := 0
	for n < len(pt.home) && pt.home[n] < 0 {
		n++
	}
	pt.home = slices.Delete(pt.home, 0, n)
	pt.homeBase += window.ID(n)
	pt.stageOp(si, shardOp{
		kind: opClose,
		win:  r.ID,
		a:    pt.epoch,
		b:    uint64(now),
	})
	pt.epoch++
	pt.owned[si]--
	pt.p.shards[si].occupancy.Add(-occWeight(r))
}

// submitBatch partitions a batch of events; it blocks while the owning
// shards' bounded queues are full (backpressure). Safe for concurrent
// producers; events of one call are routed contiguously in stream order.
func (pt *partitioner) submitBatch(events []event.Event) {
	if len(events) == 0 {
		return
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.closed || pt.p.failed.Load() {
		return
	}
	pt.arrived = time.Now()
	for _, ev := range events {
		if pt.canceled.Load() {
			break
		}
		pt.p.submitted.Add(1)
		pt.routeOne(ev)
	}
	pt.flushAll()
}

// submitOne is Submit's allocation-free single-event path.
func (pt *partitioner) submitOne(ev event.Event) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.closed || pt.canceled.Load() || pt.p.failed.Load() {
		return
	}
	pt.arrived = time.Now()
	pt.p.submitted.Add(1)
	pt.routeOne(ev)
	pt.flushAll()
}

// close seals the input: remaining open windows are flushed closed at
// the last routed timestamp, every staged batch is sent, and the shard
// channels are closed so Run can drain and return. Idempotent.
func (pt *partitioner) close() {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.closed {
		return
	}
	if !pt.canceled.Load() && !pt.p.failed.Load() {
		// After a contained panic the Policy may be mid-step and the
		// shards are in drain mode anyway; skip the final flush closes.
		for _, r := range pt.policy.Flush() {
			pt.stageClose(r, pt.lastTS)
		}
	}
	pt.flushAll()
	pt.closed = true
	for _, s := range pt.p.shards {
		close(s.in)
	}
	close(pt.done)
}

// cancel puts the partitioner into drop mode after Run's context ended:
// in-flight submits finish their current shard send (the shards are
// draining, so it completes), then stop routing; the shard channels are
// then closed under the same mutex, which can never race a send.
func (pt *partitioner) cancel() {
	pt.canceled.Store(true)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if !pt.closed {
		pt.closed = true
		for _, s := range pt.p.shards {
			close(s.in)
		}
		close(pt.done)
	}
}
