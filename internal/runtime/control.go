package runtime

import (
	"math"
	"sync/atomic"
	"time"
)

// lane is what the control loop reads of one stretch of serialized
// operator work: the serial pipeline's processing goroutine is one lane,
// every shard of a sharded pipeline is another. The owning goroutine
// advances the counters as it publishes work; the control loop turns
// their deltas into the lane's capacity estimate.
type lane struct {
	memberships atomic.Uint64 // (event, window) incidences handled
	kept        atomic.Uint64 // those that survived the shed decision
	busyNanos   atomic.Int64  // time spent handling them
	thEst       atomic.Uint64 // float64 bits: unshed capacity in events/s
}

// background starts run on its own goroutine and returns the function
// that stops it and waits for it to finish.
func background(run func(stop, done chan struct{})) func() {
	stop, done := make(chan struct{}), make(chan struct{})
	go run(stop, done)
	return func() {
		close(stop)
		<-done
	}
}

// startControl launches the control loop for the duration of Run and
// returns its stop function (a no-op when neither a Detector nor
// EstimateRates asks for it).
func (p *Pipeline) startControl() func() {
	if p.cfg.Detector == nil && !p.cfg.EstimateRates {
		return func() {}
	}
	return background(p.controlLoop)
}

// controlLoop is the pipeline's one overload-control loop (Section 3.4),
// serial or sharded: every PollInterval it re-estimates the input rate
// and each lane's capacity, and forwards one detector decision to the
// controller, which commands the shedder every lane shares.
func (p *Pipeline) controlLoop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(p.cfg.PollInterval)
	defer ticker.Stop()
	c := newControl(p, time.Now())
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			c.tick(now)
		}
	}
}

// control is the loop's memory between ticks: the previous reading of
// every counter it differentiates.
type control struct {
	p             *Pipeline
	lastTime      time.Time
	lastSubmitted uint64
	lastKept      []uint64 // per lane
	lastBusy      []int64  // per lane
}

func newControl(p *Pipeline, now time.Time) *control {
	return &control{
		p:        p,
		lastTime: now,
		lastKept: make([]uint64, len(p.lanes)),
		lastBusy: make([]int64, len(p.lanes)),
	}
}

// tick is one control period: estimate, evaluate, command.
func (c *control) tick(now time.Time) {
	p := c.p
	wall := now.Sub(c.lastTime).Seconds()
	if wall <= 0 {
		return
	}
	c.lastTime = now
	const alpha = 0.3 // EWMA smoothing for rate and throughput estimates

	submitted := p.submitted.Load()
	storeEWMA(&p.rateEst, float64(submitted-c.lastSubmitted)/wall, alpha)
	c.lastSubmitted = submitted

	// Throughput must describe the *unshed* capacity in events/s: events
	// per busy-second would inflate while shedding (shed memberships cost
	// almost nothing), so measure each lane's service rate per kept
	// membership and divide by the memberships-per-event factor kbar.
	// Lanes work in parallel, so the pipeline's capacity is their sum.
	kbar := p.kbar()
	for i, l := range p.lanes {
		kept, busy := l.kept.Load(), l.busyNanos.Load()
		if busyDelta := busy - c.lastBusy[i]; busyDelta > 0 && kept > c.lastKept[i] && kbar > 0 {
			perKept := float64(kept-c.lastKept[i]) / (float64(busyDelta) / 1e9)
			storeEWMA(&l.thEst, perKept/kbar, alpha)
		}
		c.lastKept[i], c.lastBusy[i] = kept, busy
	}
	th := p.throughput()
	if th <= 0 || p.cfg.Detector == nil {
		return
	}
	dec := p.cfg.Detector.Evaluate(p.backlogEvents(kbar), loadFloat(&p.rateEst), th,
		SpecWindowSize(p.cfg.Operator.Window))
	p.cfg.Controller.OnDecision(dec)
}

// kbar is the cumulative memberships-per-event factor: above 1 when
// windows overlap, far below 1 when predicate windows cover only a
// sliver of the stream; 0 until the first event is processed.
func (p *Pipeline) kbar() float64 {
	var memberships uint64
	for _, l := range p.lanes {
		memberships += l.memberships.Load()
	}
	if processed := p.processed.Load(); processed > 0 {
		return float64(memberships) / float64(processed)
	}
	return 0
}

// throughput is the pipeline's unshed capacity in events/s: the sum of
// the lanes' estimates.
func (p *Pipeline) throughput() float64 {
	th := 0.0
	for _, l := range p.lanes {
		th += loadFloat(&l.thEst)
	}
	return th
}

// backlogEvents is the pipeline's one definition of backlog, in events —
// the unit the detector, Stats().QueueLen and the engine's budget reason
// in. The serial queue counts events as it is. The shard queues count
// staged memberships, kbar per event, so M staged memberships stand for
// M/kbar events of input: fewer than M under overlapping windows, many
// more under sparse ones. Before the first processed event kbar is
// unknown and the staged count is reported as is.
func (p *Pipeline) backlogEvents(kbar float64) int {
	if p.part == nil {
		return int(p.qlen.Load())
	}
	var queued int64
	for _, s := range p.shards {
		queued += s.queued.Load()
	}
	if kbar > 0 {
		return int(float64(queued)/kbar + 0.5)
	}
	return int(queued)
}

func loadFloat(a *atomic.Uint64) float64 { return math.Float64frombits(a.Load()) }

func storeEWMA(a *atomic.Uint64, sample, alpha float64) {
	prev := loadFloat(a)
	next := sample
	if prev > 0 {
		next = (1-alpha)*prev + alpha*sample
	}
	a.Store(math.Float64bits(next))
}
