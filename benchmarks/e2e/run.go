package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/wal"
)

// metricSet collects measured values by metric name, with the number of
// samples behind each.
type metricSet struct {
	vals    map[string]float64
	samples map[string]int
}

func newMetricSet() metricSet {
	return metricSet{vals: map[string]float64{}, samples: map[string]int{}}
}

func (m metricSet) set(name string, v float64, samples int) {
	m.vals[name] = v
	m.samples[name] = samples
}

// options are the knobs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // benchmarks/out: WAL directories and span files
}

// report is the outcome of one workload run.
type report struct {
	Workload  string
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   metricSet
	Notes     []string // validity warnings and failed checks, in order
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check worth n operations.
func (r *report) fail(n uint64, format string, args ...any) {
	if n == 0 {
		n = 1
	}
	r.Failed += n
	r.Correct = false
	r.note("FAILED: "+format, args...)
}

// setupRounds is how often a run sets the workload up; setup_s is the
// median, and the last round's stack is the one measured.
const setupRounds = 7

// runWorkload sets the workload up, runs its saturation leg and its
// paced leg, checks every output and returns the metrics.
func runWorkload(o options) (*report, error) {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: wl.Name, Correct: true, Metrics: newMetricSet()}
	m := rep.Metrics
	tr := &tracer{}
	var ms0 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)

	// Set-up: dataset generation, training and stack start until the
	// clients have dialed (preface and credit exchanged).
	var prep *prepared
	var st *stack
	var setups, trains []float64
	for round := 0; round < setupRounds; round++ {
		if st != nil {
			st.abort()
		}
		t0 := time.Now()
		if prep, err = wl.prepare(o.seed); err != nil {
			return nil, err
		}
		if st, err = startStack(prep.sat, o.outDir, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, prep.trainS)
	}
	m.set("setup_s", median(setups), len(setups))
	m.set("core.model.train_s", median(trains), len(trains))

	// Saturation leg: closed loop, one producer goroutine per connection.
	satDur := time.Duration(o.seconds * wl.satShare * float64(time.Second))
	var plain, traced satResult
	err = func() error {
		defer st.abort()
		if o.trace {
			// Half the leg untraced, half traced: the difference is what
			// the wrappers' span recording costs.
			if plain, err = st.runSat(satDur/2, false); err != nil {
				return err
			}
			if traced, err = st.runSat(satDur/2, true); err != nil {
				return err
			}
			m.set("trace.overhead_pct", 100*(1-traced.rate/plain.rate), traced.slices)
			m.set("process.allocs_per_event", float64(traced.mallocs)/float64(traced.events), 1)
		} else if plain, err = st.runSat(satDur, false); err != nil {
			return err
		}
		if err := st.finish(); err != nil {
			return err
		}
		st.verify(rep, "sat")
		return st.recoverJournal(rep, true)
	}()
	if err != nil {
		return nil, fmt.Errorf("%s: saturation leg: %w", wl.Name, err)
	}
	m.set("sat_events_per_s", plain.rate, plain.slices)
	m.set("sat_cpu_us_per_event", plain.cpu*1e6/float64(plain.events), 1)
	rep.Attempted += st.sent()

	// Paced leg: open loop on a fresh stack of the same shape.
	rate, capacity := prep.pacedRate, 0.0
	if prep.calibrate != nil {
		if capacity, err = prep.calibrate(time.Duration(calibrateShare * o.seconds * float64(time.Second))); err != nil {
			return nil, fmt.Errorf("%s: calibrate: %w", wl.Name, err)
		}
		rate = overloadFactor * capacity
		m.set("core.capacity_events_per_s", capacity, 1)
	}
	if st, err = startStack(prep.paced, o.outDir, tr); err != nil {
		return nil, err
	}
	err = func() error {
		defer st.abort()
		pr, err := st.runPaced(time.Duration(o.seconds*(1-wl.satShare)*float64(time.Second)), rate, o.trace)
		if err != nil {
			return err
		}
		// What the stack still holds once it is idle: queues drained, open
		// windows, pools, latency traces, decode and journal buffers.
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		m.set("retained_heap_mb", float64(ms.HeapInuse)/(1<<20), 1)
		m.set("process.gc_pause_total_ms", float64(ms.PauseTotalNs-ms0.PauseTotalNs)/1e6, int(ms.NumGC-ms0.NumGC))
		lat := st.side.primary().Latency()
		if err := st.finish(); err != nil {
			return err
		}
		st.pacedMetrics(rep, pr, prep, rate, capacity, lat)
		st.verify(rep, "paced")
		if o.trace {
			reduceTrace(tr, pr.pc, st.collectors, m, prep.engine)
			path := filepath.Join(o.outDir, "trace-"+wl.Name+".json")
			if err := writeTrace(path, tr, pr.pc, st.collectors); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
		return st.recoverJournal(rep, false)
	}()
	if err != nil {
		return nil, fmt.Errorf("%s: paced leg: %w", wl.Name, err)
	}
	rep.Attempted += st.sent()

	if o.trace {
		if err := isolatedPasses(o, prep, m); err != nil {
			return nil, fmt.Errorf("%s: isolated pass: %w", wl.Name, err)
		}
	}
	return rep, nil
}

// satResult is one closed-loop phase.
type satResult struct {
	events  uint64
	wall    float64 // first send → fully drained
	cpu     float64 // process user+sys seconds over the same interval
	rate    float64 // median over slices of events accepted per second
	slices  int
	mallocs uint64
}

// satSlices is how many slices a saturation phase's throughput is the
// median of: one stall (a GC cycle, an fsync hiccup) moves one slice.
const satSlices = 40

// runSat saturates the stack for d: every producer sends as fast as its
// credit allows; the clock stops when the side has drained.
func (s *stack) runSat(d time.Duration, traced bool) (satResult, error) {
	tr := s.tr
	tr.reset()
	tr.on.Store(traced)
	defer tr.on.Store(false)

	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	sent0, acc0 := s.sent(), s.sink.accepted.Load()
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(d)

	// The monitor samples the accepted counter; the slices end when the
	// producers stop, so the drain tail is not part of the rate.
	stopMon := make(chan struct{})
	var rates []float64
	var mon sync.WaitGroup
	mon.Add(1)
	go func() {
		defer mon.Done()
		slice := max(d/satSlices, 10*time.Millisecond)
		lastT, lastN := start, acc0
		for {
			select {
			case <-stopMon:
				return
			case <-time.After(slice):
			}
			now, n := time.Now(), s.sink.accepted.Load()
			rates = append(rates, float64(n-lastN)/now.Sub(lastT).Seconds())
			lastT, lastN = now, n
		}
	}()

	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	for _, p := range s.prods {
		wg.Add(1)
		go func(p *producer) {
			defer wg.Done()
			for time.Now().Before(deadline) && firstErr.Load() == nil {
				if err := p.send(tr); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(stopMon)
	mon.Wait()
	if e := firstErr.Load(); e != nil {
		return satResult{}, *e
	}
	if err := s.waitDrained(); err != nil {
		return satResult{}, err
	}
	res := satResult{
		events: s.sent() - sent0,
		wall:   time.Since(start).Seconds() - 0.005, // waitDrained's settle sleep
		cpu:    cpuSeconds() - cpu0,
		slices: len(rates),
	}
	goruntime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.rate = float64(res.events) / res.wall
	if len(rates) >= 5 {
		res.rate = median(rates)
	}
	return res, nil
}

// pacedResult is one open-loop phase.
type pacedResult struct {
	pc      *pacing
	batches int
	wall    float64
	cpu     float64
	lateMs  []float64 // send start − due, per batch
	queue   []float64 // sampled pipeline queue length (traced runs)
	stats   runtime.Stats
}

// runPaced offers rate events/s for d from one pacer goroutine: batch g
// goes to connection g mod conns and is due at start + g·batch/rate. A
// batch that cannot be sent on time is sent late, never skipped, and
// everything downstream is timed from its due time.
//
// The pacer sleeps until the next due time and sends whatever is due
// when it wakes. On a VM without high-resolution timers a sleep ends on
// a timer tick (about 1.1 ms apart), so batches leave in small bursts up
// to one tick late and every paced latency includes that lateness. The
// alternative, yielding in a loop until the due time, keeps one of two
// Ps busy and delays the netpoller wake-ups of the very server being
// measured by milliseconds.
func (s *stack) runPaced(d time.Duration, rate float64, traced bool) (*pacedResult, error) {
	tr := s.tr
	tr.reset()
	tr.on.Store(traced)
	defer tr.on.Store(false)

	batch := s.cfg.batch
	interval := float64(batch) / rate * 1e9
	n := int(float64(d) / interval)
	if n < len(s.prods) {
		n = len(s.prods)
	}
	pc := &pacing{start: nowNs() + int64(2*time.Millisecond), interval: interval, conns: len(s.prods), batch: batch}
	s.paced.Store(pc)
	res := &pacedResult{pc: pc, batches: n, lateMs: make([]float64, 0, n)}

	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if traced {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for {
				select {
				case <-stopSampler:
					return
				case <-time.After(10 * time.Millisecond):
					res.queue = append(res.queue, float64(s.side.primary().Stats().QueueLen))
				}
			}
		}()
	}

	cpu0 := cpuSeconds()
	t0 := time.Now()
	var sendErr error
	for g := 0; g < n && sendErr == nil; g++ {
		due := pc.start + int64(float64(g)*interval)
		if wait := time.Duration(due - nowNs()); wait > 0 {
			time.Sleep(wait)
		}
		res.lateMs = append(res.lateMs, float64(nowNs()-due)/1e6)
		sendErr = s.prods[g%len(s.prods)].send(tr)
	}
	if sendErr == nil {
		sendErr = s.waitDrained()
	}
	res.wall = time.Since(t0).Seconds()
	res.cpu = cpuSeconds() - cpu0
	close(stopSampler)
	sampler.Wait()
	res.stats = s.side.primary().Stats()
	return res, sendErr
}

// pacedMetrics derives the latency, quality and shedding metrics of the
// paced leg. Call after finish: every collector has stopped.
func (s *stack) pacedMetrics(rep *report, pr *pacedResult, prep *prepared, rate, capacity float64, lat *metrics.LatencyTrace) {
	m := rep.Metrics
	var detect []float64
	for _, c := range s.collectors {
		detect = append(detect, c.latMs...)
	}
	bound := float64(shedLatencyBound) / float64(event.Millisecond)
	late := 0
	for _, v := range detect {
		if v > bound {
			late++
		}
	}
	m.set("paced_detect_p50_ms", percentile(detect, 50), len(detect))
	m.set("paced_detect_p95_ms", percentile(detect, 95), len(detect))
	m.set("paced_detect_p99_ms", percentile(detect, 99), len(detect))
	if len(detect) == 0 {
		rep.fail(1, "paced leg detected no complex event")
		return
	}
	m.set("lb_violation_pct", 100*float64(late)/float64(len(detect)), len(detect))
	m.set("lb_met_pct", 100-100*float64(late)/float64(len(detect)), len(detect))

	var acks []float64
	for c := range s.prods {
		for j, t := range s.sink.acks[c] {
			acks = append(acks, float64(t-pr.pc.due(c, uint64(j)))/1e6)
		}
	}
	m.set("paced_ack_p50_ms", percentile(acks, 50), len(acks))
	m.set("paced_ack_p99_ms", percentile(acks, 99), len(acks))

	// Validity: a generator that runs later than one batch interval plus
	// one timer tick plus 1 ms, or a client that waits for credit, means
	// the fixed rate is above what this machine sustains — the backlog
	// grows and the latencies describe the queue, not the system at that
	// rate.
	var creditWait time.Duration
	var cs transport.ClientStats
	for _, p := range s.prods {
		creditWait += p.stats.CreditWait
		cs.Redials += p.stats.Redials
		cs.Retransmits += p.stats.Retransmits
		cs.Flushes += p.stats.Flushes
	}
	creditShare := 100 * creditWait.Seconds() / pr.wall
	lateP99 := percentile(pr.lateMs, 99)
	valid := 1.0
	if limit := pr.pc.interval/1e6 + sleepFloor().Seconds()*1e3 + 1; lateP99 > limit {
		valid = 0
		rep.note("paced phase invalid: generator lateness p99 %.3f ms exceeds %.3f ms", lateP99, limit)
	}
	if creditShare > 5 {
		valid = 0
		rep.note("paced phase invalid: client waited for credit %.1f%% of the phase", creditShare)
	}
	m.set("loadgen.paced_valid", valid, 1)
	m.set("loadgen.late_p99_ms", lateP99, len(pr.lateMs))
	m.set("loadgen.late_max_ms", percentile(pr.lateMs, 100), len(pr.lateMs))
	m.set("transport.client.credit_wait_share", creditShare, 1)
	m.set("process.paced_cpu_share", 100*pr.cpu/pr.wall, 1)

	sent := float64(s.sent())
	ss := s.srv.Stats()
	m.set("transport.frames_per_kevent", 1000*float64(cs.Flushes)/sent, 1)
	m.set("transport.protocol_errors", float64(ss.ProtocolErrors), 1)
	m.set("transport.redials", float64(cs.Redials), 1)
	m.set("transport.retransmits", float64(cs.Retransmits), 1)
	m.set("transport.dedup_batches", float64(ss.DedupBatches), 1)
	throttled := uint64(0)
	for _, t := range ss.Tenants {
		throttled += t.ThrottledBatches
	}
	m.set("transport.tenant.throttled_batches", float64(throttled), 1)
	if s.jrn != nil {
		ws := s.jrn.log.Stats()
		m.set("wal.records_per_sync", float64(ws.Appends)/float64(max(ws.Syncs, 1)), int(ws.Syncs))
		m.set("wal.bytes_per_event", float64(ws.AppendedBytes)/sent, 1)
	}

	m.set("runtime.queue_len_p50", percentile(pr.queue, 50), len(pr.queue))
	m.set("runtime.queue_len_max", percentile(pr.queue, 100), len(pr.queue))
	m.set("runtime.event_latency_p99_ms", float64(lat.Percentile(99))/1e3, lat.Len())
	if lat.Len() > 0 {
		m.set("runtime.lb_violation_pct", 100*float64(lat.ViolationCount(shedLatencyBound))/float64(lat.Len()), lat.Len())
	}
	var steals, misses, maxMemb, sumMemb uint64
	for _, sh := range pr.stats.Shards {
		steals += sh.Steals
		misses += sh.PoolMisses
		sumMemb += sh.Memberships
		maxMemb = max(maxMemb, sh.Memberships)
	}
	if sumMemb > 0 {
		m.set("runtime.shard_skew", float64(maxMemb)*float64(len(pr.stats.Shards))/float64(sumMemb), len(pr.stats.Shards))
	}
	m.set("runtime.steals", float64(steals), 1)
	m.set("runtime.pool_misses", float64(misses), 1)

	// Quality against the unshed reference run of the same stream.
	q := metrics.Quality{}
	if s.cfg.keep {
		c := s.collectors[0]
		q = metrics.CompareQuality(reference(c.out, c.tile, s.prods[c.out.conn].next, nil), c.kept)
		if q.Truth == 0 {
			rep.fail(1, "reference run detected no complex event")
			return
		}
	}
	m.set("fn_pct", q.FNPct(), q.Truth)
	m.set("fp_pct", q.FPPct(), q.Truth)
	m.set("recall_pct", 100-q.FNPct(), q.Truth)
	// Precision is taken over the reference count, like the paper's
	// false-positive rate, so the two stay complements.
	m.set("precision_pct", 100-q.FPPct(), q.Truth)

	if sh := prep.shedder; sh != nil {
		op := pr.stats.Operator
		shed := 100 * float64(op.MembershipsShed) / float64(max(op.Memberships, 1))
		m.set("core.shed_pct", shed, int(op.Memberships))
		m.set("core.shed_vs_needed_ratio", shed/(100*(1-capacity/rate)), 1)
		m.set("core.shedder_active_share", 100*float64(sh.Decisions())/float64(max(op.Memberships, 1)), int(op.Memberships))
		// Headroom: a shedder that drops almost nothing or almost
		// everything, or a quality pinned at either end, cannot show a
		// control-loop change in both directions. The backlog needs about
		// a second to reach the trigger, so a shorter phase says nothing.
		if pr.wall >= bandMinSeconds {
			if shed < shedPctBand[0] || shed > shedPctBand[1] {
				rep.fail(1, "core.shed_pct %.1f outside its headroom band %v", shed, shedPctBand)
			}
			if fn := q.FNPct(); fn < fnPctBand[0] || fn > fnPctBand[1] {
				rep.fail(1, "fn_pct %.1f outside its headroom band %v", fn, fnPctBand)
			}
		}
	}
}

// Headroom bands of overload_shed (see pacedMetrics).
var (
	shedPctBand = [2]float64{10, 90}
	fnPctBand   = [2]float64{1, 60}
)

// bandMinSeconds is the shortest paced phase the bands are checked on.
const bandMinSeconds = 4

// reference replays the first n events of the output's connection
// through a fresh operator, exactly as the pipeline behind the output
// saw them, and returns the complex events (or folds them into h).
func reference(o output, tl *tile, n uint64, fold func(operator.ComplexEvent)) []operator.ComplexEvent {
	op, err := operator.New(operator.Config{Window: o.query.Window, Patterns: o.query.Patterns})
	if err != nil {
		panic(err) // the same query already built the pipeline under test
	}
	var out []operator.ComplexEvent
	emit := func(ces []operator.ComplexEvent) {
		for _, ce := range ces {
			if fold != nil {
				fold(ce)
			} else {
				out = append(out, ce)
			}
		}
	}
	var last event.Time
	for i := uint64(0); i < n; i++ {
		ev := tl.at(o.conn, i)
		if !o.accepts(ev.Type) {
			continue
		}
		emit(op.Process(ev))
		last = ev.TS
	}
	emit(op.Flush(last))
	return out
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// verify checks the leg's ledger and, output by output, that the stack
// detected exactly the reference run's complex events in its order.
func (s *stack) verify(rep *report, leg string) {
	var sent, accepted ledger
	for _, p := range s.prods {
		sent.merge(p.sent)
		accepted.merge(s.sink.ledgers[p.conn])
		if p.stats.Sent != p.stats.Accepted || p.stats.Sent != p.sent.count {
			rep.fail(diff(p.stats.Sent, p.stats.Accepted), "%s: conn %d: client sent %d, server acknowledged %d, generated %d",
				leg, p.conn, p.stats.Sent, p.stats.Accepted, p.sent.count)
		}
	}
	if sent != accepted {
		rep.fail(diff(sent.count, accepted.count), "%s: ledger sent %+v != accepted %+v", leg, sent, accepted)
	}
	ss := s.srv.Stats()
	if ss.EventsBinary != sent.count || ss.ProtocolErrors != 0 {
		rep.fail(diff(ss.EventsBinary, sent.count), "%s: server accepted %d of %d events, %d protocol errors",
			leg, ss.EventsBinary, sent.count, ss.ProtocolErrors)
	}
	op, expect := s.side.counters()
	if op.EventsProcessed != expect {
		rep.fail(diff(op.EventsProcessed, expect), "%s: processed %d of %d delivered events", leg, op.EventsProcessed, expect)
	}
	if op.MembershipsKept+op.MembershipsShed != op.Memberships {
		rep.fail(diff(op.MembershipsKept+op.MembershipsShed, op.Memberships), "%s: kept %d + shed %d != memberships %d",
			leg, op.MembershipsKept, op.MembershipsShed, op.Memberships)
	}
	if s.cfg.keep {
		return // shed output is compared as a set, by pacedMetrics
	}
	// One reference replay per output, two at a time (the box has two
	// cores and the stack is down).
	type verdict struct {
		n      uint64
		digest uint64
	}
	refs := make([]verdict, len(s.collectors))
	sem := make(chan struct{}, goruntime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, c := range s.collectors {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c *collector) {
			defer wg.Done()
			defer func() { <-sem }()
			h := fnv.New64a()
			reference(c.out, c.tile, s.prods[c.out.conn].next, func(ce operator.ComplexEvent) {
				refs[i].n++
				foldCE(h, ce)
			})
			refs[i].digest = h.Sum64()
		}(i, c)
	}
	wg.Wait()
	for i, c := range s.collectors {
		switch {
		case c.n != refs[i].n:
			rep.fail(diff(c.n, refs[i].n), "%s: %s: %d complex events, reference has %d", leg, c.out.name, c.n, refs[i].n)
		case c.digest.Sum64() != refs[i].digest:
			rep.fail(1, "%s: %s: %d complex events differ from the reference in content or order", leg, c.out.name, c.n)
		case c.n == 0:
			rep.fail(1, "%s: %s: no complex event detected", leg, c.out.name)
		}
	}
}

// recoverJournal is the read side of the journaled workload: close the
// log, open it again on the same directory and replay it, decoding every
// record. The replayed events must be exactly the sent ones.
func (s *stack) recoverJournal(rep *report, record bool) error {
	if s.jrn == nil {
		return nil
	}
	defer s.dropJournal()
	if err := s.jrn.log.Close(); err != nil {
		return fmt.Errorf("close journal: %w", err)
	}
	var got ledger
	records := 0
	dec := transport.Decoder{Retain: true}
	t0 := time.Now()
	log, err := openLog(s.walDir, func(r wal.Record) error {
		events, err := dec.DecodeEvents(r.Payload)
		if err != nil {
			return fmt.Errorf("wal record %d: %w", r.Seq, err)
		}
		got.add(events)
		records++
		return nil
	})
	if err != nil {
		return fmt.Errorf("recover journal: %w", err)
	}
	wall := time.Since(t0).Seconds()
	s.jrn.log = log
	var sent ledger
	for _, p := range s.prods {
		sent.merge(p.sent)
	}
	if got != sent {
		rep.fail(diff(got.count, sent.count), "journal replayed %+v, sent %+v", got, sent)
	}
	if record && records > 0 {
		m := rep.Metrics
		m.set("recover_events_per_s", float64(got.count)/wall, records)
		m.set("wal.recover_ns_per_record", wall*1e9/float64(records), records)
	}
	return nil
}

// fsType names the filesystem under dir; the journaled workload's
// numbers mean something else on a filesystem whose fsync is free.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext2/ext3/ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cleanStale removes journal directories a killed run left behind.
func cleanStale(outDir string) {
	old, _ := filepath.Glob(filepath.Join(outDir, "wal-*"))
	for _, d := range old {
		_ = os.RemoveAll(d)
	}
}
