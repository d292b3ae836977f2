package engine

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
)

// Stats is a merged snapshot of the engine counters: the ingress side,
// the global budget state and one entry per registered query.
type Stats struct {
	// Submitted counts events accepted by Submit/SubmitBatch.
	Submitted uint64
	// Delivered sums per-query deliveries (one event fanning out to k
	// queries counts k times), including the lifetime deliveries of
	// since-deregistered queries, so it is monotonic.
	Delivered uint64
	// Skipped sums per-query filter rejections, deregistered queries
	// included.
	Skipped uint64
	// InputRate is the summed per-query delivered-rate estimate in
	// events per second.
	InputRate float64
	// Capacity is the summed per-query unshed-throughput estimate in
	// events per second.
	Capacity float64
	// Overloaded reports the last global budget decision.
	Overloaded bool
	// DropRate is the current global drop-rate target in events per
	// second (0 when not overloaded).
	DropRate float64
	// Queries holds one entry per registered query, in registration
	// order.
	Queries []QueryStats
	// Tenants holds one entry per tenant ever seen (quota set, events
	// submitted, or query scoped), in first-seen order; index 0 is the
	// default tenant "".
	Tenants []TenantStats
	// Quarantined holds one entry per query name that has ever been
	// quarantined by a pipeline panic, sorted by name. An entry with
	// Restarting set will be re-registered by the circuit breaker; a
	// name may appear here and in Queries at once after a restart.
	Quarantined []QuarantineStats
}

// QueryStats is one query's slice of the engine statistics.
type QueryStats struct {
	// Name is the registration key.
	Name string
	// Delivered and Skipped count fan-out decisions for this query.
	Delivered uint64
	Skipped   uint64
	// Weight is the query's budget weight.
	Weight float64
	// ShedActive reports whether the query's shedder currently drops.
	ShedActive bool
	// Pipeline is the underlying pipeline's counter snapshot.
	Pipeline runtime.Stats
}

// Stats returns a merged snapshot across the engine and all registered
// queries. Safe to call while the engine runs.
func (e *Engine) Stats() Stats {
	st := Stats{
		Submitted:  e.submitted.Load(),
		Overloaded: e.overloaded.Load(),
		DropRate:   math.Float64frombits(e.dropRate.Load()),
	}
	e.mu.RLock()
	qs := append([]*Query(nil), e.queries...)
	st.Delivered = e.retiredDelivered.Load()
	st.Skipped = e.retiredSkipped.Load()
	st.Quarantined = e.quarantineSnapshot()
	e.mu.RUnlock()
	recs := e.tenantSnapshot()
	st.Tenants = make([]TenantStats, len(recs))
	for i, rec := range recs {
		quota := rec.quotaSnapshot()
		st.Tenants[i] = TenantStats{
			Name:      rec.name,
			Submitted: rec.submitted.Load(),
			InputRate: rec.rate(),
			QuotaRate: quota.Rate,
			Weight:    quota.Weight,
			DropShare: rec.share(),
		}
	}
	for _, q := range qs {
		st.Queries = append(st.Queries, q.Stats())
		last := &st.Queries[len(st.Queries)-1]
		st.Delivered += last.Delivered
		st.Skipped += last.Skipped
		st.InputRate += last.Pipeline.InputRate
		st.Capacity += last.Pipeline.Throughput
		gid := q.tid
		if gid < 0 {
			gid = 0 // unscoped queries roll up under the default tenant
		}
		if int(gid) < len(st.Tenants) {
			t := &st.Tenants[gid]
			t.Delivered += last.Delivered
			t.Kept += last.Pipeline.Operator.MembershipsKept
			t.Shed += last.Pipeline.Operator.MembershipsShed
			t.ComplexEvents += last.Pipeline.Operator.ComplexEvents
		}
	}
	return st
}

// Stats returns this query's slice of the engine statistics.
func (q *Query) Stats() QueryStats {
	return QueryStats{
		Name:       q.name,
		Delivered:  q.delivered.Load(),
		Skipped:    q.skipped.Load(),
		Weight:     q.cfg.Weight,
		ShedActive: q.shedder != nil && q.shedder.Active(),
		Pipeline:   q.pipe.Stats(),
	}
}

// windowSizeEstimate resolves the ws used for the query's partitioning
// and per-window cost: the count-window size or the time-window size
// hint from the spec, falling back to the N of the shedder's *current*
// model — not the registration-time one — so after the online lifecycle
// swaps a retrained model in, the next budget tick recomputes the
// query's per-window cost (and hence its drop-rate share) against the
// new model.
func (q *Query) windowSizeEstimate() int {
	if ws := runtime.SpecWindowSize(q.cfg.Query.Window); ws > 0 {
		return ws
	}
	if q.shedder != nil {
		if m := q.shedder.Model(); m != nil && m.Trained() {
			return m.N()
		}
	}
	if q.cfg.Model != nil {
		return q.cfg.Model.N()
	}
	return 0
}

// budgetLoop periodically evaluates the global overload condition over
// the summed backlog and distributes the required drop rate across the
// shedding-capable queries.
func (e *Engine) budgetLoop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(e.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			e.tickTenantRates(time.Now())
			e.mu.RLock()
			qs := append([]*Query(nil), e.queries...)
			e.mu.RUnlock()
			e.evaluateBudget(qs)
		}
	}
}

// evaluateBudget is one budget tick: measure, decide, distribute,
// command. Section 3.4's per-operator detector is evaluated at the
// aggregate level — summed backlog, summed rate, summed throughput —
// and the drop rate δ it returns is split tenant-first by
// distributeTenantBudget (over-quota tenants absorb drops before
// compliant ones), then across each tenant's queries by
// distributeBudget. With every measured query in one tenant group the
// tenant level degenerates to a single share equal to the whole delta,
// reproducing the single-tenant behavior exactly.
func (e *Engine) evaluateBudget(qs []*Query) {
	type measured struct {
		q     *Query
		gid   int32 // budget group: the query's tenant id (unscoped → 0)
		rate  float64
		th    float64
		queue int
		ws    int
	}
	// totalQueue accumulates backlogs in events: each query's
	// Stats().QueueLen, which serial and sharded pipelines alike report in
	// events (runtime's backlogEvents), so they weigh equally here. The
	// engine queues nothing itself.
	var (
		ms         []measured
		totalQueue int
		rateSum    float64
		thSum      float64
	)
	for _, q := range qs {
		st := q.pipe.Stats()
		totalQueue += st.QueueLen
		rateSum += st.InputRate
		thSum += st.Throughput
		if q.shedder == nil {
			continue
		}
		if m := q.shedder.Model(); m == nil || !m.Trained() {
			// A lifecycle query still warming up cannot shed yet; leave
			// it out of the distribution instead of assigning it a share
			// its Configure would refuse.
			continue
		}
		gid := q.tid
		if gid < 0 {
			gid = 0 // unscoped queries are budgeted with the default tenant
		}
		ms = append(ms, measured{q: q, gid: gid, rate: st.InputRate,
			th: st.Throughput, queue: st.QueueLen, ws: q.windowSizeEstimate()})
	}
	recs := e.tenantSnapshot()
	if thSum <= 0 {
		return // no throughput estimates yet; nothing to decide on
	}

	// The aggregate has no window of its own: only Overloaded and δ are
	// read off this decision, each query's partitioning is computed below.
	dec := e.det.Evaluate(totalQueue, rateSum, thSum, 0)
	if !dec.Overloaded {
		e.overloaded.Store(false)
		storeFloat(&e.dropRate, 0)
		for _, rec := range recs {
			rec.shareBits.Store(0)
		}
		for _, m := range ms {
			m.q.shedder.Deactivate()
		}
		return
	}

	delta := dec.Delta
	e.overloaded.Store(true)
	storeFloat(&e.dropRate, delta)
	if len(ms) == 0 {
		return
	}

	// Cost of one window of query q is ws/th seconds; dividing by the
	// weight makes high-utility queries expensive to shed, so they shed
	// less. Queries without usable estimates are excluded this tick.
	costs := make([]float64, len(ms))
	caps := make([]float64, len(ms))
	for i, m := range ms {
		if m.th <= 0 || m.rate <= 0 || m.ws <= 0 {
			continue // cost stays 0: excluded from distribution
		}
		costs[i] = (float64(m.ws) / m.th) / m.q.cfg.Weight
		caps[i] = m.rate
	}

	// Group the measured queries by tenant and split delta tenant-first.
	var gids []int32
	members := map[int32][]int{}
	for i, m := range ms {
		if _, seen := members[m.gid]; !seen {
			gids = append(gids, m.gid)
		}
		members[m.gid] = append(members[m.gid], i)
	}
	groupShare := map[int32]float64{}
	if len(gids) == 1 {
		groupShare[gids[0]] = delta
	} else {
		tms := make([]tenantMeasure, len(gids))
		for gi, gid := range gids {
			var rec *tenantRec
			if int(gid) < len(recs) {
				rec = recs[gid]
			}
			tm := tenantMeasure{Weight: 1}
			var groupTh float64
			var groupQueue int
			for _, i := range members[gid] {
				tm.Cap += caps[i]
				groupTh += ms[i].th
				groupQueue += ms[i].queue
			}
			if rec != nil {
				tm.Rate = rec.rate()
			}
			if tm.Rate <= 0 {
				// No ingress measurement yet (e.g. unscoped queries fed by
				// Submit before the first tick, or a flood younger than one
				// rate tick); fall back to the summed per-query delivered
				// rates so the group still has mass — and so a brand-new
				// flood can already be counted against its quota.
				for _, i := range members[gid] {
					tm.Rate += ms[i].rate
				}
			}
			if rec != nil {
				quota := rec.quotaSnapshot()
				if quota.Weight > 0 {
					tm.Weight = quota.Weight
				}
				if quota.Rate > 0 {
					// Overage is measured two ways. Directly: the smoothed
					// ingress rate beyond the quota. And as debt: a tenant
					// the transport throttle has clamped back to its quota
					// rate still owes for the burst sitting in its queries'
					// queues, so once caught over the rate quota it stays
					// "over" — sized by the backlog beyond its own trigger,
					// expressed as a drop rate — until that backlog drains.
					if tm.Rate > quota.Rate {
						tm.Over = tm.Rate - quota.Rate
						rec.overDebt = true
					}
					debt := e.det.Evaluate(groupQueue, 0, groupTh, 0)
					if !debt.Overloaded {
						rec.overDebt = tm.Over > 0
					} else if rec.overDebt && debt.Delta > tm.Over {
						tm.Over = debt.Delta
					}
				}
			}
			tms[gi] = tm
		}
		for gi, share := range distributeTenantBudget(delta, tms) {
			groupShare[gids[gi]] = share
		}
	}
	for _, rec := range recs {
		rec.shareBits.Store(math.Float64bits(groupShare[rec.id]))
	}

	for _, gid := range gids {
		idx := members[gid]
		share := groupShare[gid]
		gcosts := make([]float64, len(idx))
		gcaps := make([]float64, len(idx))
		for j, i := range idx {
			gcosts[j] = costs[i]
			gcaps[j] = caps[i]
		}
		shares := distributeBudget(share, gcosts, gcaps)
		for j, i := range idx {
			m := ms[i]
			if shares[j] <= 0 {
				m.q.shedder.Deactivate()
				continue
			}
			part := core.ComputePartitioning(m.ws, e.det.QMax(m.th), e.cfg.F)
			// Configure only fails for an untrained model; a lost beat
			// just delays shedding by one poll period.
			_ = m.q.shedder.Configure(part, core.DropAmount(shares[j], part.PSize, m.rate))
		}
	}
}

// distributeBudget splits a required drop rate delta across queries
// proportionally to their costs, capping each query's share at caps[i]
// (a query cannot drop more than it receives) and redistributing the
// overflow among the uncapped queries. Entries with cost <= 0 get
// nothing. The returned slice is parallel to costs.
func distributeBudget(delta float64, costs, caps []float64) []float64 {
	out := make([]float64, len(costs))
	active := make([]bool, len(costs))
	nActive := 0
	for i, c := range costs {
		if c > 0 && caps[i] > 0 {
			active[i] = true
			nActive++
		}
	}
	remaining := delta
	for round := 0; round < len(costs) && nActive > 0 && remaining > 1e-12; round++ {
		costSum := 0.0
		for i := range costs {
			if active[i] {
				costSum += costs[i]
			}
		}
		if costSum <= 0 {
			break
		}
		allocated := remaining
		remaining = 0
		capped := false
		for i := range costs {
			if !active[i] {
				continue
			}
			share := allocated * costs[i] / costSum
			if out[i]+share >= caps[i] {
				remaining += out[i] + share - caps[i]
				out[i] = caps[i]
				active[i] = false
				nActive--
				capped = true
			} else {
				out[i] += share
			}
		}
		if !capped {
			break // everything allocated without hitting a cap
		}
	}
	return out
}

// storeFloat stores a float64 into an atomic bit container.
func storeFloat(a *atomic.Uint64, v float64) { a.Store(math.Float64bits(v)) }
