// Tenant dimension of the engine: ingress batches may carry a tenant
// identity (transport.TenantSink routes it through SubmitTenantBatch),
// queries may be scoped to one tenant, and the global shedding budget
// distributes the required drop rate tenant-first — over-quota tenants'
// low-utility windows shed before any compliant tenant loses a thing.
package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// TenantQuota is one tenant's engine-side policy: the ingress rate it
// is entitled to and its utility weight in the tenant-level budget
// split. The zero value means "no quota": the tenant is never counted
// as over quota, and its weight defaults to 1.
type TenantQuota struct {
	// Rate is the tenant's entitled ingress rate in events per second;
	// ingress beyond it is the tenant's overage, which the budget sheds
	// first under overload. Zero disables the overage computation.
	Rate float64
	// Weight is the tenant's utility weight for the remainder split
	// (after overage-first allocation): heavier tenants shed less.
	// Zero or negative defaults to 1.
	Weight float64
}

// TenantStats is one tenant's slice of the engine statistics.
type TenantStats struct {
	// Name is the tenant identity ("" for the default tenant, which
	// also owns all tenant-unscoped queries in the budget split).
	Name string
	// Submitted counts events submitted under this tenant.
	Submitted uint64
	// InputRate is the smoothed ingress rate estimate in events/s.
	InputRate float64
	// QuotaRate and Weight echo the configured quota.
	QuotaRate float64
	Weight    float64
	// DropShare is the tenant's current share of the global drop-rate
	// target in events/s (0 when not overloaded).
	DropShare float64
	// Delivered, Kept, Shed and ComplexEvents roll up the tenant's
	// scoped queries (Delivered counts fan-out deliveries; Kept/Shed
	// count window memberships through its shedders).
	Delivered     uint64
	Kept          uint64
	Shed          uint64
	ComplexEvents uint64
}

// tenantRec is one tenant's engine-side record. submitted is written
// on the ingress path; lastSub/lastTick belong to the budget
// goroutine; rateBits/shareBits are its published estimates.
type tenantRec struct {
	id   int32
	name string

	submitted atomic.Uint64
	rateBits  atomic.Uint64 // float64 bits: smoothed ingress rate
	shareBits atomic.Uint64 // float64 bits: current drop-rate share

	lastSub  uint64    // budget-goroutine only
	lastTick time.Time // budget-goroutine only
	// overDebt latches while a tenant caught exceeding its quota rate
	// still has unprocessed backlog: the transport throttle clamps a
	// flood back to exactly the quota rate, but the queued overage must
	// stay attributed to its producer until it drains. Budget-goroutine
	// only.
	overDebt bool

	mu    sync.Mutex
	quota TenantQuota
}

// rate returns the published smoothed ingress rate.
func (r *tenantRec) rate() float64 { return math.Float64frombits(r.rateBits.Load()) }

// share returns the published tenant-level drop share.
func (r *tenantRec) share() float64 { return math.Float64frombits(r.shareBits.Load()) }

// quotaSnapshot returns the current quota under the record mutex.
func (r *tenantRec) quotaSnapshot() TenantQuota {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quota
}

// tenantRecFor interns a tenant name, creating its record on first
// sight. The default tenant "" is pre-interned as id 0.
func (e *Engine) tenantRecFor(name string) *tenantRec {
	e.tenMu.RLock()
	if id, ok := e.tenantIDs[name]; ok {
		rec := e.tenants[id]
		e.tenMu.RUnlock()
		return rec
	}
	e.tenMu.RUnlock()
	e.tenMu.Lock()
	defer e.tenMu.Unlock()
	if id, ok := e.tenantIDs[name]; ok {
		return e.tenants[id]
	}
	rec := &tenantRec{id: int32(len(e.tenants)), name: name}
	e.tenantIDs[name] = rec.id
	e.tenants = append(e.tenants, rec)
	return rec
}

// tenantSnapshot copies the tenant record slice for lock-free
// iteration.
func (e *Engine) tenantSnapshot() []*tenantRec {
	e.tenMu.RLock()
	defer e.tenMu.RUnlock()
	return append([]*tenantRec(nil), e.tenants...)
}

// SetTenantQuota installs (or updates) one tenant's quota while the
// engine runs; the next budget tick applies it. Quotas can also be
// set up front with Config.Tenants.
func (e *Engine) SetTenantQuota(name string, q TenantQuota) {
	rec := e.tenantRecFor(name)
	rec.mu.Lock()
	rec.quota = q
	rec.mu.Unlock()
}

// tenantMeasure is one tenant group's input to the tenant-level budget
// split: its measured ingress rate, its overage beyond quota, its
// utility weight, and the most drop rate its member queries can absorb.
type tenantMeasure struct {
	Over   float64 // ingress beyond the quota rate (0 = compliant or unmetered)
	Rate   float64 // smoothed measured ingress rate
	Weight float64 // utility weight (> 0)
	Cap    float64 // sum of member-query caps: max drop rate assignable
}

// distributeTenantBudget splits the global drop-rate target delta
// across tenant groups in two levels. Level 1 is overage-first: tenants
// over their quota absorb drops proportionally to their overage, capped
// at min(overage, group cap) — a compliant tenant gets nothing here.
// Level 2 spreads whatever delta remains across the *over-quota*
// tenants only, up to their full residual capacity: the quota is an
// isolation contract, so while anyone is over it, compliant tenants
// shed nothing even if that leaves drop rate unassigned (the overage
// tenants' own queues wear the unpaid remainder). Only when no tenant
// is over quota — the overload is everyone's fault — does the remainder
// land on all groups, proportionally to rate/weight, so heavier tenants
// shed less. The returned slice is parallel to ms and sums to at most
// delta.
func distributeTenantBudget(delta float64, ms []tenantMeasure) []float64 {
	out := make([]float64, len(ms))
	if delta <= 0 || len(ms) == 0 {
		return out
	}
	// Level 1: overage-proportional, capped at min(over, cap).
	overCosts := make([]float64, len(ms))
	overCaps := make([]float64, len(ms))
	anyOver := false
	for i, m := range ms {
		if m.Over > 0 {
			anyOver = true
			if m.Cap > 0 {
				overCosts[i] = m.Over
				overCaps[i] = math.Min(m.Over, m.Cap)
			}
		}
	}
	level1 := distributeBudget(delta, overCosts, overCaps)
	assigned := 0.0
	for i, v := range level1 {
		out[i] = v
		assigned += v
	}
	remaining := delta - assigned
	if remaining <= 1e-12 {
		return out
	}
	// Level 2: the remainder lands on the over-quota tenants while any
	// exist, otherwise on everyone; either way weighted — a tenant's
	// drop priority is its rate divided by its weight.
	costs := make([]float64, len(ms))
	caps := make([]float64, len(ms))
	for i, m := range ms {
		if anyOver && m.Over <= 0 {
			continue // compliant tenants are shielded from the spill
		}
		w := m.Weight
		if w <= 0 {
			w = 1
		}
		if m.Rate > 0 && m.Cap-out[i] > 0 {
			costs[i] = m.Rate / w
			caps[i] = m.Cap - out[i]
		}
	}
	for i, v := range distributeBudget(remaining, costs, caps) {
		out[i] += v
	}
	return out
}

// tenantRateTau is the time constant (seconds) of the tenant
// ingress-rate estimator. The quota is a *sustained*-rate contract: a
// compliant producer whose pacing hiccups (a credit stall followed by a
// catch-up burst) must not be counted as over quota for one 5ms tick,
// so instantaneous samples are folded in with dt/(dt+tau) gain — a
// burst has to persist on the order of tau before the estimate crosses
// the quota, mirroring the burst allowance the transport's token bucket
// grants on the wire side.
const tenantRateTau = 1.0

// tickTenantRates refreshes every tenant's smoothed ingress-rate
// estimate from its submitted counter. Budget goroutine only.
func (e *Engine) tickTenantRates(now time.Time) {
	for _, rec := range e.tenantSnapshot() {
		cur := rec.submitted.Load()
		if rec.lastTick.IsZero() {
			rec.lastTick = now
			rec.lastSub = cur
			continue
		}
		dt := now.Sub(rec.lastTick).Seconds()
		if dt <= 0 {
			continue
		}
		inst := float64(cur-rec.lastSub) / dt
		prev := rec.rate()
		alpha := dt / (dt + tenantRateTau)
		smoothed := prev + alpha*(inst-prev)
		rec.rateBits.Store(math.Float64bits(smoothed))
		rec.lastSub = cur
		rec.lastTick = now
	}
}
