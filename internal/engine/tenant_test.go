package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
)

// TestTenantScopedDelivery pins the fan-out admission rule: a
// tenant-scoped query receives exactly its own tenant's events (other
// tenants' events count as skipped, like a type-filter rejection), an
// unscoped query receives every tenant's stream, and the scoped query's
// output is byte-identical to a standalone run over its tenant's
// filtered substream.
func TestTenantScopedDelivery(t *testing.T) {
	harness.VerifyNoLeaks(t)
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := pairQuery(t, 0)
	scoped, err := e.Register(QueryConfig{Query: q, Name: "scoped", Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := e.Register(QueryConfig{Query: pairQuery(t, 0), Name: "shared"})
	if err != nil {
		t.Fatal(err)
	}

	// Interleave two tenants' streams in blocks of 16 so each tenant's
	// substream still cycles through every type (an even/odd split
	// would starve alpha of the odd types its pattern needs).
	all := syntheticStream(2048)
	var alpha, beta []event.Event
	for i, ev := range all {
		if (i/16)%2 == 0 {
			alpha = append(alpha, ev)
		} else {
			beta = append(beta, ev)
		}
	}

	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()
	var outScoped, outShared []operator.ComplexEvent
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for ce := range scoped.Out() {
			outScoped = append(outScoped, ce)
		}
	}()
	go func() {
		defer wg.Done()
		for ce := range shared.Out() {
			outShared = append(outShared, ce)
		}
	}()
	// Submit in stream order, alternating tenants batch by batch so the
	// scoped query's substream keeps its original relative order.
	for i := 0; i < len(alpha); i += 64 {
		end := i + 64
		if end > len(alpha) {
			end = len(alpha)
		}
		e.SubmitTenantBatch("alpha", alpha[i:end])
		if i < len(beta) {
			bend := end
			if bend > len(beta) {
				bend = len(beta)
			}
			// One tenant check per batch: a foreign tenant's batch is
			// skipped whole, and by the time the submit returns.
			before := scoped.skipped.Load()
			e.SubmitTenantBatch("beta", beta[i:bend])
			if got := scoped.skipped.Load() - before; got != uint64(bend-i) {
				t.Errorf("foreign batch of %d events counted %d skipped", bend-i, got)
			}
		}
	}
	e.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	want := runStandalone(t, q, scoped.FilterEvents(alpha))
	if len(want) == 0 {
		t.Fatal("standalone run detected nothing; test is vacuous")
	}
	if !reflect.DeepEqual(outScoped, want) {
		t.Errorf("scoped query diverges from standalone over its tenant substream: got %d, want %d",
			len(outScoped), len(want))
	}
	if fmt.Sprint(outScoped) != fmt.Sprint(want) {
		t.Error("scoped query: rendered outputs differ")
	}
	if len(outShared) == 0 {
		t.Error("unscoped query saw no complex events")
	}

	st := e.Stats()
	sstats := scoped.Stats()
	// The scoped query skipped every beta event plus alpha's filtered
	// types; it delivered exactly its filtered alpha substream.
	if wantDel := uint64(len(scoped.FilterEvents(alpha))); sstats.Delivered != wantDel {
		t.Errorf("scoped delivered %d events, want %d", sstats.Delivered, wantDel)
	}
	if wantSkip := uint64(len(alpha) + len(beta) - len(scoped.FilterEvents(alpha))); sstats.Skipped != wantSkip {
		t.Errorf("scoped skipped %d events, want %d", sstats.Skipped, wantSkip)
	}
	byName := map[string]TenantStats{}
	for _, ts := range st.Tenants {
		byName[ts.Name] = ts
	}
	if got := byName["alpha"].Submitted; got != uint64(len(alpha)) {
		t.Errorf("tenant alpha submitted %d, want %d", got, len(alpha))
	}
	if got := byName["beta"].Submitted; got != uint64(len(beta)) {
		t.Errorf("tenant beta submitted %d, want %d", got, len(beta))
	}
	if got := byName["alpha"].Delivered; got != sstats.Delivered {
		t.Errorf("tenant alpha rolled-up delivered %d, want %d", got, sstats.Delivered)
	}
	if byName["alpha"].ComplexEvents == 0 {
		t.Error("tenant alpha rolled up zero complex events")
	}
}

// TestTenantQuotaConfig covers quota installation paths: Config.Tenants
// up front, SetTenantQuota live, and the Stats echo.
func TestTenantQuotaConfig(t *testing.T) {
	e, err := New(Config{Tenants: map[string]TenantQuota{
		"alpha": {Rate: 1000, Weight: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e.SetTenantQuota("beta", TenantQuota{Rate: 500})
	st := e.Stats()
	byName := map[string]TenantStats{}
	for _, ts := range st.Tenants {
		byName[ts.Name] = ts
	}
	if q := byName["alpha"]; q.QuotaRate != 1000 || q.Weight != 2 {
		t.Errorf("alpha quota = %+v, want Rate 1000 Weight 2", q)
	}
	if q := byName["beta"]; q.QuotaRate != 500 {
		t.Errorf("beta quota = %+v, want Rate 500", q)
	}
	if _, ok := byName[""]; !ok {
		t.Error("default tenant missing from stats")
	}
}

// TestDistributeTenantBudget pins the two-level tenant split: overage
// first, compliant tenants protected, weighted remainder.
func TestDistributeTenantBudget(t *testing.T) {
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

	// Overage absorbs the whole delta: the compliant tenant sheds zero.
	ms := []tenantMeasure{
		{Over: 900, Rate: 1000, Weight: 1, Cap: 1000}, // noisy: 10x over
		{Over: 0, Rate: 100, Weight: 1, Cap: 100},     // compliant
	}
	got := distributeTenantBudget(300, ms)
	if !approx(got[0], 300) || got[1] != 0 {
		t.Errorf("overage-first split = %v, want [300 0]", got)
	}

	// Delta beyond the total overage spills further into the over-quota
	// tenant — up to its full capacity — and never onto the compliant
	// one: the quota is an isolation contract.
	got = distributeTenantBudget(1000, ms)
	if !approx(got[0], 1000) {
		t.Errorf("noisy tenant got %v, want its full 1000 capacity", got[0])
	}
	if got[1] != 0 {
		t.Errorf("spill hit the compliant tenant for %v, want 0", got[1])
	}

	// Weight shields: same rates, tenant 0 has weight 4 so it sheds a
	// quarter as readily in the weighted level.
	ms = []tenantMeasure{
		{Rate: 1000, Weight: 4, Cap: 1000},
		{Rate: 1000, Weight: 1, Cap: 1000},
	}
	got = distributeTenantBudget(500, ms)
	if !approx(got[1]/got[0], 4) {
		t.Errorf("weighted split ratio = %v (%v), want 4x on the light tenant", got[1]/got[0], got)
	}

	// Allocation never exceeds caps, and with an over-quota tenant
	// saturated the compliant tenant still sheds nothing: the remainder
	// stays unassigned rather than leak across the quota boundary.
	ms = []tenantMeasure{
		{Over: 50, Rate: 100, Weight: 1, Cap: 10},
		{Over: 0, Rate: 10, Weight: 1, Cap: 5},
	}
	got = distributeTenantBudget(1000, ms)
	if !approx(got[0], 10) {
		t.Errorf("noisy tenant got %v, want its full 10 cap", got[0])
	}
	if got[1] != 0 {
		t.Errorf("compliant tenant got %v despite an over-quota peer, want 0", got[1])
	}
}
