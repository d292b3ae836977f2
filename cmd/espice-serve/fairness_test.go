// Fairness soak: two tenants behind one engine-mode deployment, the
// noisy one offering a multiple of its quota while the compliant one
// stays inside its entitlement. The contract under test is the
// tentpole's isolation story end to end — wire handshake, transport
// throttle, tenant-aware budget split — proved by three observables:
// the compliant tenant's complex-event stream is byte-identical to a
// run where it has the server to itself, its utility shedder never
// engages, and the noisy tenant's overage is paid for by the noisy
// tenant (throttled batches at the transport, shed memberships in the
// engine).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/transport"
)

// fairQueriesSrc gives each tenant one anchored sequence query over its
// own side of the pitch, so the two workloads are symmetric but
// disjoint.
const fairQueriesSrc = `
define MarkA
from seq(STR_A where kind = possession; any 2 distinct of DEF_B00, DEF_B01, DEF_B02, DEF_B03 where kind = defend)
within 15s
open STR_A
anchored

define MarkB
from seq(STR_B where kind = possession; any 2 distinct of DEF_A00, DEF_A01, DEF_A02, DEF_A03 where kind = defend)
within 15s
open STR_B
anchored
`

// fairScale is the soak's load shape; -short (the -race CI step)
// shrinks the event budgets but keeps the rates, so the same quota
// arithmetic holds at both sizes. The quota is provisioned *below* the
// deployment's sustainable capacity (with the configured per-membership
// delay): the isolation contract only holds for entitlements the box
// can actually serve, so the only overload in the soak is the flood's
// burst — which is the noisy tenant's overage and must be shed from it.
type fairScale struct {
	quotaRate float64 // per-tenant entitled rate (transport + engine), ev/s
	burst     float64 // token-bucket depth: how much overage reaches the engine
	tidyRate  float64 // compliant tenant's offered rate, ev/s
	tidyDiv   int     // compliant tenant sends len(dataset)/tidyDiv events
	warmEvs   int     // noisy tenant's compliant warm-up, paced at warmRate
	warmRate  float64 // warm-up rate, below quota (trains the shedder model)
	noisyEvs  int     // noisy tenant's total event budget; the remainder
	// after warmEvs is offered unpaced (the flood)
}

func fairScaleFor(short bool) fairScale {
	s := fairScale{quotaRate: 1200, burst: 8000, tidyRate: 800, tidyDiv: 1,
		warmEvs: 3000, warmRate: 1000, noisyEvs: 16000}
	if short {
		s.tidyDiv = 2
		s.warmEvs = 2000
		s.noisyEvs = 12000
	}
	return s
}

// fairOpts assembles the deployment both runs share: engine mode with
// espice shedding, an artificial per-membership cost so the noisy flood
// actually overloads the box, and the two-tenant spec file.
func fairOpts(t *testing.T, sc fairScale) serveOpts {
	t.Helper()
	dir := t.TempDir()
	qfile := filepath.Join(dir, "queries.tesla")
	if err := os.WriteFile(qfile, []byte(fairQueriesSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	tfile := filepath.Join(dir, "tenants.json")
	spec := fmt.Sprintf(`[
	  {"name": "noisy", "token": "tok-noisy", "rate": %.0f, "burst": %.0f, "weight": 1, "queries": ["MarkA"]},
	  {"name": "tidy",  "token": "tok-tidy",  "rate": %.0f, "burst": %.0f, "weight": 1, "queries": ["MarkB"]}
	]`, sc.quotaRate, sc.burst, sc.quotaRate, sc.burst)
	if err := os.WriteFile(tfile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return serveOpts{
		seconds: 120,
		seed:    1,
		shedder: "espice",
		bound:   400 * time.Millisecond,
		f:       0.7,
		delay:   50 * time.Microsecond,
		queries: qfile,
		tenants: tfile,
		credit:  4096,
		latEvry: 1,
	}
}

// fairResult is what one run yields once fully drained.
type fairResult struct {
	streams map[string][]string         // query name -> ordered complex-event keys
	tenants map[string]serveTenantStats // stats-frame tenant section by name
}

// runFairness brings up a fresh deployment, drives the compliant
// tenant (and, when withNoisy is set, the noisy flood concurrently),
// drains everything and returns the captured output streams plus the
// final per-tenant stats.
func runFairness(t *testing.T, sc fairScale, withNoisy bool) fairResult {
	t.Helper()
	app, err := buildServe(fairOpts(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	// Hand-wired run loop: same drain order as serveApp.run, but the
	// per-query collectors record each complex event's canonical key so
	// the test can compare whole output streams across runs.
	res := fairResult{streams: map[string][]string{}}
	var smu sync.Mutex
	runDone := make(chan error, 1)
	go func() { runDone <- app.eng.Run(context.Background()) }()
	var collect sync.WaitGroup
	for _, h := range app.handles {
		collect.Add(1)
		go func(h *engine.Query) {
			defer collect.Done()
			for ce := range h.Out() {
				smu.Lock()
				res.streams[h.Name()] = append(res.streams[h.Name()], ce.Key())
				smu.Unlock()
			}
		}(h)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- app.srv.Serve(ln) }()

	_, events, _ := regen(t, app.opts)
	var drive sync.WaitGroup
	var dmu sync.Mutex
	var driveErr error
	fail := func(err error) {
		dmu.Lock()
		defer dmu.Unlock()
		if driveErr == nil {
			driveErr = err
		}
	}
	drive.Add(1)
	go func() {
		defer drive.Done()
		if err := driveFair(addr, "tok-tidy", events, len(events)/sc.tidyDiv, 0, 0, sc.tidyRate, 1<<41); err != nil {
			fail(fmt.Errorf("tidy: %w", err))
		}
	}()
	if withNoisy {
		drive.Add(1)
		go func() {
			defer drive.Done()
			// A compliant warm-up first (fills windows, trains the MarkA
			// shedder model), then the rest is offered unpaced: the
			// transport throttle, not the producer, decides how fast the
			// flood lands.
			if err := driveFair(addr, "tok-noisy", events, sc.noisyEvs, sc.warmEvs, sc.warmRate, 0, 1<<40); err != nil {
				fail(fmt.Errorf("noisy: %w", err))
			}
		}()
	}
	drive.Wait()
	if driveErr != nil {
		t.Fatal(driveErr)
	}

	if err := app.srv.Shutdown(0); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	<-serveDone
	app.eng.CloseInput()
	if err := <-runDone; err != nil {
		t.Fatalf("engine run: %v", err)
	}
	collect.Wait()

	res.tenants = map[string]serveTenantStats{}
	for _, ts := range app.stats().Tenants {
		res.tenants[ts.Name] = ts
	}
	return res
}

// driveFair replays the seeded dataset (tiled to total events, sequence
// numbers rewritten from seqBase) over one tenant-authenticated
// connection: the first warm events paced at warmRate, the rest at the
// target rate (0 = as fast as credit allows).
func driveFair(addr, token string, base []event.Event, total, warm int, warmRate, rate float64, seqBase uint64) error {
	c, err := transport.Dial(transport.ClientConfig{
		Addr:        addr,
		BatchEvents: 128,
		Token:       token,
	})
	if err != nil {
		return err
	}
	buf := make([]event.Event, 0, 128)
	sent := 0
	seq := seqBase
	start := time.Now()
	interval := func() time.Duration {
		r := rate
		if sent < warm {
			r = warmRate
		}
		if r <= 0 {
			return 0
		}
		return time.Duration(float64(time.Second) / r)
	}
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := c.SubmitBatch(buf); err != nil {
			return err
		}
		buf = buf[:0]
		return nil
	}
	for sent < total {
		for _, ev := range base {
			if sent == total {
				break
			}
			ev.Seq = seq
			seq++
			buf = append(buf, ev)
			sent++
			if len(buf) == cap(buf) {
				if iv := interval(); iv > 0 {
					if d := time.Until(start.Add(time.Duration(sent) * iv)); d > 0 {
						time.Sleep(d)
					}
				}
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	_, err = c.Close()
	return err
}

// fairLatency turns the soak's p99-vs-solo comparison from a logged
// figure into a failure. It is a wall-clock tolerance, so it is asserted
// where the box is otherwise idle (`make fairtest` passes the flag) and
// not inside `go test ./...`, where every package shares the cores.
var fairLatency = flag.Bool("fair.latency", false, "fail TestTenantFairnessSoak when the compliant tenant's contended p99 exceeds its allowance")

// TestTenantFairnessSoak runs the compliant tenant alone, then again
// next to a noisy tenant offering a large multiple of its quota, and
// asserts the isolation contract.
func TestTenantFairnessSoak(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sc := fairScaleFor(testing.Short())

	alone := runFairness(t, sc, false)
	together := runFairness(t, sc, true)

	// The compliant tenant's output is byte-identical to its solo run:
	// same complex events, same order.
	baseB, contB := alone.streams["MarkB"], together.streams["MarkB"]
	if len(baseB) == 0 {
		t.Fatal("solo run detected no MarkB complex events; soak is vacuous")
	}
	if len(baseB) != len(contB) {
		t.Fatalf("MarkB stream length changed under contention: solo %d, contended %d", len(baseB), len(contB))
	}
	for i := range baseB {
		if baseB[i] != contB[i] {
			t.Fatalf("MarkB stream diverged at %d: solo %q, contended %q", i, baseB[i], contB[i])
		}
	}

	tidy, noisy := together.tenants["tidy"], together.tenants["noisy"]
	// The compliant tenant is never shed and never throttled.
	if tidy.Shed != 0 {
		t.Errorf("compliant tenant shed %d memberships under contention", tidy.Shed)
	}
	if tidy.ThrottledBatches != 0 {
		t.Errorf("compliant tenant hit the throttle %d times within its quota", tidy.ThrottledBatches)
	}
	// The noisy tenant pays for its own overage: the transport throttle
	// clamped its flood, and the budget directed the shedding at it.
	if noisy.ThrottledBatches == 0 {
		t.Error("noisy tenant offered far above quota but was never throttled")
	}
	if noisy.Shed == 0 {
		t.Error("noisy tenant's overage was never shed by the engine budget")
	}
	if noisy.Events <= tidy.Events {
		t.Errorf("noisy tenant landed %d events vs tidy's %d; flood did not exceed the compliant load", noisy.Events, tidy.Events)
	}

	// Latency isolation: the compliant tenant's p99 may regress by at
	// most 10% (plus a small absolute floor for scheduler noise on
	// loaded CI machines) — enforced with -fair.latency, logged always.
	baseT, ok := alone.tenants["tidy"]
	if !ok || baseT.Latency == nil || tidy.Latency == nil {
		t.Fatalf("missing tidy latency summaries (solo %+v, contended %+v)", alone.tenants, together.tenants)
	}
	baseP99, contP99 := baseT.Latency.P99US, tidy.Latency.P99US
	allowed := basP99Allowance(baseP99)
	if *fairLatency && contP99 > allowed {
		t.Errorf("compliant tenant p99 %.0fus under contention, solo %.0fus (allowed %.0fus)",
			contP99, baseP99, allowed)
	}
	t.Logf("tidy p99 solo %.0fus contended %.0fus (allowed %.0fus, enforced: %v); noisy throttled %d shed %d",
		baseP99, contP99, allowed, *fairLatency, noisy.ThrottledBatches, noisy.Shed)
}

// basP99Allowance is the contended-p99 ceiling: 10%% over the solo
// baseline, with a 5ms absolute floor so sub-millisecond baselines
// don't turn scheduler jitter into failures. The race detector
// multiplies every memory access and serializes the scheduler, so the
// flood's burst window — CPU work the isolation machinery cannot drop,
// only attribute — stretches over most of the shortened run; the race
// build keeps every behavioral assertion strict but checks latency
// against a 3x / +60ms envelope instead.
func basP99Allowance(base float64) float64 {
	mul, floor := 1.10, base+5000
	if raceEnabled {
		mul, floor = 3.0, base+60000
	}
	allowed := base * mul
	if floor > allowed {
		allowed = floor
	}
	return allowed
}

// TestTenantAuthRejected pins the admission edge: an unknown token is
// refused at the handshake, and the rejection is visible in the stats
// frame.
func TestTenantAuthRejected(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sc := fairScaleFor(true)
	app, err := buildServe(fairOpts(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- app.eng.Run(context.Background()) }()
	var collect sync.WaitGroup
	for _, h := range app.handles {
		collect.Add(1)
		go func(h *engine.Query) {
			defer collect.Done()
			for range h.Out() {
			}
		}(h)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- app.srv.Serve(ln) }()
	defer func() {
		if err := app.srv.Shutdown(0); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-serveDone
		app.eng.CloseInput()
		<-runDone
		collect.Wait()
	}()

	if _, err := transport.Dial(transport.ClientConfig{
		Addr:  ln.Addr().String(),
		Token: "tok-wrong",
	}); err == nil {
		t.Fatal("unknown tenant token was accepted")
	}
	st := app.stats()
	if st.Server.AuthFailures == 0 {
		t.Errorf("auth failure not counted: %+v", st.Server)
	}
}
