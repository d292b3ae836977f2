package runtime

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/parallel"
	"repro/internal/window"
)

// seededDrop is a random-looking but stateless decider: each decision
// is a hash of the seed and the membership coordinates, so it drops
// about a quarter of the memberships and every deployment — serial,
// any shard, the standalone oracle — drops exactly the same ones.
type seededDrop uint64

func (s seededDrop) DropCounted(_ window.ID, t event.Type, pos, ws int) (bool, bool) {
	h := uint64(s) ^ uint64(t)*0x9e3779b97f4a7c15 ^ uint64(pos)*0xc2b2ae3d27d4eb4f ^ uint64(ws)*0x165667b19e3779f9
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h%4 == 0, true
}

func (seededDrop) TallyDecisions(uint64, uint64) {}

func (seededDrop) Active() bool { return true }

// oracleEntries replays the workload through a standalone Manager whose
// windows buffer their own kept events through Window.Add, the way the
// isolated benchmark passes drive them, and returns every closed
// window's kept entries by window ID.
func oracleEntries(t *testing.T, w propWorkload, dec operator.Decider) map[window.ID][]window.Entry {
	t.Helper()
	mgr, err := window.NewManager(w.spec)
	if err != nil {
		t.Fatal(err)
	}
	got := map[window.ID][]window.Entry{}
	collect := func(closed []*window.Window) {
		for _, cw := range closed {
			got[cw.ID] = cw.CopyKept(nil)
			mgr.Release(cw)
		}
	}
	for _, e := range w.events {
		member, closed := mgr.Route(e)
		for _, mb := range member {
			if dec != nil {
				if dropped, _ := dec.DropCounted(mb.W.ID, e.Type, mb.Pos, mb.W.ExpectedSize); dropped {
					continue
				}
			}
			mb.W.Add(e, mb.Pos)
		}
		collect(closed)
	}
	collect(mgr.Flush())
	return got
}

// TestRingEntriesMatchOracle is the property behind windows that hold
// positions instead of copies: over the three equivalence geometries
// (count/slide, time/slide, predicate-open with a Close predicate),
// with and without a seeded random-drop decider, every closed window's
// Entries() — read from its owner's ring through the kept-position
// index — equals what a window buffering its own events holds, on the
// serial operator and at Shards 2 and 4.
func TestRingEntriesMatchOracle(t *testing.T) {
	harness.VerifyNoLeaks(t)
	geometries := map[string]bool{}
	for seed := uint64(1); seed <= 9; seed++ {
		w := makeWorkload(seed, 0)
		geometry := w.spec.Mode.String()
		if w.spec.Close != nil {
			geometry += "/close"
		}
		geometries[geometry] = true
		for _, dec := range []operator.Decider{nil, seededDrop(seed)} {
			want := oracleEntries(t, w, dec)
			for _, shards := range []int{1, 2, 4} {
				var mu sync.Mutex
				got := map[window.ID][]window.Entry{}
				cfg := w.config(t, shedWorkload)
				cfg.Shards = shards
				cfg.Operator.Shedder = dec
				cfg.Operator.OnWindowClose = func(cw *window.Window, _ []window.Entry) {
					ents := cw.CopyKept(nil)
					mu.Lock()
					got[cw.ID] = ents
					mu.Unlock()
				}
				runCollect(t, cfg, w.events)
				if len(got) != len(want) {
					t.Fatalf("%s drop=%v shards=%d: %d windows closed, oracle %d",
						w.label, dec != nil, shards, len(got), len(want))
				}
				for id, ents := range want {
					if !reflect.DeepEqual(got[id], ents) {
						t.Fatalf("%s drop=%v shards=%d: window %d entries differ from the oracle:\n got %v\nwant %v",
							w.label, dec != nil, shards, id, got[id], ents)
					}
				}
			}
		}
	}
	if len(geometries) != 3 {
		t.Errorf("seeds drew geometries %v, want all three", geometries)
	}
}

// ringBounded reports whether an owner's ring holds at most the arrivals
// since its oldest open window opened, plus the compaction slack.
func ringBounded(r *window.Ring, oldest *window.Window) (held, bound int, ok bool) {
	arrivals := 0
	if oldest != nil {
		arrivals = int(r.End() - oldest.Start)
	}
	bound = arrivals + max(arrivals, window.RingSlack)
	return r.Len(), bound, r.Len() <= bound
}

// TestShardRingBounded drives two shards' op batches on the test's own
// goroutines over a long seeded stream and, after every batch, checks
// each shard's ring against its oldest open window: a trim bug would
// otherwise show up only as retained heap in the benchmark.
func TestShardRingBounded(t *testing.T) {
	harness.VerifyNoLeaks(t)
	for _, seed := range []uint64{1, 6, 4} { // at 20000 events: time/slide, count/slide, predicate/close
		w := makeWorkload(seed, 20000)
		cfg := w.config(t, shedWorkload)
		cfg.Shards = 2
		cfg.Operator.Shedder = seededDrop(seed)
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		merger := parallel.NewEpochMerger(4*len(p.shards), func([]operator.ComplexEvent) {})
		violations := make([]string, len(p.shards))
		var wg sync.WaitGroup
		for i, s := range p.shards {
			s.merger = merger
			wg.Add(1)
			go func() {
				defer wg.Done()
				win := s.own.Windows()
				for b := range s.in {
					s.processBatch(b)
					if held, bound, ok := ringBounded(win.Ring(), win.Oldest()); !ok && violations[i] == "" {
						violations[i] = fmt.Sprintf("%s: ring holds %d events, bound %d", w.label, held, bound)
					}
				}
			}()
		}
		p.SubmitBatch(w.events)
		p.CloseInput()
		wg.Wait()
		merger.Close()
		for i, v := range violations {
			if v != "" {
				t.Errorf("shard %d: %s", i, v)
			}
		}
		for i, s := range p.shards {
			if live := s.own.Windows().Ring().Live(); live != 0 {
				t.Errorf("%s: shard %d ring keeps %d live events after every window closed",
					w.label, i, live)
			}
		}
	}
}

// toggleDecider is switched on and off between chunks of a stream by a
// test that drives every owner on its own goroutine. While on it drops
// like the shedding workloads' dropFunc; it counts the decisions it is
// asked for while off, which an owner must never ask for.
type toggleDecider struct {
	on       bool
	offCalls int
}

func (d *toggleDecider) Active() bool { return d.on }

func (d *toggleDecider) DropCounted(_ window.ID, t event.Type, pos, _ int) (bool, bool) {
	if !d.on {
		d.offCalls++
		return false, false
	}
	return (int(t)+pos)%3 == 0, true
}

func (*toggleDecider) TallyDecisions(uint64, uint64) {}

// policyArrivals replays the workload through a bare window.Policy and
// returns the Arrivals it reports for every close, by window ID.
func policyArrivals(t *testing.T, w propWorkload) map[window.ID]int {
	t.Helper()
	p, err := window.NewPolicy(w.spec)
	if err != nil {
		t.Fatal(err)
	}
	got := map[window.ID]int{}
	record := func(recs []window.Rec) {
		for _, r := range recs {
			got[r.ID] = r.Arrivals
		}
	}
	for _, e := range w.events {
		st := p.Step(e)
		record(st.Before)
		record(st.After)
	}
	record(p.Flush())
	return got
}

// inlineOwners drives cfg's owners on the calling goroutine: the serial
// operator (shards == 1) or a sharded pipeline whose shards drain their
// batches after every routed chunk. It returns the chunk router, the
// owners' summed counters, and the end-of-stream flush.
func inlineOwners(t *testing.T, cfg Config, shards int) (route func([]event.Event), stats func() operator.Stats, finish func()) {
	t.Helper()
	if shards == 1 {
		op, err := operator.New(cfg.Operator)
		if err != nil {
			t.Fatal(err)
		}
		var last event.Time
		route = func(evs []event.Event) {
			for _, e := range evs {
				op.Process(e)
				last = e.TS
			}
		}
		return route, op.Stats, func() { op.Flush(last) }
	}
	cfg.Shards = shards
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merger := parallel.NewEpochMerger(4*len(p.shards), func([]operator.ComplexEvent) {})
	for _, s := range p.shards {
		s.merger = merger
	}
	drain := func() {
		for _, s := range p.shards {
			for drained := false; !drained; {
				select {
				case b, ok := <-s.in:
					if drained = !ok; ok {
						s.processBatch(b)
					}
				default:
					drained = true
				}
			}
		}
	}
	route = func(evs []event.Event) {
		p.SubmitBatch(evs)
		drain()
	}
	stats = func() (sum operator.Stats) {
		for _, s := range p.shards {
			st := s.own.Stats()
			sum.Memberships += st.Memberships
			sum.MembershipsKept += st.MembershipsKept
			sum.MembershipsShed += st.MembershipsShed
		}
		return sum
	}
	finish = func() {
		p.CloseInput()
		drain()
		merger.Close()
	}
	return route, stats, finish
}

// TestInactiveDeciderFastPath pins the unshed path: an owner asks an
// inactive decider for no decision and counts every membership as kept,
// and a window's positions stay the Policy's whichever path routed
// them. Over the three equivalence geometries, serial and at Shards 2,
// with the decider switched on and off every chunk of the stream,
// DropCounted is never called while it is off, those chunks shed
// nothing, and every closed window's Size equals the Rec.Arrivals the
// Policy reports for that close.
func TestInactiveDeciderFastPath(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const chunk = 250
	geometries := map[string]bool{}
	for _, seed := range []uint64{1, 6, 4} { // time/slide, count/slide, predicate/close
		w := makeWorkload(seed, 4000)
		geometry := w.spec.Mode.String()
		if w.spec.Close != nil {
			geometry += "/close"
		}
		geometries[geometry] = true
		want := policyArrivals(t, w)
		for _, shards := range []int{1, 2} {
			dec := &toggleDecider{}
			sizes := map[window.ID]int{}
			cfg := w.config(t, shedWorkload)
			cfg.Operator.Shedder = dec
			cfg.Operator.OnWindowClose = func(cw *window.Window, _ []window.Entry) { sizes[cw.ID] = cw.Size() }
			route, stats, finish := inlineOwners(t, cfg, shards)
			var offMembers, onShed uint64
			for i := 0; i < len(w.events); i += chunk {
				dec.on = (i/chunk)%2 == 1
				before := stats()
				route(w.events[i:min(i+chunk, len(w.events))])
				after := stats()
				if !dec.on {
					members := after.Memberships - before.Memberships
					if kept := after.MembershipsKept - before.MembershipsKept; kept != members {
						t.Fatalf("%s shards=%d: inactive chunk at %d kept %d of %d memberships", w.label, shards, i, kept, members)
					}
					offMembers += members
				} else {
					onShed += after.MembershipsShed - before.MembershipsShed
				}
			}
			finish()
			if dec.offCalls != 0 {
				t.Errorf("%s shards=%d: %d decisions asked of an inactive decider", w.label, shards, dec.offCalls)
			}
			if offMembers == 0 || onShed == 0 {
				t.Fatalf("%s shards=%d: %d memberships while off, %d shed while on; want both > 0", w.label, shards, offMembers, onShed)
			}
			if !reflect.DeepEqual(sizes, want) {
				t.Errorf("%s shards=%d: closed sizes differ from the Policy's arrivals:\n got %v\nwant %v", w.label, shards, sizes, want)
			}
		}
	}
	if len(geometries) != 3 {
		t.Errorf("seeds drew geometries %v, want all three", geometries)
	}
}
