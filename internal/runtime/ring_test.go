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

func (s seededDrop) Drop(t event.Type, pos, ws int) bool {
	h := uint64(s) ^ uint64(t)*0x9e3779b97f4a7c15 ^ uint64(pos)*0xc2b2ae3d27d4eb4f ^ uint64(ws)*0x165667b19e3779f9
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h%4 == 0
}

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
			if dec == nil || !dec.Drop(e.Type, mb.Pos, mb.W.ExpectedSize) {
				mb.W.Add(e, mb.Pos)
			}
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
				cfg := w.config()
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
		arrivals = oldest.Arrivals
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
		cfg := w.config()
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
				var decisions, drops uint64
				for b := range s.in {
					s.processBatch(b, &decisions, &drops)
					var oldest *window.Window
					if len(s.open) > 0 {
						oldest = s.open[0]
					}
					if held, bound, ok := ringBounded(&s.ring, oldest); !ok && violations[i] == "" {
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
			if s.ring.Live() != 0 {
				t.Errorf("%s: shard %d ring keeps %d live events after every window closed",
					w.label, i, s.ring.Live())
			}
		}
	}
}
