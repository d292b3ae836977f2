package runtime

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/window"
)

// decisionLog forwards every decision and remembers the last one and
// whether any asked for shedding.
type decisionLog struct {
	next sim.Controller
	last core.Decision
	shed atomic.Bool // saw Overloaded with X > 0
}

func (d *decisionLog) OnDecision(dec core.Decision) {
	d.last = dec
	if dec.Overloaded && dec.X > 0 {
		d.shed.Store(true)
	}
	if d.next != nil {
		d.next.OnDecision(dec)
	}
}

// TestBacklogEvents pins the one backlog definition: M staged memberships
// read as M/kbar events — for kbar below 1 as much as above it — in
// backlogEvents, in Stats().QueueLen and in what the control loop hands
// the detector; the serial queue reads as it is.
func TestBacklogEvents(t *testing.T) {
	det, err := core.NewOverloadDetector(core.DetectorConfig{LatencyBound: event.Second, F: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	const (
		processed = 10000 // events routed so far
		staged    = 120   // memberships waiting in the shard queues
		laneTh    = 1000  // per-lane capacity estimate, events/s
	)
	for _, tc := range []struct {
		shards int
		kbar   float64
		want   int
	}{
		{shards: 2, kbar: 0.04, want: 3000},
		{shards: 2, kbar: 0.5, want: 240},
		{shards: 2, kbar: 1, want: 120},
		{shards: 2, kbar: 4, want: 30},
		{shards: 1, kbar: 0.04, want: staged}, // serial: the queue holds events
	} {
		log := &decisionLog{}
		p, err := New(Config{Operator: opConfig(nil), Shards: tc.shards, Detector: det, Controller: log})
		if err != nil {
			t.Fatal(err)
		}
		p.processed.Store(processed)
		p.lanes[0].memberships.Store(uint64(tc.kbar * processed))
		for _, l := range p.lanes {
			l.thEst.Store(math.Float64bits(laneTh))
		}
		p.qlen.Store(staged)
		for _, s := range p.shards {
			s.queued.Store(staged / int64(tc.shards))
		}

		if got := p.backlogEvents(p.kbar()); got != tc.want {
			t.Errorf("shards=%d kbar=%v: backlogEvents = %d, want %d", tc.shards, tc.kbar, got, tc.want)
		}
		if got := p.Stats().QueueLen; got != tc.want {
			t.Errorf("shards=%d kbar=%v: Stats().QueueLen = %d, want %d", tc.shards, tc.kbar, got, tc.want)
		}
		// One control tick a second after start, 500 events submitted: the
		// decision must be the detector's verdict on tc.want events.
		start := time.Now()
		c := newControl(p, start)
		p.submitted.Store(500)
		c.tick(start.Add(time.Second))
		want := det.Evaluate(tc.want, 500, float64(tc.shards)*laneTh, 10)
		if log.last != want {
			t.Errorf("shards=%d kbar=%v: control loop decided %+v, want %+v", tc.shards, tc.kbar, log.last, want)
		}
	}
}

// shedsUnderOverload drives one pipeline shape over both window kinds
// with ProcessingDelay pinning the capacity far below the offered load.
// In every cell the control loop must reach an Overloaded decision with
// X > 0 and the shedder must drop memberships. The sparse windows are
// the hard case when sharded: a predicate opens a 10-event window once
// per 1000 events (kbar 0.01), so the few hundred memberships staged in
// the shard queues stand for the whole 40000-event backlog.
func shedsUnderOverload(t *testing.T, shards int) {
	harness.VerifyNoLeaks(t)
	sparse := window.Spec{Mode: window.ModeCount, Count: 10,
		Open: func(e event.Event) bool { return e.Seq%1000 == 0 }}
	for _, tc := range []struct {
		name   string
		window window.Spec
		events int
	}{
		{"overlapping", window.Spec{Mode: window.ModeCount, Count: 10, Slide: 5}, 2000},
		{"sparse", sparse, 40000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := core.NewShedder(trainedTestModel(t))
			if err != nil {
				t.Fatal(err)
			}
			det, err := core.NewOverloadDetector(core.DetectorConfig{
				LatencyBound: 20 * event.Millisecond,
				F:            0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			log := &decisionLog{next: shedController{s}}
			cfg := Config{
				Operator:        opConfig(s),
				Shards:          shards,
				Detector:        det,
				Controller:      log,
				PollInterval:    2 * time.Millisecond,
				ProcessingDelay: 200 * time.Microsecond,
			}
			cfg.Operator.Window = tc.window
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- p.Run(context.Background()) }()
			go func() {
				for range p.Out() {
				}
			}()
			// Shards publish their counters once per staged batch, so feed
			// them batches a few memberships long, as a paced producer would.
			events := deterministicStream(tc.events)
			for len(events) > 0 {
				p.SubmitBatch(events[:500])
				events = events[500:]
			}
			p.CloseInput()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			st := p.Stats()
			if !log.shed.Load() {
				t.Error("no Overloaded decision with X > 0")
			}
			if st.Operator.MembershipsShed == 0 {
				t.Error("overloaded pipeline must shed")
			}
			if st.Throughput <= 0 || st.InputRate <= 0 {
				t.Errorf("estimates not populated: %+v", st)
			}
			for i, ss := range st.Shards {
				if ss.Memberships == 0 {
					t.Errorf("shard %d saw no memberships", i)
				}
			}
		})
	}
}

// TestPipelineShedsUnderOverload: the serial pipeline, one lane.
func TestPipelineShedsUnderOverload(t *testing.T) { shedsUnderOverload(t, 1) }

// TestShardedShedsUnderOverload: two shards sharing the one shedder the
// control loop commands.
func TestShardedShedsUnderOverload(t *testing.T) { shedsUnderOverload(t, 2) }
