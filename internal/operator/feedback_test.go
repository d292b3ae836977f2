package operator

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/window"
)

func tapBuilder(t *testing.T, cfg core.ModelBuilderConfig) *core.ModelBuilder {
	t.Helper()
	mb, err := core.NewModelBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mb
}

func TestFeedbackTapValidation(t *testing.T) {
	if _, err := NewFeedbackTap(nil, 1); err == nil {
		t.Error("nil builder must fail")
	}
}

// TestFeedbackTapSampling: every=k forwards exactly every k-th close.
func TestFeedbackTapSampling(t *testing.T) {
	mb := tapBuilder(t, core.ModelBuilderConfig{Types: 1, N: 4})
	tap, err := NewFeedbackTap(mb, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := &window.Window{ExpectedSize: 4}
	w.Add(event.Event{Type: 0}, 0)
	w.Arrivals = 4
	for i := 0; i < 10; i++ {
		tap.OnWindowClose(w, nil)
	}
	if tap.WindowsClosed() != 10 {
		t.Errorf("closed = %d, want 10", tap.WindowsClosed())
	}
	if tap.WindowsSampled() != 3 {
		t.Errorf("sampled = %d, want 3 (every 3rd of 10)", tap.WindowsSampled())
	}
	if win, _ := tap.BuilderStats(); win != 3 {
		t.Errorf("builder saw %d windows, want 3", win)
	}
}

// TestFeedbackTapPoolingContract: the tap (and the builder behind it,
// including its deferred buffering mode) must copy what it keeps — after
// the window is released and its buffer cleared, the accumulated
// statistics still describe the original entries.
func TestFeedbackTapPoolingContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.ModelBuilderConfig
	}{
		{"fixedN", core.ModelBuilderConfig{Types: 2, N: 4}},
		{"deferred", core.ModelBuilderConfig{Types: 2}}, // buffers windows until Build
	} {
		t.Run(tc.name, func(t *testing.T) {
			mb := tapBuilder(t, tc.cfg)
			tap, err := NewFeedbackTap(mb, 1)
			if err != nil {
				t.Fatal(err)
			}
			mgr, err := window.NewManager(window.Spec{Mode: window.ModeCount, Count: 4, Slide: 4})
			if err != nil {
				t.Fatal(err)
			}
			// Windows of type-1 events; the "match" is first + last entry.
			for i := 0; i < 8; i++ {
				member, closed := mgr.Route(event.Event{Seq: uint64(i), Type: 1})
				for _, mbr := range member {
					mbr.W.Add(event.Event{Seq: uint64(i), Type: 1}, mbr.Pos)
				}
				for _, w := range closed {
					tap.OnWindowClose(w, []window.Entry{w.Entries().At(0), w.Entries().At(3)})
					mgr.Release(w) // clears the buffer; the tap must not alias it
				}
			}
			model, err := mb.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !model.Trained() {
				t.Fatal("model not trained")
			}
			// All mass belongs to type 1; a retained alias would have
			// zeroed the events (type 0) and clamped positions.
			if u := model.UT().Utility(1, 0, 4); u != core.MaxUtility {
				t.Errorf("type-1 utility at pos 0 = %d, want %d", u, core.MaxUtility)
			}
			for b := 0; b < model.UT().Bins(); b++ {
				if model.UT().At(0, b) != 0 {
					t.Errorf("type-0 bin %d has utility %d — retained aliasing?", b, model.UT().At(0, b))
				}
				if model.Share(0, b) != 0 {
					t.Errorf("type-0 bin %d has share %v — retained aliasing?", b, model.Share(0, b))
				}
			}
			if model.Share(1, 0) != 1 {
				t.Errorf("type-1 share at bin 0 = %v, want 1", model.Share(1, 0))
			}
		})
	}
}

// TestFeedbackTapOperatorSteadyStateAllocs: an operator whose close hook
// is a feedback tap over a fixed-N builder stays allocation-free once the
// window pool and scratch are warm — the tap itself allocates nothing on
// the close path.
func TestFeedbackTapOperatorSteadyStateAllocs(t *testing.T) {
	mb := tapBuilder(t, core.ModelBuilderConfig{Types: 2, N: 8})
	tap, err := NewFeedbackTap(mb, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pattern.Compile(pattern.Pattern{
		Name:  "seq(A;B)",
		Steps: []pattern.Step{{Types: []event.Type{0}}, {Types: []event.Type{1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	op, err := New(Config{
		Window:        window.Spec{Mode: window.ModeCount, Count: 8, Slide: 4},
		Patterns:      []*pattern.Compiled{p},
		OnWindowClose: tap.OnWindowClose,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	step := func() {
		op.Process(event.Event{Seq: seq, TS: event.Time(seq), Type: event.Type(seq % 2)})
		seq++
	}
	for i := 0; i < 64; i++ {
		step() // warm the pool and the matcher scratch
	}
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Errorf("tapped operator allocates %.3f/event in steady state, want 0", allocs)
	}
}
