package core

import (
	"math"
	"testing"

	"repro/internal/event"
	"repro/internal/window"
)

// observeStream feeds windows[i] (with a match on the first and last kept
// entry when matchEvery divides i) into the builder.
func observeStream(t *testing.T, b *ModelBuilder, n, windows, matchEvery int) {
	t.Helper()
	const A, B = event.Type(0), event.Type(1)
	for i := 0; i < windows; i++ {
		types := make([]event.Type, n)
		for p := range types {
			if p%2 == 0 {
				types[p] = A
			} else {
				types[p] = B
			}
		}
		w := mkWindow(t, types)
		var matched []window.Entry
		if matchEvery > 0 && i%matchEvery == 0 {
			matched = []window.Entry{w.Entries().At(0), w.Entries().At(n - 1)}
		}
		b.ObserveWindow(w, matched)
	}
}

// modelsEqual compares two models cell by cell (utilities and shares).
func modelsEqual(t *testing.T, a, b *Model) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("N: %d vs %d", a.N(), b.N())
	}
	if a.Windows() != b.Windows() || a.Matches() != b.Matches() {
		t.Fatalf("coverage: %d/%d vs %d/%d", a.Windows(), a.Matches(), b.Windows(), b.Matches())
	}
	au, bu := a.UT(), b.UT()
	if au.Types() != bu.Types() || au.Bins() != bu.Bins() {
		t.Fatalf("table dims differ")
	}
	for typ := 0; typ < au.Types(); typ++ {
		for bin := 0; bin < au.Bins(); bin++ {
			if au.At(event.Type(typ), bin) != bu.At(event.Type(typ), bin) {
				t.Errorf("UT[%d][%d]: %d vs %d", typ, bin,
					au.At(event.Type(typ), bin), bu.At(event.Type(typ), bin))
			}
			if math.Abs(a.Share(event.Type(typ), bin)-b.Share(event.Type(typ), bin)) > 1e-12 {
				t.Errorf("share[%d][%d]: %v vs %v", typ, bin,
					a.Share(event.Type(typ), bin), b.Share(event.Type(typ), bin))
			}
		}
	}
}

// TestModelBuilderMergeEquivalence: splitting a window stream across two
// builders and merging them must produce the same model as one builder
// fed the full stream — the invariant per-shard accumulation relies on.
func TestModelBuilderMergeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ModelBuilderConfig
	}{
		{"fixedN", ModelBuilderConfig{Types: 2, N: 6}},
		{"binned", ModelBuilderConfig{Types: 2, N: 6, BinSize: 2}},
		{"deferred", ModelBuilderConfig{Types: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single, err := NewModelBuilder(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			observeStream(t, single, 6, 40, 2)

			merged, err := NewModelBuilder(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]*ModelBuilder, 2)
			for i := range parts {
				parts[i], err = NewModelBuilder(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				observeStream(t, parts[i], 6, 20, 2)
			}
			for _, p := range parts {
				if err := merged.Merge(p); err != nil {
					t.Fatal(err)
				}
			}
			if merged.WindowsSeen() != single.WindowsSeen() ||
				merged.MatchesSeen() != single.MatchesSeen() {
				t.Fatalf("merged coverage %d/%d, want %d/%d",
					merged.WindowsSeen(), merged.MatchesSeen(),
					single.WindowsSeen(), single.MatchesSeen())
			}
			want, err := single.Build()
			if err != nil {
				t.Fatal(err)
			}
			got, err := merged.Build()
			if err != nil {
				t.Fatal(err)
			}
			modelsEqual(t, want, got)
		})
	}
}

func TestModelBuilderMergeConfigMismatch(t *testing.T) {
	a, _ := NewModelBuilder(ModelBuilderConfig{Types: 2, N: 6})
	b, _ := NewModelBuilder(ModelBuilderConfig{Types: 2, N: 8})
	if err := a.Merge(b); err == nil {
		t.Error("merging differently-configured builders must fail")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("Merge(nil) must be a no-op, got %v", err)
	}
}

// TestModelBuilderSnapshot: a snapshot is an independent copy — later
// observations into the source do not leak into it.
func TestModelBuilderSnapshot(t *testing.T) {
	src, err := NewModelBuilder(ModelBuilderConfig{Types: 2, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	observeStream(t, src, 4, 10, 1)
	snap := src.Snapshot()
	observeStream(t, src, 4, 10, 1)
	if snap.WindowsSeen() != 10 || src.WindowsSeen() != 20 {
		t.Fatalf("snapshot %d / source %d windows", snap.WindowsSeen(), src.WindowsSeen())
	}
	snapModel, err := snap.Build()
	if err != nil {
		t.Fatal(err)
	}
	if snapModel.Windows() != 10 {
		t.Errorf("snapshot model trained on %d windows, want 10", snapModel.Windows())
	}
	// Source reset leaves the snapshot intact (deferred-mode buffers are
	// structurally shared but immutable).
	src.Reset()
	if snap.WindowsSeen() != 10 {
		t.Error("source Reset disturbed the snapshot")
	}
}

func TestNewUntrainedModel(t *testing.T) {
	m, err := NewUntrainedModel(3, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Trained() {
		t.Fatal("untrained model reports Trained")
	}
	s, err := NewShedder(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Configure(Partitioning{Rho: 2, PSize: 4, WS: 8}, 1); err == nil {
		t.Error("shedder over an untrained model must refuse to configure")
	}
	if _, err := NewUntrainedModel(0, 8, 1); err == nil {
		t.Error("Types=0 must fail")
	}
}
