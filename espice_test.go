package espice_test

import (
	"context"
	"testing"
	"time"

	espice "repro"
)

// TestPublicAPIEndToEnd walks the README quick-start path through the
// facade: dataset → query → train → overloaded run → quality.
func TestPublicAPIEndToEnd(t *testing.T) {
	meta, events, err := espice.GenerateRTLS(espice.RTLSConfig{DurationSec: 600, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	query, err := espice.Q1(meta, 3, espice.SelectFirst, 15)
	if err != nil {
		t.Fatal(err)
	}
	train, eval := espice.SplitHalf(events)
	res, err := espice.RunExperiment(espice.ExperimentConfig{
		Query: query, Train: train, Eval: eval, OverloadFactor: 1.2, Seed: 7,
	}, espice.ShedESPICE)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.Truth == 0 {
		t.Fatal("no ground truth")
	}
	if res.Quality.FNPct() > 60 {
		t.Errorf("FN = %.1f%%, implausibly high", res.Quality.FNPct())
	}
}

// TestPublicAPIRunningExample rebuilds Table 1 / Figure 2 via the facade.
func TestPublicAPIRunningExample(t *testing.T) {
	ut, err := espice.NewUtilityTable(2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	utA := []int{70, 15, 10, 5, 0}
	utB := []int{0, 60, 30, 10, 0}
	for p := 0; p < 5; p++ {
		ut.Set(0, p, utA[p])
		ut.Set(1, p, utB[p])
	}
	model, err := espice.NewModelFromTable(ut, [][]float64{
		{0.8, 0.5, 0.1, 0.2, 0.5},
		{0.2, 0.5, 0.9, 0.8, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	cdt, err := espice.BuildCDT(model, espice.Partitioning{Rho: 1, PSize: 5, WS: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := cdt.Threshold(0, 2); got != 10 {
		t.Errorf("threshold = %d, want 10", got)
	}
}

// TestPublicAPILivePipeline runs a minimal live pipeline via the facade.
func TestPublicAPILivePipeline(t *testing.T) {
	p, err := espice.CompilePattern(espice.Pattern{
		Name:  "any",
		Steps: []espice.PatternStep{{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := espice.NewPipeline(espice.PipelineConfig{
		Operator: espice.OperatorConfig{
			Window:   espice.WindowSpec{Mode: espice.ModeCount, Count: 5, Slide: 5},
			Patterns: []*espice.CompiledPattern{p},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- pipe.Run(context.Background()) }()
	count := 0
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for range pipe.Out() {
			count++
		}
	}()
	for i := 0; i < 25; i++ {
		pipe.Submit(espice.Event{Seq: uint64(i)})
	}
	pipe.CloseInput()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not finish")
	}
	<-collected
	if count != 5 {
		t.Errorf("complex events = %d, want 5", count)
	}
}

// TestPublicAPIScalesAndKinds covers the small helpers.
func TestPublicAPIScalesAndKinds(t *testing.T) {
	if espice.DefaultScale().NYSEMinutes <= espice.QuickScale().NYSEMinutes {
		t.Error("default scale should exceed quick scale")
	}
	if espice.ShedESPICE.String() != "eSPICE" {
		t.Error("kind naming")
	}
	reg := espice.NewRegistry()
	id := reg.Register("X")
	if reg.Name(id) != "X" {
		t.Error("registry via facade broken")
	}
	s := espice.NewSchema("a", "b")
	if i, ok := s.Index("b"); !ok || i != 1 {
		t.Error("schema via facade broken")
	}
	part := espice.ComputePartitioning(700, 1000, 0.8)
	if part.Rho != 4 {
		t.Errorf("partitioning via facade: %+v", part)
	}
}

// TestPublicAPIWindowView matches a hand-built window through the
// facade: NewWindowView wraps the entries once, and a reused scratch
// matches them without copying.
func TestPublicAPIWindowView(t *testing.T) {
	p := espice.MustCompilePattern(espice.Pattern{
		Name:  "seq(A;B)",
		Steps: []espice.PatternStep{{Types: []espice.Type{0}}, {Types: []espice.Type{1}}},
	})
	view := espice.NewWindowView([]espice.WindowEntry{
		{Ev: espice.Event{Seq: 10, Type: 1}, Pos: 0},
		{Ev: espice.Event{Seq: 11, Type: 0}, Pos: 2},
		{Ev: espice.Event{Seq: 12, Type: 1}, Pos: 5},
	})
	var s espice.MatchScratch
	m, ok := p.MatchWith(&s, view)
	if !ok {
		t.Fatal("seq(A;B) did not match")
	}
	if got := m.Seqs(); len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Errorf("constituents = %v, want [11 12]", got)
	}
	if m.Constituents[1].Pos != 5 {
		t.Errorf("B's position = %d, want 5", m.Constituents[1].Pos)
	}
}
