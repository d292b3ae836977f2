// Package harness wires the full eSPICE evaluation pipeline of Section 4:
// train the utility model on an unshed prefix of a dataset, compute the
// ground truth on the evaluation suffix, replay the suffix through the
// simulated operator under overload with a load shedder (eSPICE, BL or
// random) driven by the overload detector, and compare result quality.
// The per-figure experiment runners live in figures.go.
package harness

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/window"
)

// ShedderKind selects the load-shedding strategy under test.
type ShedderKind int

// Available strategies.
const (
	// ShedNone disables shedding (latency-explosion contrast runs).
	ShedNone ShedderKind = iota
	// ShedESPICE is the paper's contribution.
	ShedESPICE
	// ShedBL is the baseline after He et al. (see internal/baseline).
	ShedBL
	// ShedRandom drops uniformly at random.
	ShedRandom
)

// String names the strategy.
func (k ShedderKind) String() string {
	switch k {
	case ShedNone:
		return "none"
	case ShedESPICE:
		return "eSPICE"
	case ShedBL:
		return "BL"
	case ShedRandom:
		return "random"
	default:
		return fmt.Sprintf("shedder(%d)", int(k))
	}
}

// ESPICEController connects overload-detector decisions to the eSPICE
// shedder: on overload it configures the partitioning and per-partition
// drop amount; otherwise it deactivates shedding.
type ESPICEController struct{ S *core.Shedder }

// OnDecision implements sim.Controller.
func (c ESPICEController) OnDecision(dec core.Decision) {
	if dec.Overloaded && dec.X > 0 {
		// Configure only fails for an untrained model, which the harness
		// excludes by construction; losing a beat here would just delay
		// shedding by one poll period anyway.
		_ = c.S.Configure(dec.Part, dec.X)
		return
	}
	c.S.Deactivate()
}

// BLController drives the BL baseline: the per-partition drop amount is
// scaled to a per-window amount (BL has no partitions).
type BLController struct{ B *baseline.BL }

// OnDecision implements sim.Controller.
func (c BLController) OnDecision(dec core.Decision) {
	if dec.Overloaded && dec.X > 0 {
		c.B.SetDropAmount(dec.X*float64(dec.Part.Rho), dec.Part.WS)
		return
	}
	c.B.Deactivate()
}

// RandomController drives the random shedder analogously.
type RandomController struct{ R *baseline.Random }

// OnDecision implements sim.Controller.
func (c RandomController) OnDecision(dec core.Decision) {
	if dec.Overloaded && dec.X > 0 {
		c.R.SetDropAmount(dec.X*float64(dec.Part.Rho), dec.Part.WS)
		return
	}
	c.R.Deactivate()
}

// TrainResult carries everything learned from the unshed training pass.
type TrainResult struct {
	// Model is the trained eSPICE utility model.
	Model *core.Model
	// TypeFreq[t] is the average number of events of type t per window —
	// the frequency statistic BL builds its quotas from.
	TypeFreq []float64
	// MembershipFactor is the average number of window memberships per
	// event, which calibrates the simulator's service-time model.
	MembershipFactor float64
	// Windows and Matches summarize training coverage.
	Windows, Matches int
}

// tableDims resolves the utility-table dimensions for a query: N comes
// from the count-window size or the time-window size hint when not given;
// the bin size defaults to core.DefaultBinSize(N).
func tableDims(q queries.Query, n, binSize int) (int, int) {
	if n == 0 {
		if q.Window.Mode == window.ModeCount {
			n = q.Window.Count
		} else if q.Window.SizeHint > 0 {
			n = q.Window.SizeHint
		}
	}
	if binSize == 0 {
		binSize = core.DefaultBinSize(n)
	}
	return n, binSize
}

// replayTraining replays events unshed through one query's operator,
// feeding the eSPICE model builder plus the per-type frequency counts BL
// derives its quotas from. It returns the measured membership factor (0
// when no events were processed). Train and TrainMulti share it: Train
// runs it once, TrainMulti runs it once per query variant over its own
// builder and merges the builders into one model.
func replayTraining(q queries.Query, events []event.Event, mb *core.ModelBuilder,
	typeCounts []float64, windows *int) (float64, error) {
	op, err := operator.New(operator.Config{
		Window:   q.Window,
		Patterns: q.Patterns,
		OnWindowClose: func(w *window.Window, matched []window.Entry) {
			mb.ObserveWindow(w, matched)
			if w.Size() == 0 {
				return
			}
			*windows++
			v := w.Entries()
			for i := 0; i < v.Len(); i++ {
				if t := v.Type(i); t >= 0 && int(t) < len(typeCounts) {
					typeCounts[t]++
				}
			}
		},
	})
	if err != nil {
		return 0, err
	}
	if _, err := sim.ReplayUnshed(events, op); err != nil {
		return 0, err
	}
	st := op.Stats()
	if st.EventsProcessed == 0 {
		return 0, nil
	}
	return float64(st.Memberships) / float64(st.EventsProcessed), nil
}

// finishTraining normalizes the frequency counts and assembles the
// TrainResult from a fully fed builder.
func finishTraining(mb *core.ModelBuilder, typeCounts []float64, windows int,
	factor float64) (*TrainResult, error) {
	model, err := mb.Build()
	if err != nil {
		return nil, err
	}
	if windows > 0 {
		for t := range typeCounts {
			typeCounts[t] /= float64(windows)
		}
	}
	return &TrainResult{
		Model:            model,
		TypeFreq:         typeCounts,
		MembershipFactor: factor,
		Windows:          mb.WindowsSeen(),
		Matches:          mb.MatchesSeen(),
	}, nil
}

// Train replays events unshed through the query's operator, feeding the
// eSPICE model builder and collecting the statistics both shedders need.
// binSize and n configure the utility table (0 = defaults: n from the
// window spec or the average observed size).
func Train(q queries.Query, events []event.Event, binSize, n int) (*TrainResult, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("harness: no training events")
	}
	n, binSize = tableDims(q, n, binSize)
	mb, err := core.NewModelBuilder(core.ModelBuilderConfig{
		Types:   q.NumTypes,
		N:       n,
		BinSize: binSize,
	})
	if err != nil {
		return nil, err
	}
	typeCounts := make([]float64, q.NumTypes)
	windows := 0
	factor, err := replayTraining(q, events, mb, typeCounts, &windows)
	if err != nil {
		return nil, err
	}
	if factor == 0 {
		factor = 1
	}
	return finishTraining(mb, typeCounts, windows, factor)
}

// RunConfig parameterizes one quality experiment.
type RunConfig struct {
	Query queries.Query
	// Train and Eval are disjoint stream segments (typically a 50/50
	// split of a generated dataset).
	Train []event.Event
	Eval  []event.Event
	// OverloadFactor is R/th: 1.2 for the paper's R1, 1.4 for R2.
	OverloadFactor float64
	// Throughput th in events/second (default 1000).
	Throughput float64
	// LatencyBound LB (default 1s) and trigger fraction F (default 0.8).
	LatencyBound event.Time
	F            float64
	// BinSize and N configure the utility table (0 = defaults).
	BinSize int
	N       int
	// Seed drives the randomized shedders (BL, random).
	Seed int64
	// RecordLatency enables the latency trace (Figure 7).
	RecordLatency bool
}

func (c *RunConfig) applyDefaults() {
	if c.Throughput == 0 {
		c.Throughput = 1000
	}
	if c.LatencyBound == 0 {
		c.LatencyBound = event.Second
	}
	if c.F == 0 {
		c.F = 0.8
	}
	if c.OverloadFactor == 0 {
		c.OverloadFactor = 1.2
	}
}

// RunResult is the outcome of one experiment run.
type RunResult struct {
	Quality  metrics.Quality
	Latency  metrics.LatencyTrace
	MaxQueue int
	// ShedFraction is the fraction of memberships dropped.
	ShedFraction float64
	// Train echoes the training statistics used.
	Train *TrainResult
}

// TrainMulti trains one shared model across several query variants
// (e.g. the same pattern over different window sizes — the mixed-size
// training of the variable-window experiment, Section 3.6). Every
// variant replays the full training stream into its own builder; the
// per-variant builders are then merged (core.ModelBuilder.Merge — the
// same mechanism the online lifecycle uses to combine per-shard
// statistics), which is numerically identical to feeding one shared
// builder.
func TrainMulti(qs []queries.Query, events []event.Event, binSize, n int) (*TrainResult, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("harness: TrainMulti needs at least one query")
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("harness: no training events")
	}
	n, binSize = tableDims(qs[0], n, binSize)
	bcfg := core.ModelBuilderConfig{
		Types:   qs[0].NumTypes,
		N:       n,
		BinSize: binSize,
	}
	merged, err := core.NewModelBuilder(bcfg)
	if err != nil {
		return nil, err
	}
	typeCounts := make([]float64, qs[0].NumTypes)
	windows := 0
	factorSum := 0.0
	for _, q := range qs {
		mb, err := core.NewModelBuilder(bcfg)
		if err != nil {
			return nil, err
		}
		factor, err := replayTraining(q, events, mb, typeCounts, &windows)
		if err != nil {
			return nil, err
		}
		factorSum += factor
		if err := merged.Merge(mb); err != nil {
			return nil, err
		}
	}
	return finishTraining(merged, typeCounts, windows, factorSum/float64(len(qs)))
}

// RunExperiment executes the full pipeline for one shedder kind.
func RunExperiment(cfg RunConfig, kind ShedderKind) (*RunResult, error) {
	cfg.applyDefaults()
	tr, err := Train(cfg.Query, cfg.Train, cfg.BinSize, cfg.N)
	if err != nil {
		return nil, fmt.Errorf("harness: training: %w", err)
	}
	return EvalWithModel(cfg, tr, kind)
}

// EvalWithModel runs the ground-truth pass and the overloaded shedding
// pass for a pre-trained model (cfg.Train and cfg.BinSize are unused).
func EvalWithModel(cfg RunConfig, tr *TrainResult, kind ShedderKind) (*RunResult, error) {
	cfg.applyDefaults()
	if len(cfg.Eval) == 0 {
		return nil, fmt.Errorf("harness: no evaluation events")
	}
	if tr == nil || tr.Model == nil {
		return nil, fmt.Errorf("harness: EvalWithModel needs a training result")
	}
	if kind == ShedESPICE && !tr.Model.Trained() {
		return nil, fmt.Errorf("harness: query %s produced no matches during training", cfg.Query.Name)
	}

	// Ground truth: the evaluation segment processed without shedding.
	truthOp, err := operator.New(operator.Config{Window: cfg.Query.Window, Patterns: cfg.Query.Patterns})
	if err != nil {
		return nil, err
	}
	truth, err := sim.ReplayUnshed(cfg.Eval, truthOp)
	if err != nil {
		return nil, err
	}
	// Calibrate the simulator's service-time model on the evaluation
	// stream itself: the membership factor defines what "throughput th"
	// means for this workload (events/s at this window overlap), so using
	// the eval-segment overlap keeps the configured overload factor
	// exact. This is hardware calibration, not model training — no
	// knowledge leaks into the shedder.
	evalFactor := tr.MembershipFactor
	if ts := truthOp.Stats(); ts.EventsProcessed > 0 {
		evalFactor = float64(ts.Memberships) / float64(ts.EventsProcessed)
	}

	// Overloaded run with the shedder under test.
	var (
		decider operator.Decider
		ctrl    sim.Controller
	)
	switch kind {
	case ShedNone:
		// no shedder, no detector
	case ShedESPICE:
		s, err := core.NewShedder(tr.Model)
		if err != nil {
			return nil, err
		}
		decider, ctrl = s, ESPICEController{S: s}
	case ShedBL:
		bl, err := baseline.NewBL(baseline.BLConfig{
			Types:   cfg.Query.NumTypes,
			Weights: cfg.Query.MergedTypeWeights(),
			Freq:    tr.TypeFreq,
			Seed:    cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		decider, ctrl = bl, BLController{B: bl}
	case ShedRandom:
		r := baseline.NewRandom(cfg.Seed)
		decider, ctrl = r, RandomController{R: r}
	default:
		return nil, fmt.Errorf("harness: unknown shedder kind %d", kind)
	}

	evalOp, err := operator.New(operator.Config{
		Window:   cfg.Query.Window,
		Patterns: cfg.Query.Patterns,
		Shedder:  decider,
	})
	if err != nil {
		return nil, err
	}
	simCfg := sim.Config{
		Rate:             cfg.OverloadFactor * cfg.Throughput,
		Throughput:       cfg.Throughput,
		MembershipFactor: evalFactor,
		RecordLatency:    cfg.RecordLatency,
	}
	if kind != ShedNone {
		det, err := core.NewOverloadDetector(core.DetectorConfig{
			LatencyBound: cfg.LatencyBound,
			F:            cfg.F,
		})
		if err != nil {
			return nil, err
		}
		simCfg.Detector = det
	}
	res, err := sim.Run(simCfg, cfg.Eval, evalOp, ctrl)
	if err != nil {
		return nil, err
	}

	st := evalOp.Stats()
	out := &RunResult{
		Quality:  metrics.CompareQuality(truth, res.Complex),
		Latency:  res.Latency,
		MaxQueue: res.MaxQueue,
		Train:    tr,
	}
	if st.Memberships > 0 {
		out.ShedFraction = float64(st.MembershipsShed) / float64(st.Memberships)
	}
	return out, nil
}
