// Command espice-live replays a synthetic dataset through the live
// goroutine/channel pipeline at a configurable overload and reports
// latency and quality statistics — a wall-clock counterpart to the
// deterministic simulator used by espice-bench. With -shards > 1 the
// pipeline runs as a sharded multi-operator deployment: windows are
// placed on the least-loaded of the parallel operator instances, which
// share one load shedder commanded by one overload detector.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// liveOpts bundles the command-line parameters so the whole replay is
// callable from tests.
type liveOpts struct {
	seconds  int
	n        int
	seed     int64
	delay    time.Duration
	bound    time.Duration
	f        float64
	overload float64
	shedder  string
	shards   int
	queries  string
	retrain  bool
	drift    bool
	warmup   int

	// cleanup registers the pipeline/engine teardown (idempotent: close
	// input, join the run and collector goroutines). Tests pass
	// t.Cleanup so an early test failure still drains every goroutine;
	// when nil, the teardown runs when the replay returns — including
	// the error paths.
	cleanup func(func())
}

// liveResult carries the counters a caller (or test) may want to assert
// on after the replay.
type liveResult struct {
	stats   runtime.Stats
	quality metrics.Quality
}

func main() {
	log.SetFlags(0)
	opts := liveOpts{}
	flag.IntVar(&opts.seconds, "seconds", 900, "seconds of synthetic RTLS data")
	flag.IntVar(&opts.n, "n", 4, "Q1 pattern size")
	flag.Int64Var(&opts.seed, "seed", 1, "generator seed")
	flag.DurationVar(&opts.delay, "delay", 2*time.Millisecond, "processing cost per kept membership")
	flag.DurationVar(&opts.bound, "bound", 500*time.Millisecond, "latency bound LB")
	flag.Float64Var(&opts.f, "f", 0.7, "shedding trigger fraction f")
	flag.Float64Var(&opts.overload, "overload", 1.3, "input rate as a multiple of capacity")
	flag.StringVar(&opts.shedder, "shedder", "espice", "shedder: espice, bl, random, none")
	flag.IntVar(&opts.shards, "shards", 1, "parallel operator instances")
	flag.StringVar(&opts.queries, "queries", "",
		"multi-query mode: file of Tesla-text define blocks run side by side on the engine")
	flag.BoolVar(&opts.retrain, "retrain", false,
		"online model lifecycle: start untrained and train the eSPICE model from live traffic")
	flag.BoolVar(&opts.drift, "drift", false,
		"with -retrain: retrain automatically when the drift detector alarms")
	flag.IntVar(&opts.warmup, "warmup", 16,
		"with -retrain: sampled windows required before a model is built")
	flag.Parse()

	if opts.queries != "" {
		if _, err := runQueries(opts, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if _, err := runLive(opts, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// makeShutdown builds the idempotent teardown shared by runLive and
// runQueries: seal the input, join the run goroutine (capturing its
// error behind the returned pointer) and wait for the output collector.
// Every exit routes through it — it is registered with opts.cleanup
// (tests pass t.Cleanup, so even an early test failure drains all
// goroutines) and additionally deferred by the caller for the non-test
// path.
func makeShutdown(opts liveOpts, closeInput func(), done chan error, collected chan struct{}) (func(), *error) {
	var (
		once   sync.Once
		runErr error
	)
	shutdown := func() {
		once.Do(func() {
			closeInput()
			runErr = <-done
			<-collected
		})
	}
	if opts.cleanup != nil {
		opts.cleanup(shutdown)
	}
	return shutdown, &runErr
}

// newShedPair builds the decider/controller pair of the requested kind,
// which every shard of the pipeline shares. model is the eSPICE starting
// model — the offline-trained one, or an untrained placeholder in
// -retrain mode.
func newShedPair(name string, q queries.Query, tr *harness.TrainResult, model *core.Model, seed int64) (operator.Decider, sim.Controller, error) {
	switch name {
	case "espice":
		s, err := core.NewShedder(model)
		if err != nil {
			return nil, nil, err
		}
		return s, harness.ESPICEController{S: s}, nil
	case "bl":
		bl, err := baseline.NewBL(baseline.BLConfig{
			Types:   q.NumTypes,
			Weights: q.MergedTypeWeights(),
			Freq:    tr.TypeFreq,
			Seed:    seed,
		})
		if err != nil {
			return nil, nil, err
		}
		return bl, harness.BLController{B: bl}, nil
	case "random":
		r := baseline.NewRandom(seed)
		return r, harness.RandomController{R: r}, nil
	case "none":
		return nil, nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown shedder %q", name)
	}
}

func runLive(opts liveOpts, w io.Writer) (*liveResult, error) {
	if opts.shards < 1 {
		opts.shards = 1
	}
	meta, events, err := datasets.GenerateRTLS(datasets.RTLSConfig{
		DurationSec: opts.seconds, Seed: opts.seed,
	})
	if err != nil {
		return nil, err
	}
	query, err := queries.Q1(meta, opts.n, pattern.SelectFirst, 15)
	if err != nil {
		return nil, err
	}
	train, eval := harness.SplitHalf(events)
	tr, err := harness.Train(query, train, 0, 0)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "trained on %d windows (%d matches)\n", tr.Windows, tr.Matches)

	// Ground truth for quality comparison.
	truthOp, err := operator.New(operator.Config{Window: query.Window, Patterns: query.Patterns})
	if err != nil {
		return nil, err
	}
	truth, err := sim.ReplayUnshed(eval, truthOp)
	if err != nil {
		return nil, err
	}

	cfg := runtime.Config{
		Operator: operator.Config{
			Window:   query.Window,
			Patterns: query.Patterns,
		},
		PollInterval:    5 * time.Millisecond,
		ProcessingDelay: opts.delay,
		Shards:          opts.shards,
	}
	// In -retrain mode the pipeline owns the model lifecycle: shedders
	// start over an untrained model and come online once the in-flight
	// training is warm; -drift arms automatic retraining on input shift.
	shedModel := tr.Model
	if opts.retrain {
		if opts.shedder != "espice" {
			return nil, fmt.Errorf("-retrain needs shedder espice, got %q", opts.shedder)
		}
		n := query.Window.SizeHint
		if n <= 0 {
			n = 1
		}
		shedModel, err = core.NewUntrainedModel(query.NumTypes, n, 0)
		if err != nil {
			return nil, err
		}
		cfg.Lifecycle = &runtime.LifecycleConfig{
			Types:         query.NumTypes,
			WarmupWindows: opts.warmup,
		}
		if opts.drift {
			cfg.Lifecycle.Drift = &core.DriftConfig{}
		}
	}
	// One shedder, shared by every shard and driven by a single detector.
	decider, ctrl, err := newShedPair(opts.shedder, query, tr, shedModel, opts.seed)
	if err != nil {
		return nil, err
	}
	if decider != nil {
		cfg.Operator.Shedder = decider
		det, err := core.NewOverloadDetector(core.DetectorConfig{
			LatencyBound: event.Time(opts.bound.Microseconds()),
			F:            opts.f,
		})
		if err != nil {
			return nil, err
		}
		cfg.Detector, cfg.Controller = det, ctrl
	}
	pipe, err := runtime.New(cfg)
	if err != nil {
		return nil, err
	}

	done := make(chan error, 1)
	go func() { done <- pipe.Run(context.Background()) }()
	var detected []operator.ComplexEvent
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for ce := range pipe.Out() {
			detected = append(detected, ce)
		}
	}()
	shutdown, runErr := makeShutdown(opts, pipe.CloseInput, done, collected)
	defer shutdown()

	kbar := tr.MembershipFactor
	capacity := float64(opts.shards) * float64(time.Second) / float64(opts.delay) / kbar
	rate := opts.overload * capacity
	fmt.Fprintf(w, "replaying %d events at %.0f ev/s (capacity ~%.0f ev/s, shedder %s, shards %d)\n",
		len(eval), rate, capacity, opts.shedder, opts.shards)
	pacedReplay(eval, rate, pipe.SubmitBatch)
	shutdown()
	if *runErr != nil {
		return nil, *runErr
	}

	st := pipe.Stats()
	lat := pipe.Latency()
	quality := metrics.CompareQuality(truth, detected)
	fmt.Fprintf(w, "\nquality:  %s\n", quality)
	fmt.Fprintf(w, "shedding: %d of %d memberships (%.1f%%)\n",
		st.Operator.MembershipsShed, st.Operator.Memberships,
		100*float64(st.Operator.MembershipsShed)/float64(max(1, st.Operator.Memberships)))
	for i, ss := range st.Shards {
		fmt.Fprintf(w, "  shard %d: %d memberships, %d kept, %d shed, %d windows, %d complex events, %d pool misses, occupancy %d (th ~%.0f ev/s)\n",
			i, ss.Memberships, ss.Kept, ss.Shed, ss.WindowsClosed, ss.ComplexEvents, ss.PoolMisses, ss.Occupancy, ss.Throughput)
	}
	if st.Lifecycle != nil {
		ls := st.Lifecycle
		fmt.Fprintf(w, "lifecycle: trained=%v builds=%d drift-alarms=%d sampled-windows=%d (model: %d windows, %d matches)\n",
			ls.Trained, ls.Builds, ls.DriftAlarms, ls.WindowsSampled, ls.ModelWindows, ls.ModelMatches)
	}
	fmt.Fprintf(w, "latency:  mean %.1fms  p95 %.1fms  max %.1fms\n",
		float64(lat.Mean())/1000, float64(lat.Percentile(95))/1000, float64(lat.Max())/1000)
	fmt.Fprintf(w, "violations of LB=%v: %d of %d\n",
		opts.bound, lat.ViolationCount(event.Time(opts.bound.Microseconds())), lat.Len())
	return &liveResult{stats: st, quality: quality}, nil
}
