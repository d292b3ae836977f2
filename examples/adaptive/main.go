// Command adaptive demonstrates the model-retraining extension
// (Section 3.6): the input distribution shifts mid-stream — the
// man-marking lags change — so a model trained before the shift starts
// misjudging where contributing events sit in windows. A statistical
// drift detector (Page-Hinkley over the model-mismatch fraction, the
// trigger the paper leaves as future work) raises the retraining flag;
// retraining on post-shift windows restores quality, and in a live
// deployment Shedder.SetModel swaps the new model in atomically.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	espice "repro"
)

func main() {
	log.SetFlags(0)
	seed := flag.Int64("seed", 5, "generator seed")
	duration := flag.Int("duration", 1200, "seconds per phase")
	flag.Parse()

	// Phase 1 and phase 2 differ in marking structure: different lags,
	// i.e. a concept drift in the (type, position) correlation.
	metaA, phaseA, err := espice.GenerateRTLS(espice.RTLSConfig{
		DurationSec: *duration, Seed: *seed,
		DefendLagMin: 1, DefendLagMax: 4, MarkersPerStriker: 8,
		NoiseDefendProb: 0.02, MarkerDefendProb: 0.03,
	})
	if err != nil {
		log.Fatal(err)
	}
	_, phaseB, err := espice.GenerateRTLS(espice.RTLSConfig{
		DurationSec: *duration, Seed: *seed + 1,
		DefendLagMin: 7, DefendLagMax: 12, MarkersPerStriker: 8,
		NoiseDefendProb: 0.02, MarkerDefendProb: 0.03,
	})
	if err != nil {
		log.Fatal(err)
	}

	query, err := espice.Q1(metaA, 3, espice.SelectFirst, 15)
	if err != nil {
		log.Fatal(err)
	}

	trainA, evalA := espice.SplitHalf(phaseA)
	trainB, evalB := espice.SplitHalf(phaseB)

	// Train on phase 1.
	trained, err := espice.Train(query, trainA, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase-1 model: %d windows, %d matches\n", trained.Windows, trained.Matches)

	// --- Drift detection ---------------------------------------------------
	drift, err := espice.NewDriftDetector(trained.Model, espice.DriftConfig{})
	if err != nil {
		log.Fatal(err)
	}
	feed := func(label string, events []espice.Event) {
		op, err := espice.NewOperator(espice.OperatorConfig{
			Window:        query.Window,
			Patterns:      query.Patterns,
			OnWindowClose: drift.ObserveWindow,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range events {
			op.Process(e)
		}
		op.Flush(events[len(events)-1].TS)
		fmt.Printf("  after %-22s drifted=%v mismatch-mean=%.2f (windows %d)\n",
			label, drift.Drifted(), drift.MismatchMean(), drift.Windows())
	}
	fmt.Println("\n== Drift detector (Page-Hinkley on model mismatch) ==")
	feed("phase-1 traffic:", evalA)
	feed("phase-2 traffic:", evalB)
	if !drift.Drifted() {
		fmt.Println("  (no drift flag raised — unexpected for this workload)")
	}

	// --- Quality impact and retraining -------------------------------------
	run := func(label string, train, eval []espice.Event) {
		res, err := espice.RunExperiment(espice.ExperimentConfig{
			Query:          query,
			Train:          train,
			Eval:           eval,
			OverloadFactor: 1.2,
			Seed:           *seed,
		}, espice.ShedESPICE)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-34s %s\n", label, res.Quality)
	}
	fmt.Println("\n== Shedding quality before/after retraining ==")
	fmt.Println("phase 1 (marking lags 1-4s):")
	run("model trained on phase 1", trainA, evalA)
	fmt.Println("phase 2 (marking lags 7-12s), STALE model:")
	run("stale model", trainA, evalB)
	fmt.Println("phase 2 after retraining:")
	run("retrained model", trainB, evalB)

	fmt.Println("\nThe detector flags the shift; retraining restores quality. In a")
	fmt.Println("deployment, Shedder.SetModel swaps the retrained model in atomically")
	fmt.Println("without pausing the event stream (see core.Shedder).")

	// --- Live sharded deployment with an atomic model swap -----------------
	// The same swap, demonstrated on the live runtime: a 2-shard pipeline
	// replays phase-2 traffic at 1.3x capacity with its shedder, shared
	// by both shards, still holding the stale phase-1 model; halfway
	// through, the retrained model is swapped in without pausing the
	// stream.
	fmt.Println("\n== Live 2-shard pipeline: hot-swapping the retrained model ==")
	retrained, err := espice.Train(query, trainB, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	const shards = 2
	shedder, err := espice.NewShedder(trained.Model)
	if err != nil {
		log.Fatal(err)
	}
	det, err := espice.NewOverloadDetector(espice.DetectorConfig{
		LatencyBound: 300 * espice.Millisecond, F: 0.7,
	})
	if err != nil {
		log.Fatal(err)
	}
	const delay = 200 * time.Microsecond
	pipe, err := espice.NewPipeline(espice.PipelineConfig{
		Operator: espice.OperatorConfig{
			Window:   query.Window,
			Patterns: query.Patterns,
			Shedder:  shedder,
		},
		Shards:          shards,
		Detector:        det,
		Controller:      espice.ESPICEController{S: shedder},
		PollInterval:    5 * time.Millisecond,
		ProcessingDelay: delay,
	})
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- pipe.Run(context.Background()) }()
	detected := 0
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for range pipe.Out() {
			detected++
		}
	}()

	liveEvents := evalB
	if len(liveEvents) > 8000 {
		liveEvents = liveEvents[:8000]
	}
	capacity := float64(shards) * float64(time.Second) / float64(delay) / trained.MembershipFactor
	interval := time.Duration(float64(time.Second) / (1.3 * capacity))
	start := time.Now()
	// Cap each batch at ~4ms of stream time: SubmitBatch stamps the whole
	// batch with one arrival time, and longer spans would skew the
	// latency trace and the detector's queue samples at low rates.
	batch := int(0.004 / interval.Seconds())
	if batch < 1 {
		batch = 1
	}
	if batch > 64 {
		batch = 64
	}
	for i := 0; i < len(liveEvents); i += batch {
		if i >= len(liveEvents)/2 && i-batch < len(liveEvents)/2 {
			if err := shedder.SetModel(retrained.Model); err != nil {
				log.Fatal(err)
			}
			fmt.Println("  mid-stream: retrained model swapped into the shared shedder")
		}
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		end := i + batch
		if end > len(liveEvents) {
			end = len(liveEvents)
		}
		pipe.SubmitBatch(liveEvents[i:end])
	}
	pipe.CloseInput()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	<-collected
	st := pipe.Stats()
	fmt.Printf("  replayed %d events, detected %d complex events, shed %d of %d memberships\n",
		st.Processed, detected, st.Operator.MembershipsShed, st.Operator.Memberships)
	for i, ss := range st.Shards {
		fmt.Printf("  shard %d: %d memberships, %d shed, %d windows closed\n",
			i, ss.Memberships, ss.Shed, ss.WindowsClosed)
	}
}
