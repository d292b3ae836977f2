// Command drift demonstrates the online model lifecycle end to end on a
// distribution-shifting stream: a live pipeline starts with a model
// trained on phase-1 traffic (short man-marking lags), the stream then
// shifts to phase-2 dynamics (long lags), the drift detector alarms, and
// the lifecycle retrains from post-shift windows and hot-swaps the new
// model into every shard's shedder — no pause, no operator intervention.
//
// Afterwards the swapped-out model is evaluated against the frozen one:
// on post-shift traffic the frozen model's false-positive rate degrades,
// while the auto-retrained model recovers (close to) the quality of a
// model freshly trained on the shifted distribution.
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

	// Phase 1 and phase 2 differ in marking structure — a concept drift
	// in the (type, position) correlation the utility model learns.
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

	// The frozen reference: trained once, offline, on phase 1.
	frozen, err := espice.Train(query, trainA, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase-1 model: %d windows, %d matches\n", frozen.Windows, frozen.Matches)

	// --- Live pipeline with the lifecycle in charge of the model -------
	// Two shards sharing one shedder that starts from the phase-1 model;
	// the lifecycle samples every window close, watches for drift and
	// swaps retrained models into the shedder.
	const shards = 2
	shedder, err := espice.NewShedder(frozen.Model)
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
		Lifecycle: &espice.LifecycleConfig{
			Types:              query.NumTypes,
			WarmupWindows:      8,
			MinRetrainInterval: 200 * time.Millisecond,
			// More sensitive than the defaults: shedding keeps mostly
			// events the frozen model already likes, which dampens the
			// mismatch signal — a lower threshold still catches the
			// shift without tripping on stable phase-1 traffic.
			Drift: &espice.DriftConfig{Delta: 0.01, Lambda: 1.5, MinWindows: 20},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- pipe.Run(context.Background()) }()
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for range pipe.Out() {
		}
	}()

	// The live stream: phase-1 traffic, then the shift. Replayed above
	// capacity so the overload detector keeps the shedder active — the
	// swap happens on a *busy* pipeline.
	liveEvents := append(append([]espice.Event{}, evalA...), trainB...)
	capacity := float64(shards) * float64(time.Second) / float64(delay) / frozen.MembershipFactor
	interval := time.Duration(float64(time.Second) / (1.15 * capacity))
	batch := int(0.004 / interval.Seconds())
	if batch < 1 {
		batch = 1
	}
	if batch > 64 {
		batch = 64
	}
	fmt.Printf("\nreplaying %d live events (%d pre-shift, %d post-shift) at 1.15x capacity\n",
		len(liveEvents), len(evalA), len(trainB))
	start := time.Now()
	lastBuilds := uint64(0)
	for i := 0; i < len(liveEvents); i += batch {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		end := i + batch
		if end > len(liveEvents) {
			end = len(liveEvents)
		}
		pipe.SubmitBatch(liveEvents[i:end])
		if st := pipe.Stats(); st.Lifecycle != nil && st.Lifecycle.Builds != lastBuilds {
			lastBuilds = st.Lifecycle.Builds
			fmt.Printf("  event %6d: lifecycle build #%d swapped in (drift alarms so far: %d)\n",
				i, lastBuilds, st.Lifecycle.DriftAlarms)
		}
	}
	pipe.CloseInput()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	<-collected

	st := pipe.Stats()
	ls := st.Lifecycle
	fmt.Printf("replay done: %d events, %d shed of %d memberships\n",
		st.Processed, st.Operator.MembershipsShed, st.Operator.Memberships)
	fmt.Printf("lifecycle:   builds=%d drift-alarms=%d sampled-windows=%d mismatch-mean=%.2f\n",
		ls.Builds, ls.DriftAlarms, ls.WindowsSampled, ls.MismatchMean)
	if ls.DriftAlarms == 0 {
		fmt.Println("  (no drift alarm — unexpected for this workload)")
	}

	// --- Quality: frozen vs auto-retrained vs freshly trained ----------
	swapped := pipe.Lifecycle().Model()
	if swapped == nil {
		log.Fatal("lifecycle never produced a model")
	}
	fresh, err := espice.Train(query, trainB, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	evalFP := func(label string, tr *espice.TrainResult) float64 {
		res, err := espice.EvalWithModel(espice.ExperimentConfig{
			Query: query, Eval: evalB, OverloadFactor: 1.2,
		}, tr, espice.ShedESPICE)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s %s\n", label, res.Quality)
		return res.Quality.FPPct()
	}
	fmt.Println("\n== Post-shift quality (deterministic simulator, 1.2x overload) ==")
	fpFrozen := evalFP("frozen phase-1 model", frozen)
	fpSwapped := evalFP("lifecycle-retrained model",
		&espice.TrainResult{Model: swapped, MembershipFactor: frozen.MembershipFactor})
	fpFresh := evalFP("fresh phase-2 model", fresh)
	if fpFrozen > fpFresh {
		recovery := (fpFrozen - fpSwapped) / (fpFrozen - fpFresh) * 100
		if recovery >= 100 {
			fmt.Printf("\nthe auto-retrained model recovered the full false-positive gap (FP %.1f%% vs frozen %.1f%%)\n",
				fpSwapped, fpFrozen)
		} else {
			fmt.Printf("\nthe auto-retrained model recovered %.0f%% of the false-positive gap\n", recovery)
		}
	}
	fmt.Println("the swap happened under live overloaded traffic, with no pause and no lost events")
}
