package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tesla"
)

// queriesResult carries the multi-query replay outcome for tests.
type queriesResult struct {
	stats   engine.Stats
	quality map[string]metrics.Quality
}

// runQueries is the -queries mode: load several Tesla-text queries from a
// file, train one eSPICE model per query on its filtered half of an RTLS
// stream, and replay the evaluation half through the multi-query engine
// under the global shedding budget.
func runQueries(opts liveOpts, w io.Writer) (*queriesResult, error) {
	src, err := os.ReadFile(opts.queries)
	if err != nil {
		return nil, err
	}
	if opts.shedder != "espice" && opts.shedder != "none" {
		return nil, fmt.Errorf("-queries mode supports shedder espice or none, got %q", opts.shedder)
	}
	if opts.retrain && opts.shedder != "espice" {
		return nil, fmt.Errorf("-retrain needs shedder espice, got %q", opts.shedder)
	}
	meta, events, err := datasets.GenerateRTLS(datasets.RTLSConfig{
		DurationSec: opts.seconds, Seed: opts.seed,
	})
	if err != nil {
		return nil, err
	}
	qs, err := tesla.ParseMulti(string(src), tesla.Env{Registry: meta.Registry, Schema: meta.Schema})
	if err != nil {
		return nil, err
	}
	train, eval := harness.SplitHalf(events)

	eng, err := engine.New(engine.Config{
		LatencyBound: event.Time(opts.bound.Microseconds()),
		F:            opts.f,
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}

	// Per query: train on the filtered training half (the engine's view of
	// the stream), compute the unshed ground truth on the filtered eval
	// half, and register with the trained model.
	type registered struct {
		q      queries.Query
		h      *engine.Query
		truth  []operator.ComplexEvent
		shareC float64 // delivered fraction of the ingress stream
		kbar   float64
	}
	regs := make([]*registered, 0, len(qs))
	capacity := 0.0
	for _, q := range qs {
		ftrain := engine.FilterStream(q, train)
		if len(ftrain) == 0 {
			return nil, fmt.Errorf("query %s: filter leaves no training events", q.Name)
		}
		tr, err := harness.Train(q, ftrain, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", q.Name, err)
		}
		fmt.Fprintf(w, "%-12s trained on %d windows (%d matches), %d/%d training events pass filter\n",
			q.Name, tr.Windows, tr.Matches, len(ftrain), len(train))

		feval := engine.FilterStream(q, eval)
		truthOp, err := operator.New(operator.Config{Window: q.Window, Patterns: q.Patterns})
		if err != nil {
			return nil, err
		}
		truth, err := sim.ReplayUnshed(feval, truthOp)
		if err != nil {
			return nil, err
		}

		qcfg := engine.QueryConfig{
			Query:           q,
			ProcessingDelay: opts.delay,
			Shards:          opts.shards,
		}
		if opts.shedder == "espice" {
			if opts.retrain {
				// Online lifecycle: register untrained, train from the
				// query's own filtered traffic (-drift adds automatic
				// retraining); the offline model stays a reference only.
				qcfg.Lifecycle = &runtime.LifecycleConfig{
					WarmupWindows: opts.warmup,
				}
				if opts.drift {
					qcfg.Lifecycle.Drift = &core.DriftConfig{}
				}
			} else {
				qcfg.Model = tr.Model
			}
		}
		h, err := eng.Register(qcfg)
		if err != nil {
			return nil, err
		}
		share := float64(len(ftrain)) / float64(len(train))
		regs = append(regs, &registered{q: q, h: h, truth: truth, shareC: share, kbar: tr.MembershipFactor})
		// The query saturates when its delivered rate share*R reaches its
		// per-pipeline capacity; track the tightest ingress bound.
		if opts.delay > 0 && share > 0 {
			qcap := float64(opts.shards) * float64(time.Second) / float64(opts.delay) / tr.MembershipFactor / share
			if capacity == 0 || qcap < capacity {
				capacity = qcap
			}
		}
	}

	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	// One drain goroutine per query: a sequential drain would stop
	// reading the later queries' channels, and a query whose output
	// channel fills stalls its pipeline and backpressures the whole engine.
	detected := make(map[string][]operator.ComplexEvent, len(regs))
	var detectedMu sync.Mutex
	var drains sync.WaitGroup
	collected := make(chan struct{})
	for _, r := range regs {
		drains.Add(1)
		go func(h *engine.Query) {
			defer drains.Done()
			for ce := range h.Out() {
				detectedMu.Lock()
				detected[h.Name()] = append(detected[h.Name()], ce)
				detectedMu.Unlock()
			}
		}(r.h)
	}
	go func() {
		defer close(collected)
		drains.Wait()
	}()
	shutdown, runErr := makeShutdown(opts, eng.CloseInput, done, collected)
	defer shutdown()

	rate := opts.overload * capacity
	if rate <= 0 {
		rate = 50000 // no artificial cost: replay fast
	}
	fmt.Fprintf(w, "replaying %d events at %.0f ev/s across %d queries (bottleneck capacity ~%.0f ev/s, shedder %s)\n",
		len(eval), rate, len(regs), capacity, opts.shedder)
	pacedReplay(eval, rate, eng.SubmitBatch)
	shutdown()
	if *runErr != nil {
		return nil, *runErr
	}

	res := &queriesResult{stats: eng.Stats(), quality: make(map[string]metrics.Quality, len(regs))}
	fmt.Fprintf(w, "\nglobal budget: overloaded=%v drop-rate=%.0f ev/s\n",
		res.stats.Overloaded, res.stats.DropRate)
	for _, r := range regs {
		qual := metrics.CompareQuality(r.truth, detected[r.h.Name()])
		res.quality[r.h.Name()] = qual
		qst := r.h.Stats()
		op := qst.Pipeline.Operator
		fmt.Fprintf(w, "%-12s quality %s | delivered %d skipped %d | shed %d of %d memberships (%.1f%%)\n",
			r.h.Name(), qual, qst.Delivered, qst.Skipped,
			op.MembershipsShed, op.Memberships,
			100*float64(op.MembershipsShed)/float64(max(1, op.Memberships)))
		if ls := qst.Pipeline.Lifecycle; ls != nil {
			fmt.Fprintf(w, "%-12s lifecycle trained=%v builds=%d drift-alarms=%d sampled-windows=%d\n",
				"", ls.Trained, ls.Builds, ls.DriftAlarms, ls.WindowsSampled)
		}
	}
	return res, nil
}
