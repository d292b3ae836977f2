package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/runtime"
)

// workload is one named traffic mix: how to prepare its inputs and how
// to assemble the stack of its saturation leg and of its paced leg.
type workload struct {
	workloadSpec
	// satShare is the share of -seconds the closed-loop saturation leg
	// gets; the open-loop paced leg gets the rest.
	satShare float64
	prepare  func(seed int64) (*prepared, error)
}

// prepared is everything setup_s pays for short of starting the stack:
// generated tiles, compiled queries, and the trained model where the
// workload sheds.
type prepared struct {
	// query is the workload's main query, the one the isolated passes
	// time layer by layer.
	query queries.Query
	sat   legConfig
	paced legConfig
	// pacedRate is the open-loop rate in events/s over all connections.
	pacedRate float64
	// calibrate, when set, measures for d the capacity the paced rate is
	// a multiple of (overloadFactor) instead of a fixed pacedRate.
	calibrate func(d time.Duration) (float64, error)
	trainS    float64
	shedder   *core.Shedder // the paced leg's shedder, nil unless the workload sheds
	engine    bool
}

// Latency bound and trigger fraction of the shedding workload.
const (
	shedLatencyBound = 500 * event.Millisecond
	shedTriggerF     = 0.7
	// shedDelay is the artificial cost per kept membership. An event in
	// five overlapping windows sleeps at most 1 ms, which a VM without
	// high-resolution timers rounds up to one timer tick: capacity is
	// pinned by the number of events that keep at least one membership,
	// not by CPU speed.
	shedDelay = 200 * time.Microsecond
	// overloadFactor is the paced rate of overload_shed relative to its
	// calibrated capacity.
	overloadFactor = 1.5
	// calibrateShare is how long the capacity calibration runs, as a
	// share of -seconds (1.5 s at the default 20).
	calibrateShare = 0.075
)

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

var workloads = []workload{
	{workloadSpec: workloadSpecs[0], satShare: 0.4, prepare: prepareWire(8, false, 100_000)},
	{workloadSpec: workloadSpecs[1], satShare: 0.4, prepare: prepareWire(256, true, 150_000)},
	{workloadSpec: workloadSpecs[2], satShare: 0.4, prepare: prepareEngine},
	{workloadSpec: workloadSpecs[3], satShare: 0.2, prepare: prepareOverload},
}

// prepareWire builds wire_light and wire_durable: one connection into a
// bare serial pipeline running Q3 over 300-event windows (about three
// memberships per event), optionally behind durable sessions and a
// journal.
func prepareWire(batch int, durable bool, rate float64) func(int64) (*prepared, error) {
	return func(seed int64) (*prepared, error) {
		tl, err := newTile(seed)
		if err != nil {
			return nil, err
		}
		q, err := queries.Q3(tl.meta, pattern.SelectFirst, 300)
		if err != nil {
			return nil, err
		}
		leg := legConfig{
			tiles:   []*tile{tl},
			tokens:  []string{""},
			batch:   batch,
			session: durable,
			journal: durable,
			newSide: func() (side, error) { return newPipelineSide(q, runtime.Config{}) },
		}
		return &prepared{query: q, sat: leg, paced: leg, pacedRate: rate}, nil
	}
}

// tenantQueries returns the three queries every tenant of
// engine_tenants registers. Window sizes are the smallest of the paper's
// sweeps that still detect complex events on the generated stream.
func tenantQueries(tl *tile) ([]engine.QueryConfig, error) {
	q2, err := queries.Q2(tl.meta, 20, pattern.SelectFirst, 240)
	if err != nil {
		return nil, err
	}
	q3, err := queries.Q3(tl.meta, pattern.SelectFirst, 300)
	if err != nil {
		return nil, err
	}
	q4, err := queries.Q4(tl.meta, pattern.SelectFirst, 300)
	if err != nil {
		return nil, err
	}
	return []engine.QueryConfig{
		{Query: q2, Shards: 2},
		{Query: q3, DisableFilter: true},
		{Query: q4},
	}, nil
}

// prepareEngine builds engine_tenants: two tenant connections, each
// with its own seeded stream, into one engine.
func prepareEngine(seed int64) (*prepared, error) {
	var tiles []*tile
	for i := range tenantNames {
		tl, err := newTile(seed + int64(i)*1000)
		if err != nil {
			return nil, err
		}
		tiles = append(tiles, tl)
	}
	qs, err := tenantQueries(tiles[0])
	if err != nil {
		return nil, err
	}
	leg := legConfig{
		tiles:   tiles,
		tokens:  tenantNames,
		batch:   256,
		newSide: func() (side, error) { return newEngineSide(tiles) },
	}
	return &prepared{query: qs[0].Query, sat: leg, paced: leg, pacedRate: 250_000, engine: true}, nil
}

// prepareOverload builds overload_shed. The query is Q2 over 2-second
// windows: five leader quotes a minute each open a window of about 18
// events, so roughly 22 of every 530 events sit in a window and pay the
// processing delay, and 0.6 complex events are detected per window —
// two orders of magnitude more per second of sleep-pinned capacity than
// Q3 over 300 events yields, which is what makes quality and latency
// repeat within a run of seconds.
//
// The paced leg offers 1.5x the calibrated capacity to the pipeline with
// processing delay, detector, controller and trained shedder. Capacity
// is whatever time.Sleep makes of the delay on this machine, so it is
// measured, not configured: calibrate pushes the stream through the
// delayed pipeline, unshed, for a second and a half (at -seconds 20). The saturation leg
// runs the same stack with neither delay nor shedder: a sleep-bound
// closed loop uses a few percent of one CPU, and its CPU per event is
// scheduler noise.
func prepareOverload(seed int64) (*prepared, error) {
	tl, err := newTile(seed)
	if err != nil {
		return nil, err
	}
	q, err := queries.Q2(tl.meta, 4, pattern.SelectFirst, 2)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	trained, err := harness.Train(q, tl.events, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	trainS := time.Since(t0).Seconds()
	shedder, err := core.NewShedder(trained.Model)
	if err != nil {
		return nil, err
	}
	det, err := core.NewOverloadDetector(core.DetectorConfig{LatencyBound: shedLatencyBound, F: shedTriggerF})
	if err != nil {
		return nil, err
	}
	sat := legConfig{tiles: []*tile{tl}, tokens: []string{""}, batch: 64}
	sat.newSide = func() (side, error) { return newPipelineSide(q, runtime.Config{}) }
	paced := sat
	paced.keep = true
	paced.newSide = func() (side, error) {
		cfg := runtime.Config{
			ProcessingDelay: shedDelay,
			Detector:        det,
			Controller:      harness.ESPICEController{S: shedder},
		}
		cfg.Operator.Shedder = shedder
		return newPipelineSide(q, cfg)
	}
	calibrate := func(d time.Duration) (float64, error) {
		// A short queue keeps the drain after the deadline short.
		return inprocPipeline(q, tl, runtime.Config{ProcessingDelay: shedDelay, QueueCap: 1024}, d)
	}
	return &prepared{query: q, sat: sat, paced: paced, calibrate: calibrate, trainS: trainS, shedder: shedder}, nil
}
