package core

import (
	"fmt"

	"repro/internal/event"
)

// Decision is the outcome of one overload-detector evaluation: whether to
// shed, and if so how (partitioning and per-partition drop amount x).
type Decision struct {
	Overloaded bool
	QMax       float64      // maximum tolerable queue size before LB violation
	Trigger    float64      // f * qmax, the activation threshold
	Delta      float64      // δ: events per second to drop (0 unless Overloaded)
	X          float64      // events to drop per partition per window
	Part       Partitioning // dropping intervals for the current window size
}

// DetectorConfig configures the overload detector.
type DetectorConfig struct {
	// LatencyBound is LB, the end-to-end bound detected complex events
	// must meet.
	LatencyBound event.Time
	// F is the queue-fill fraction that triggers shedding: shedding starts
	// once qsize > F*qmax (Section 3.4). Must be in (0, 1).
	F float64
}

// Validate checks the configuration.
func (c DetectorConfig) Validate() error {
	if c.LatencyBound <= 0 {
		return fmt.Errorf("core: detector needs LatencyBound > 0, got %v", c.LatencyBound)
	}
	if c.F <= 0 || c.F >= 1 {
		return fmt.Errorf("core: detector needs F in (0,1), got %v", c.F)
	}
	return nil
}

// OverloadDetector implements Section 3.4: it periodically inspects the
// input queue size, estimates the latency of incoming events from the
// operator throughput, and decides when shedding must start and how many
// events to drop per dropping interval.
//
// The detector is a pure decision function over measurements supplied by
// the caller (queue length, input rate R, operator throughput th); it
// owns no clock and no goroutine, which keeps it trivially testable and
// reusable by both the discrete-event simulator and the live runtime.
type OverloadDetector struct {
	cfg DetectorConfig
}

// NewOverloadDetector builds a detector; the configuration must validate.
func NewOverloadDetector(cfg DetectorConfig) (*OverloadDetector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &OverloadDetector{cfg: cfg}, nil
}

// Config returns the detector configuration.
func (d *OverloadDetector) Config() DetectorConfig { return d.cfg }

// QMax computes the maximum queue size before the latency bound is
// violated: an event at queue position n has estimated latency
// l(e) = n * l(p) with l(p) = 1/th, so qmax = LB * th.
func (d *OverloadDetector) QMax(throughput float64) float64 {
	if throughput <= 0 {
		return 0
	}
	return d.cfg.LatencyBound.Seconds() * throughput
}

// Evaluate takes the current measurements — queue size, input event rate
// R (events/s), operator throughput th (events/s) and the current window
// size ws — and returns the shedding decision:
//
//	overloaded   iff qsize > f*qmax
//	partitioning ρ = ceil(ws/(qmax - f*qmax)), psize = ws/ρ
//	drop amount  x = δ * psize/R with δ = R - th (extra events per second)
//
// On top of the rate excess, δ includes a backlog-correction term
// (qsize - f*qmax)/LB: shedding the rate excess alone would only hold the
// queue at its current level, leaving the backlog above the trigger to
// random-walk toward qmax under bursty drops. The correction drains the
// excess backlog within roughly one latency bound, pinning the queue —
// and hence the event latency — just above f*qmax (the plateau at
// ~f*LB that Figure 7 shows).
func (d *OverloadDetector) Evaluate(qsize int, rateR, throughput float64, ws int) Decision {
	qmax := d.QMax(throughput)
	dec := Decision{
		QMax:    qmax,
		Trigger: d.cfg.F * qmax,
	}
	if qmax <= 0 {
		return dec
	}
	dec.Part = ComputePartitioning(ws, qmax, d.cfg.F)
	if float64(qsize) <= dec.Trigger {
		return dec
	}
	dec.Overloaded = true
	delta := rateR - throughput
	if delta < 0 {
		delta = 0
	}
	delta += (float64(qsize) - dec.Trigger) / d.cfg.LatencyBound.Seconds()
	// δ is set before the rate check: a backlog above the trigger needs
	// draining even when nothing is arriving any more, and callers that
	// split δ themselves (the engine's budget) still get it.
	dec.Delta = delta
	if rateR <= 0 {
		return dec
	}
	dec.X = DropAmount(delta, dec.Part.PSize, rateR)
	return dec
}

// DropAmount converts a drop rate δ (events/s) into x, the events to drop
// per partition of psize events, for a stream arriving at rateR events/s:
// x = δ * psize/R.
func DropAmount(delta float64, psize int, rateR float64) float64 {
	return delta * float64(psize) / rateR
}
