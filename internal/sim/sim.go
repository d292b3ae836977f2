// Package sim is a deterministic discrete-event simulation of the eSPICE
// deployment of Figure 1: events arrive at a configurable input rate R
// into the operator's FIFO queue, a single-threaded operator serves them
// at throughput th, and the overload detector polls the queue
// periodically to drive a load shedder. It reproduces the queueing
// dynamics of Section 3.4 — including the latency-bound experiment of
// Figure 7 — without wall clocks or goroutines, so results are exactly
// repeatable.
//
// Time bases: *event time* (the timestamps inside events, which windows
// are defined over) advances at the dataset's native rate; *wall-clock
// time* (arrivals, queueing, service) advances at the replay rate R. This
// mirrors the paper's setup of streaming a recorded dataset into the
// operator faster than it can process.
package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/operator"
)

// Controller reacts to overload-detector decisions, typically by
// (de)activating a load shedder. Implementations for eSPICE, BL and the
// random shedder live in internal/harness.
type Controller interface {
	OnDecision(dec core.Decision)
}

// Config parameterizes a simulation run.
type Config struct {
	// Rate is the arrival rate R in events per wall-clock second.
	Rate float64
	// Throughput is th: events the operator can process per second when
	// no shedding is active.
	Throughput float64
	// MembershipFactor is the average number of window memberships per
	// event in the unshed stream (measured during training). Service time
	// is Membership-proportional: an event whose memberships were all
	// shed costs almost nothing, which is how shedding relieves the
	// operator. Values <= 0 default to 1.
	MembershipFactor float64
	// Detector, when non-nil, is polled every PollPeriod of wall-clock
	// time and its decision forwarded to Controller.
	Detector *core.OverloadDetector
	// PollPeriod defaults to 10ms.
	PollPeriod event.Time
	// ShedOverheadFrac models the O(1) shedder decision cost per *shed*
	// membership as a fraction of the per-membership processing cost;
	// the lookup for kept memberships is subsumed in their processing
	// cost (Figure 10 reports the total overhead below 5%). Default 0.01.
	ShedOverheadFrac float64
	// RecordLatency enables the per-event latency trace.
	RecordLatency bool
}

func (c *Config) applyDefaults() {
	if c.MembershipFactor <= 0 {
		c.MembershipFactor = 1
	}
	if c.PollPeriod <= 0 {
		c.PollPeriod = 10 * event.Millisecond
	}
	if c.ShedOverheadFrac == 0 {
		c.ShedOverheadFrac = 0.01
	}
}

func (c *Config) validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("sim: Rate must be > 0, got %v", c.Rate)
	}
	if c.Throughput <= 0 {
		return fmt.Errorf("sim: Throughput must be > 0, got %v", c.Throughput)
	}
	if c.ShedOverheadFrac < 0 {
		return fmt.Errorf("sim: ShedOverheadFrac must be >= 0, got %v", c.ShedOverheadFrac)
	}
	return nil
}

// Result carries the outputs of a run.
type Result struct {
	Complex  []operator.ComplexEvent
	Latency  metrics.LatencyTrace
	MaxQueue int
	Served   int
	// WallEnd is the wall-clock completion time of the last event.
	WallEnd event.Time
}

// Run replays events (in stream order, event timestamps untouched) into
// the operator at cfg.Rate and returns the detected complex events plus
// queueing metrics. ctrl may be nil when no detector is configured.
func Run(cfg Config, events []event.Event, op *operator.Operator, ctrl Controller) (*Result, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if op == nil {
		return nil, fmt.Errorf("sim: operator is required")
	}
	if cfg.Detector != nil && ctrl == nil {
		return nil, fmt.Errorf("sim: detector configured without controller")
	}
	res := &Result{}
	if len(events) == 0 {
		return res, nil
	}

	perMember := 1 / (cfg.Throughput * cfg.MembershipFactor)
	overhead := cfg.ShedOverheadFrac * perMember
	pollSec := cfg.PollPeriod.Seconds()

	arrive := func(j int) float64 { return float64(j) / cfg.Rate }
	inf := math.Inf(1)

	i := 0    // next arrival index
	head := 0 // next event to serve
	serverFree := 0.0
	nextPoll := pollSec

	for head < len(events) {
		tArr := inf
		if i < len(events) {
			tArr = arrive(i)
		}
		tServe := inf
		if head < i {
			tServe = math.Max(arrive(head), serverFree)
		}
		tPoll := inf
		if cfg.Detector != nil {
			tPoll = nextPoll
		}

		switch {
		case tArr <= tServe && tArr <= tPoll:
			// Arrival: the event joins the queue.
			i++
			if q := i - head; q > res.MaxQueue {
				res.MaxQueue = q
			}
		case tPoll <= tServe:
			// Detector poll: queue length is arrived-but-unserved.
			qsize := i - head
			ws := op.ExpectedSize()
			dec := cfg.Detector.Evaluate(qsize, cfg.Rate, cfg.Throughput, ws)
			ctrl.OnDecision(dec)
			nextPoll += pollSec
		default:
			// Service: shedding decisions happen as the LS processes the
			// event out of the queue; service cost is proportional to the
			// memberships that survive.
			e := events[head]
			before := op.Stats()
			cplx := op.Process(e)
			after := op.Stats()
			kept := after.MembershipsKept - before.MembershipsKept
			shed := after.MembershipsShed - before.MembershipsShed
			dur := perMember*float64(kept) + overhead*float64(shed)
			serverFree = tServe + dur
			res.Served++
			if cfg.RecordLatency {
				lat := serverFree - arrive(head)
				res.Latency.Add(toTime(serverFree), toTime(lat))
			}
			res.Complex = append(res.Complex, cplx...)
			head++
		}
	}
	res.WallEnd = toTime(serverFree)
	res.Complex = append(res.Complex, op.Flush(events[len(events)-1].TS)...)
	return res, nil
}

func toTime(sec float64) event.Time {
	return event.Time(sec * float64(event.Second))
}

// ReplayUnshed pushes every event straight through the operator with no
// queueing model — the ground-truth and training passes. It returns all
// detected complex events.
func ReplayUnshed(events []event.Event, op *operator.Operator) ([]operator.ComplexEvent, error) {
	if op == nil {
		return nil, fmt.Errorf("sim: operator is required")
	}
	var out []operator.ComplexEvent
	for _, e := range events {
		out = append(out, op.Process(e)...)
	}
	if len(events) > 0 {
		out = append(out, op.Flush(events[len(events)-1].TS)...)
	}
	return out, nil
}
