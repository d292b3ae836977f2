package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/event"
)

func mustDetector(t *testing.T, lb event.Time, f float64) *OverloadDetector {
	t.Helper()
	d, err := NewOverloadDetector(DetectorConfig{LatencyBound: lb, F: f})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDetectorConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     DetectorConfig
		wantErr bool
	}{
		{"ok", DetectorConfig{LatencyBound: event.Second, F: 0.8}, false},
		{"zero LB", DetectorConfig{F: 0.8}, true},
		{"f zero", DetectorConfig{LatencyBound: event.Second, F: 0}, true},
		{"f one", DetectorConfig{LatencyBound: event.Second, F: 1}, true},
		{"f negative", DetectorConfig{LatencyBound: event.Second, F: -0.1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewOverloadDetector(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestQMax(t *testing.T) {
	d := mustDetector(t, event.Second, 0.8)
	// qmax = LB * th = 1s * 1000 ev/s = 1000 events.
	if got := d.QMax(1000); got != 1000 {
		t.Errorf("QMax = %v, want 1000", got)
	}
	if got := d.QMax(0); got != 0 {
		t.Errorf("QMax(0) = %v", got)
	}
	d2 := mustDetector(t, 500*event.Millisecond, 0.8)
	if got := d2.QMax(1000); got != 500 {
		t.Errorf("QMax = %v, want 500", got)
	}
}

func TestEvaluateBelowTrigger(t *testing.T) {
	d := mustDetector(t, event.Second, 0.8)
	// qmax = 1000, trigger = 800; qsize 700 -> no shedding.
	dec := d.Evaluate(700, 1200, 1000, 500)
	if dec.Overloaded {
		t.Error("below trigger must not be overloaded")
	}
	if dec.X != 0 {
		t.Errorf("X = %v, want 0", dec.X)
	}
	if dec.QMax != 1000 || dec.Trigger != 800 {
		t.Errorf("QMax/Trigger = %v/%v", dec.QMax, dec.Trigger)
	}
}

func TestEvaluateOverloaded(t *testing.T) {
	d := mustDetector(t, event.Second, 0.8)
	// R = 1200, th = 1000 -> delta = 200 extra events/s.
	// ws=500, buffer = 200 -> rho=3, psize=167.
	dec := d.Evaluate(900, 1200, 1000, 500)
	if !dec.Overloaded {
		t.Fatal("should be overloaded")
	}
	if dec.Part.Rho != 3 {
		t.Errorf("Rho = %d, want 3", dec.Part.Rho)
	}
	// delta = (R - th) + backlog correction (900-800)/1s = 300;
	// x = delta * psize/R.
	if dec.Delta != 300 {
		t.Errorf("Delta = %v, want 300", dec.Delta)
	}
	wantX := 300 * float64(dec.Part.PSize) / 1200
	if math.Abs(dec.X-wantX) > 1e-9 {
		t.Errorf("X = %v, want %v", dec.X, wantX)
	}
}

func TestEvaluateWindowFitsBuffer(t *testing.T) {
	d := mustDetector(t, event.Second, 0.8)
	// ws=150 <= buffer 200: single partition, psize = ws.
	dec := d.Evaluate(900, 1200, 1000, 150)
	if dec.Part.Rho != 1 || dec.Part.PSize != 150 {
		t.Errorf("partitioning = %+v, want single partition of 150", dec.Part)
	}
}

func TestEvaluateBurstDrain(t *testing.T) {
	// Queue above trigger but R <= th: drain backlog with a minimal x.
	d := mustDetector(t, event.Second, 0.8)
	dec := d.Evaluate(900, 1000, 1000, 100)
	if !dec.Overloaded {
		t.Fatal("above trigger must be overloaded even at R == th")
	}
	if dec.X <= 0 {
		t.Errorf("burst drain X = %v, want > 0", dec.X)
	}
	// Backlog above trigger is 100 events over LB=1s -> delta=100;
	// x = 100 * psize/R = 100 * 100/1000 = 10.
	if math.Abs(dec.X-10) > 1e-9 {
		t.Errorf("X = %v, want 10", dec.X)
	}
}

func TestEvaluateZeroThroughput(t *testing.T) {
	d := mustDetector(t, event.Second, 0.8)
	dec := d.Evaluate(900, 1200, 0, 100)
	if dec.Overloaded || dec.X != 0 {
		t.Errorf("zero throughput must disable decisions, got %+v", dec)
	}
}

func TestEvaluateZeroRateAboveTrigger(t *testing.T) {
	d := mustDetector(t, event.Second, 0.8)
	dec := d.Evaluate(900, 0, 1000, 100)
	if !dec.Overloaded {
		t.Error("still overloaded")
	}
	if dec.X != 0 {
		t.Errorf("X with zero rate = %v, want 0", dec.X)
	}
	// A draining backlog still needs (900-800)/1s dropped.
	if dec.Delta != 100 {
		t.Errorf("Delta with zero rate = %v, want 100", dec.Delta)
	}
}

// Property: at steady overload, shedding exactly x per partition removes
// the rate excess plus the backlog above the trigger within one LB:
// x * (R / psize) ≈ (R - th) + (qsize - f*qmax)/LB.
func TestDropAmountBalancesRateProperty(t *testing.T) {
	d := mustDetector(t, event.Second, 0.8)
	f := func(thRaw, overRaw, wsRaw uint16) bool {
		th := float64(thRaw%5000) + 100
		r := th * (1 + float64(overRaw%100)/100) // up to +100%
		ws := int(wsRaw%3000) + 10
		qsize := int(0.9 * d.QMax(th))
		dec := d.Evaluate(qsize, r, th, ws)
		if float64(qsize) <= dec.Trigger {
			return !dec.Overloaded
		}
		if !dec.Overloaded {
			return false
		}
		want := math.Max(0, r-th) + (float64(qsize) - dec.Trigger)
		dropPerSec := dec.X * r / float64(dec.Part.PSize)
		return math.Abs(dropPerSec-want) < 1e-6*r+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: partition size never exceeds the buffer (the constraint that
// guarantees the latency bound, Section 3.4).
func TestPartitionSizeWithinBufferProperty(t *testing.T) {
	f := func(wsRaw, qmaxRaw uint16, fRaw uint8) bool {
		ws := int(wsRaw)%5000 + 1
		qmax := float64(qmaxRaw%10000) + 10
		fv := 0.05 + float64(fRaw%90)/100
		p := ComputePartitioning(ws, qmax, fv)
		buffer := qmax - fv*qmax
		if buffer < 1 {
			buffer = 1
		}
		if p.Rho < 1 || p.PSize < 1 {
			return false
		}
		// psize <= ceil(buffer): allow the integer ceiling.
		if float64(p.PSize) > buffer+1 {
			return false
		}
		// partitions cover the window.
		return p.Rho*p.PSize >= ws
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
