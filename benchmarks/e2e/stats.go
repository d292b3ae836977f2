package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// epoch anchors every recorded timestamp: spans and samples are int64
// nanoseconds since process start, read from the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation; 0 when empty. vals is sorted in place.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	idx := p / 100 * float64(len(vals)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	return vals[lo] + (idx-float64(lo))*(vals[hi]-vals[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the acceptance check uses.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// cpuSeconds returns the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sleepFloor measures how long a short time.Sleep really takes on this
// machine (about 1.1 ms on a VM without high-resolution timers, whatever
// the argument up to 1 ms): the resolution of the paced generator.
func sleepFloor() time.Duration {
	var samples []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		samples = append(samples, float64(time.Since(t0)))
	}
	return time.Duration(median(samples))
}
