package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runChildren runs every named workload repeat times, each run in a
// process of its own (so heap and caches start equal) with seeds seed,
// seed+1, …, and prints each run's documents followed by, per workload
// and metric, the median, the quartiles and their spread as a share of
// the median. With two runs or more it also compares the medians of the
// first and the second half: a second half worse than the first by more
// than the metric's bound fails, as does a spread wider than the bound.
func runChildren(names []string, seed int64, seconds float64, trace, procs, repeat int, outDir, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	var doc bytes.Buffer
	ok := true
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < repeat; i++ {
			cmd := exec.Command(self,
				"-workload", name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-procs", strconv.Itoa(procs), "-outdir", outDir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			lines := lastLines(stdout, 2)
			for _, l := range lines {
				fmt.Println(l)
				doc.WriteString(l + "\n")
			}
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", name, seed+int64(i), err)
			}
			var res result
			if len(lines) < 2 || json.Unmarshal([]byte(lines[1]), &res) != nil {
				return false, fmt.Errorf("%s seed %d: no result line", name, seed+int64(i))
			}
			ok = ok && res.Correct
			for metric, v := range res.Metrics {
				values[metric] = append(values[metric], v.Value)
			}
		}
		if repeat > 1 && !summarize(name, trace, values) {
			ok = false
		}
	}
	if out != "" {
		if err := os.WriteFile(out, doc.Bytes(), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// summarize prints the spread table of one workload and reports whether
// every bounded metric repeats within its bound.
func summarize(name string, trace int, values map[string][]float64) bool {
	ok := true
	fmt.Printf("%-16s %-38s %12s %12s %12s %8s %8s\n", name, "metric", "q1", "median", "q3", "spread", "halves")
	for _, sp := range specsFor(trace != 0) {
		v := values[sp.Name]
		q1, q2, q3 := quartiles(v)
		spread, drift := 0.0, 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		if a := median(append([]float64(nil), v[:len(v)/2]...)); a != 0 {
			b := median(append([]float64(nil), v[len(v)/2:]...))
			drift = (b - a) / a // positive: the second half reads higher
			if sp.Better == "higher" {
				drift = -drift
			}
		}
		verdict := ""
		if sp.Bound > 0 && (drift > sp.Bound || (spread > sp.Bound && sp.Name != "setup_s")) {
			verdict = "  OUT OF BOUND"
			ok = false
		}
		fmt.Printf("%-16s %-38s %12.5g %12.5g %12.5g %7.1f%% %+7.1f%%%s\n", "", sp.Name, q1, q2, q3, 100*spread, 100*drift, verdict)
	}
	return ok
}

// lastLines returns the last n non-empty lines of b.
func lastLines(b []byte, n int) []string {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	return lines[max(0, len(lines)-n):]
}
