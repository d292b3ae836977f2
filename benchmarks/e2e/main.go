// Command e2e is the repository's benchmark: it drives a seeded event
// stream through the deployed stack over loopback TCP — transport
// client, server, optional write-ahead log, pipeline or engine, one
// collector per output channel — and reports end-to-end metrics
// (-trace 0) or per-layer metrics from a traced run plus isolated
// passes over each layer (-trace 1). See ../README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is printed on the line before the result: what was run, on
// what machine, how many samples stand behind each metric, and every
// validity warning or failed check.
type detail struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Machine  machine        `json:"machine"`
	Samples  map[string]int `json:"samples"`
	Notes    []string       `json:"notes"`
}

// machine is the shape of the box the numbers were taken on.
type machine struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Transport  string `json:"transport"`
	OutDirFS   string `json:"out_dir_fs"`
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 20, "measured seconds per run, split between the saturation and the paced leg")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and isolated passes")
		procs        = flag.Int("procs", 2, "GOMAXPROCS")
		repeat       = flag.Int("repeat", 1, "run this many times with consecutive seeds and print median and quartiles per metric")
		out          = flag.String("out", "", "also write the printed documents to this file")
		outDir       = flag.String("outdir", "", "directory for journal files and span files (default: benchmarks/out)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *outDir == "" {
		*outDir = defaultOutDir()
	}
	if *repeat > 1 || *workloadName == "all" {
		names := []string{*workloadName}
		if *workloadName == "all" {
			names = nil
			for _, w := range workloadSpecs {
				names = append(names, w.Name)
			}
		}
		ok, err := runChildren(names, *seed, *seconds, *trace, *procs, *repeat, *outDir, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	goruntime.GOMAXPROCS(*procs)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	cleanStale(*outDir)
	rep, err := runWorkload(options{workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir})
	if err != nil {
		fatal(err)
	}
	d := detail{
		Workload: rep.Workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		Machine: machineShape(*outDir), Samples: map[string]int{}, Notes: rep.Notes,
	}
	if d.Machine.OutDirFS == "tmpfs" {
		d.Notes = append(d.Notes, "journal directory is on tmpfs: fsync is free there, wire_durable measures only the CPU path")
	}
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, sp := range specsFor(*trace != 0) {
		v, measured := rep.Metrics.vals[sp.Name]
		if !measured && *trace == 0 {
			fatal(fmt.Errorf("%s: end-to-end metric %s was not measured: %s", rep.Workload, sp.Name, strings.Join(rep.Notes, "; ")))
		}
		res.Metrics[sp.Name] = metricValue{v, sp.Unit}
		d.Samples[sp.Name] = rep.Metrics.samples[sp.Name]
	}
	for _, n := range d.Notes {
		fmt.Fprintln(os.Stderr, n)
	}
	dline, _ := json.Marshal(d)
	rline, _ := json.Marshal(res)
	if *out != "" {
		if err := os.WriteFile(*out, append(append(dline, '\n'), append(rline, '\n')...), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%s\n%s\n", dline, rline)
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(2)
}

// defaultOutDir is benchmarks/out of the checkout the benchmark runs
// in: found from the BENCHMARK.json above the working directory.
func defaultOutDir() string {
	wd, err := os.Getwd()
	if err != nil {
		return "out"
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Join(dir, "benchmarks", "out")
		}
		if dir == filepath.Dir(dir) {
			return filepath.Join(wd, "out")
		}
	}
}

func machineShape(outDir string) machine {
	sha := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = string(bytes.TrimSpace(b))
	}
	return machine{
		NumCPU:     goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion:  goruntime.Version(),
		GitSHA:     sha,
		Transport:  "tcp 127.0.0.1 (loopback), client and server in one process",
		OutDirFS:   fsType(outDir),
	}
}
