// Command espice-loadgen is the deterministic seeded load generator for
// espice-serve: it regenerates the same synthetic dataset the server
// derived its registry from (same -seconds/-seed flags), tiles it to
// the requested event budget, and replays it at a target rate over N
// concurrent binary-framed connections. Event content is fully
// determined by the seed; only the pacing is wall-clock.
//
// The report covers both sides of the wire: the client ledger (events
// sent/accepted, flush latencies — the time a batch takes to be framed
// and queued on its connection, credit wait included — credit-wait time,
// the client-visible shape of server backpressure, and frames per socket
// write) and, when the server exposes its stats
// document, the server-side kept/shed/latency counters. With -json the
// summary is written as a machine-readable artifact (CI uploads it next
// to BENCH_results.json).
//
// -selftest spins up an in-process espice-serve-equivalent on loopback
// first, so the whole wire path can be exercised by one command with no
// external server — that is what CI runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/datasets"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// loadgenOpts bundles the command-line parameters.
type loadgenOpts struct {
	addr     string
	seconds  int
	seed     int64
	events   int
	rate     float64
	conns    int
	batch    int
	jsonOut  string
	selftest bool
	session  uint64
	ledger   bool
	token    string
}

func main() {
	log.SetFlags(0)
	opts := loadgenOpts{}
	flag.StringVar(&opts.addr, "addr", "127.0.0.1:7071", "espice-serve address")
	flag.IntVar(&opts.seconds, "seconds", 900, "seconds of synthetic RTLS data (must match the server)")
	flag.Int64Var(&opts.seed, "seed", 1, "generator seed (must match the server)")
	flag.IntVar(&opts.events, "events", 500000, "total events to send, tiling the dataset as needed")
	flag.Float64Var(&opts.rate, "rate", 100000, "target total event rate (events/s, 0 = as fast as credit allows)")
	flag.IntVar(&opts.conns, "conns", 4, "concurrent connections")
	flag.IntVar(&opts.batch, "batch", 256, "client flush threshold in events")
	flag.StringVar(&opts.jsonOut, "json", "", "write the machine-readable summary to this file")
	flag.BoolVar(&opts.selftest, "selftest", false,
		"serve an in-process pipeline on loopback and drive it (ignores -addr)")
	flag.Uint64Var(&opts.session, "session", 0,
		"durable delivery: connection i uses session id session+i (0 = plain at-most-once; needs a -wal server)")
	flag.BoolVar(&opts.ledger, "ledger", false,
		"print the producer ledger fingerprint (count/sum/xor of sent event seqs) to compare against the server's")
	flag.StringVar(&opts.token, "token", "",
		"tenant token presented on every connection (needs a server with -tenants)")
	flag.Parse()

	if err := run(opts, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// summary is the machine-readable result document (-json artifact).
type summary struct {
	Events       int                    `json:"events"`
	Conns        int                    `json:"conns"`
	TargetRate   float64                `json:"target_rate"`
	AchievedRate float64                `json:"achieved_rate"`
	WallSeconds  float64                `json:"wall_seconds"`
	Sent         uint64                 `json:"sent"`
	Accepted     uint64                 `json:"accepted"`
	Frames       uint64                 `json:"frames"`
	Writes       uint64                 `json:"writes"`
	Redials      uint64                 `json:"redials"`
	Retransmits  uint64                 `json:"retransmits,omitempty"`
	CreditWaitMS float64                `json:"credit_wait_ms"`
	FlushLatency metrics.LatencySummary `json:"flush_latency"`
	Ledger       *ledgerSummary         `json:"ledger,omitempty"`
	ServerStats  json.RawMessage        `json:"server_stats,omitempty"`
	Chaos        *chaosSummary          `json:"chaos,omitempty"`
	Scaling      *scalingSummary        `json:"scaling,omitempty"`
	Tenants      []tenantSummary        `json:"tenants,omitempty"`
}

// chaosSummary lifts the server's fault-containment counters out of the
// stats document into the artifact's top level, so a CI run's graceful
// degradation (quarantined queries, lossy episodes, evicted
// connections) is visible without digging through server_stats.
type chaosSummary struct {
	Quarantines     uint64  `json:"quarantines"`
	DegradedSeconds float64 `json:"degraded_seconds"`
	EvictedConns    uint64  `json:"evicted_conns"`
	PanicsRecovered uint64  `json:"panics_recovered"`
}

// liftChaos extracts the chaos section from the server stats document
// (nil when the document is missing or does not carry one).
func liftChaos(doc []byte) *chaosSummary {
	if doc == nil {
		return nil
	}
	var probe struct {
		Chaos *chaosSummary `json:"chaos"`
	}
	if err := json.Unmarshal(doc, &probe); err != nil {
		return nil
	}
	return probe.Chaos
}

// scalingSummary lifts the server's skew-aware scale-out counters — the
// partitioner's live occupancy estimate and the per-shard backlog — out
// of the stats document into the artifact's top level, so a CI run
// shows at a glance whether a skewed stream was balanced across shards
// or pinned to one.
type scalingSummary struct {
	Occupancy    int64 `json:"occupancy"`
	ShardBacklog []int `json:"shard_backlog,omitempty"`
}

// liftScaling extracts the scale-out counters from the server stats
// document (nil when the document is missing or reports no sharding).
func liftScaling(doc []byte) *scalingSummary {
	if doc == nil {
		return nil
	}
	var probe scalingSummary
	if err := json.Unmarshal(doc, &probe); err != nil {
		return nil
	}
	if probe.Occupancy == 0 && len(probe.ShardBacklog) == 0 {
		return nil
	}
	return &probe
}

// tenantSummary lifts the server's per-tenant admission and shedding
// counters out of the stats document into the artifact's top level:
// what each tenant got in (events, throttling), how its ingress
// measured against quota, and what the utility shedder took from it.
// The fairness soak's CI artifact shows the noisy/compliant split
// without digging through server_stats.
type tenantSummary struct {
	Name             string  `json:"name"`
	Events           uint64  `json:"events"`
	ThrottledBatches uint64  `json:"throttled_batches"`
	ThrottleWaitMS   float64 `json:"throttle_wait_ms"`
	Submitted        uint64  `json:"submitted"`
	InputRate        float64 `json:"input_rate"`
	QuotaRate        float64 `json:"quota_rate"`
	DropShare        float64 `json:"drop_share"`
	Delivered        uint64  `json:"delivered"`
	Kept             uint64  `json:"kept"`
	Shed             uint64  `json:"shed"`
	ComplexEvents    uint64  `json:"complex_events"`
}

// liftTenants extracts the per-tenant counters from the server stats
// document (nil when the document is missing or the server runs
// single-tenant).
func liftTenants(doc []byte) []tenantSummary {
	if doc == nil {
		return nil
	}
	var probe struct {
		Tenants []tenantSummary `json:"tenants"`
	}
	if err := json.Unmarshal(doc, &probe); err != nil {
		return nil
	}
	return probe.Tenants
}

// ledgerSummary fingerprints the events this generator handed to
// SubmitBatch, order-independently, in the same shape espice-serve
// reports its delivery ledger: equal fingerprints on a drained durable
// run mean every sent event was delivered exactly once.
type ledgerSummary struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Xor   uint64 `json:"xor"`
}

func (l *ledgerSummary) add(events []event.Event) {
	for i := range events {
		l.Count++
		l.Sum += events[i].Seq
		l.Xor ^= events[i].Seq
	}
}

func (l *ledgerSummary) merge(o ledgerSummary) {
	l.Count += o.Count
	l.Sum += o.Sum
	l.Xor ^= o.Xor
}

// run drives the whole load generation and reporting; factored from
// main for tests.
func run(opts loadgenOpts, w io.Writer) error {
	if opts.conns < 1 {
		opts.conns = 1
	}
	meta, events, err := datasets.GenerateRTLS(datasets.RTLSConfig{
		DurationSec: opts.seconds, Seed: opts.seed,
	})
	if err != nil {
		return err
	}
	addr := opts.addr
	if opts.selftest {
		stop, selfAddr, err := startSelftestServer(meta)
		if err != nil {
			return err
		}
		defer stop()
		addr = selfAddr
		fmt.Fprintf(w, "selftest server on %s\n", addr)
	}

	fmt.Fprintf(w, "replaying %d events over %d conns at %.0f ev/s (dataset: %d events, seed %d)\n",
		opts.events, opts.conns, opts.rate, len(events), opts.seed)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		flushes metrics.LatencyTrace
		total   transport.ClientStats
		ledger  ledgerSummary
		firstE  error
		doc     []byte
	)
	perConn := opts.events / opts.conns
	perRate := opts.rate / float64(opts.conns)
	start := time.Now()
	for ci := 0; ci < opts.conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			extra := 0
			if ci == 0 {
				extra = opts.events - perConn*opts.conns
			}
			session := uint64(0)
			if opts.session != 0 {
				session = opts.session + uint64(ci)
			}
			st, trace, led, sdoc, err := driveConn(addr, events, ci, perConn+extra, perRate, opts.batch, session, opts.token, ci == 0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstE == nil {
				firstE = fmt.Errorf("conn %d: %w", ci, err)
				return
			}
			total.Sent += st.Sent
			total.Accepted += st.Accepted
			total.Flushes += st.Flushes
			total.Writes += st.Writes
			total.Redials += st.Redials
			total.Retransmits += st.Retransmits
			total.CreditWait += st.CreditWait
			ledger.merge(led)
			flushes.Merge(trace)
			if sdoc != nil {
				doc = sdoc
			}
		}(ci)
	}
	wg.Wait()
	if firstE != nil {
		return firstE
	}
	wall := time.Since(start)

	sum := summary{
		Events:       opts.events,
		Conns:        opts.conns,
		TargetRate:   opts.rate,
		AchievedRate: float64(total.Sent) / wall.Seconds(),
		WallSeconds:  wall.Seconds(),
		Sent:         total.Sent,
		Accepted:     total.Accepted,
		Frames:       total.Flushes,
		Writes:       total.Writes,
		Redials:      total.Redials,
		Retransmits:  total.Retransmits,
		CreditWaitMS: float64(total.CreditWait.Milliseconds()),
		FlushLatency: flushes.Summary(),
		ServerStats:  doc,
		Chaos:        liftChaos(doc),
		Scaling:      liftScaling(doc),
		Tenants:      liftTenants(doc),
	}
	if opts.ledger {
		sum.Ledger = &ledger
	}
	if sum.TargetRate > 0 {
		fmt.Fprintf(w, "sent %d, accepted %d (%.1f%% of target rate, %.2fs wall)\n",
			sum.Sent, sum.Accepted, 100*sum.AchievedRate/sum.TargetRate, sum.WallSeconds)
	} else {
		fmt.Fprintf(w, "sent %d, accepted %d (%.0f ev/s, %.2fs wall)\n",
			sum.Sent, sum.Accepted, sum.AchievedRate, sum.WallSeconds)
	}
	fmt.Fprintf(w, "flush latency: mean %.1fms p95 %.1fms max %.1fms; credit wait %.0fms total; %d frames in %d writes\n",
		sum.FlushLatency.MeanUS/1000, sum.FlushLatency.P95US/1000, sum.FlushLatency.MaxUS/1000,
		sum.CreditWaitMS, sum.Frames, sum.Writes)
	if sum.Ledger != nil {
		fmt.Fprintf(w, "ledger: count %d sum %d xor %d (retransmits %d)\n",
			sum.Ledger.Count, sum.Ledger.Sum, sum.Ledger.Xor, sum.Retransmits)
	}
	for _, tn := range sum.Tenants {
		fmt.Fprintf(w, "tenant %s: events %d submitted %d throttled %d (%.0fms wait), rate %.0f/%.0f ev/s, kept %d shed %d\n",
			tn.Name, tn.Events, tn.Submitted, tn.ThrottledBatches, tn.ThrottleWaitMS,
			tn.InputRate, tn.QuotaRate, tn.Kept, tn.Shed)
	}
	if doc != nil {
		fmt.Fprintf(w, "server: %s\n", doc)
	}
	if opts.jsonOut != "" {
		blob, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.jsonOut, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "summary written to %s\n", opts.jsonOut)
	}
	return nil
}

// driveConn replays total events (tiling the base stream, sequence
// numbers rewritten to stay unique across connections) at the target
// per-connection rate, recording per-batch submit latencies and the
// producer ledger. A non-zero session opts into durable effectively-once
// delivery; a non-empty token presents a tenant identity. The stats
// requester additionally fetches the server's stats document before
// closing.
func driveConn(addr string, base []event.Event, ci, total int, rate float64, batch int, session uint64, token string, wantStats bool) (transport.ClientStats, *metrics.LatencyTrace, ledgerSummary, []byte, error) {
	trace := &metrics.LatencyTrace{}
	var led ledgerSummary
	c, err := transport.Dial(transport.ClientConfig{
		Addr:        addr,
		BatchEvents: batch,
		Reconnect:   true,
		Session:     session,
		Token:       token,
		Logf:        log.Printf,
	})
	if err != nil {
		return transport.ClientStats{}, trace, led, nil, err
	}
	buf := make([]event.Event, 0, batch)
	sent := 0
	seq := uint64(ci) << 40 // disjoint per-connection sequence ranges
	start := time.Now()
	interval := time.Duration(0)
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		t0 := time.Now()
		if err := c.SubmitBatch(buf); err != nil {
			return err
		}
		// A full batch crosses the client's threshold and is queued by
		// SubmitBatch; Flush is a write barrier, so only the final
		// partial batch, which nothing else would frame, gets one.
		if len(buf) < batch {
			if err := c.Flush(); err != nil {
				return err
			}
		}
		trace.Add(event.Time(t0.UnixMicro()), event.Time(time.Since(t0).Microseconds()))
		led.add(buf)
		buf = buf[:0]
		return nil
	}
	for sent < total {
		for _, ev := range base {
			if sent == total {
				break
			}
			ev.Seq = seq
			seq++
			buf = append(buf, ev)
			sent++
			if len(buf) == batch {
				if interval > 0 {
					if d := time.Until(start.Add(time.Duration(sent) * interval)); d > 0 {
						time.Sleep(d)
					}
				}
				if err := flush(); err != nil {
					return c.Stats(), trace, led, nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return c.Stats(), trace, led, nil, err
	}
	var doc []byte
	if wantStats {
		doc, err = c.ServerStats()
		if err != nil {
			return c.Stats(), trace, led, nil, err
		}
	}
	st, err := c.Close()
	return st, trace, led, doc, err
}

// startSelftestServer assembles a loopback espice-serve equivalent — a
// 2-shard Q1 pipeline behind a transport server — and returns its
// teardown and address.
func startSelftestServer(meta *datasets.RTLSMeta) (stop func(), addr string, err error) {
	query, err := queries.Q1(meta, 3, pattern.SelectFirst, 15)
	if err != nil {
		return nil, "", err
	}
	pipe, err := runtime.New(runtime.Config{
		Operator:           operator.Config{Window: query.Window, Patterns: query.Patterns},
		Shards:             2,
		LatencySampleEvery: 256,
	})
	if err != nil {
		return nil, "", err
	}
	runDone := make(chan error, 1)
	go func() { runDone <- pipe.Run(context.Background()) }()
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for range pipe.Out() {
		}
	}()
	srv, err := transport.NewServer(transport.ServerConfig{
		Sink:     pipe,
		Registry: meta.Registry,
		StatsJSON: func() []byte {
			doc, merr := json.Marshal(map[string]any{
				"stats":   pipe.Stats(),
				"latency": pipe.Latency().Summary(),
			})
			if merr != nil {
				return []byte("{}")
			}
			return doc
		},
	})
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	stop = func() {
		srv.Close()
		<-serveDone
		pipe.CloseInput()
		<-runDone
		<-collected
	}
	return stop, ln.Addr().String(), nil
}
