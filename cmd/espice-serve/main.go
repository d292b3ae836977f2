// Command espice-serve is the networked ingest deployment of the live
// eSPICE pipeline: it listens on TCP, accepts primitive events in the
// binary framing or as NDJSON lines (see docs/wire.md), and feeds them
// into a sharded runtime.Pipeline — or, with -queries, into the
// multi-query engine — with load shedding driven by the overload
// detector. Backpressure reaches clients through per-connection credit
// windows, so an overloaded server sheds by utility instead of
// buffering without bound.
//
// The event-type registry is derived deterministically from the dataset
// flags (-seconds, -seed), exactly as cmd/espice-loadgen derives it, so
// a loadgen started with the same flags speaks the same type ids.
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
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/tesla"
	"repro/internal/transport"
	"repro/internal/wal"
)

// serveOpts bundles the command-line parameters so the whole server is
// constructable from tests.
type serveOpts struct {
	addr    string
	seconds int
	seed    int64
	n       int
	winSec  int
	shards  int
	shedder string
	bound   time.Duration
	f       float64
	delay   time.Duration
	queries string
	tenants string
	credit  int
	latEvry int
	report  time.Duration

	walDir     string
	walSegment int
	walRelease time.Duration
	sessExpiry time.Duration
	walPolicy  string

	shutdownTimeout time.Duration

	// Test-only seams (no flags): inject the WAL filesystem and probe
	// cadence (chaos soak drives fsync faults through harness.FaultFS),
	// and per-query window-close hooks in engine mode.
	walFS      wal.FS
	walProbe   time.Duration
	queryHooks map[string]operator.WindowCloseHook
}

func main() {
	log.SetFlags(0)
	opts := serveOpts{}
	flag.StringVar(&opts.addr, "addr", ":7071", "listen address")
	flag.IntVar(&opts.seconds, "seconds", 900, "seconds of synthetic RTLS data for registry + training")
	flag.Int64Var(&opts.seed, "seed", 1, "generator seed (must match the load generator)")
	flag.IntVar(&opts.n, "n", 4, "Q1 pattern size")
	flag.IntVar(&opts.winSec, "window-sec", 15, "Q1 window length in seconds")
	flag.IntVar(&opts.shards, "shards", 1, "parallel operator instances")
	flag.StringVar(&opts.shedder, "shedder", "espice", "shedder: espice or none")
	flag.DurationVar(&opts.bound, "bound", 500*time.Millisecond, "latency bound LB")
	flag.Float64Var(&opts.f, "f", 0.7, "shedding trigger fraction f")
	flag.DurationVar(&opts.delay, "delay", 0, "artificial processing cost per kept membership")
	flag.StringVar(&opts.queries, "queries", "",
		"multi-query mode: file of Tesla-text define blocks served side by side on the engine")
	flag.StringVar(&opts.tenants, "tenants", "",
		"multi-tenant mode: JSON file of tenant specs (name/token/window/rate/burst/weight/queries; see docs/wire.md) enabling the tenant handshake, per-tenant quotas and tenant-aware shedding")
	flag.IntVar(&opts.credit, "credit", transport.DefaultWindow, "per-connection credit window in events")
	flag.IntVar(&opts.latEvry, "latency-sample", 256, "record 1 in N end-to-end latency samples")
	flag.DurationVar(&opts.report, "report", 10*time.Second, "stderr stats interval (0 disables)")
	flag.StringVar(&opts.walDir, "wal", "",
		"write-ahead log directory: journal acked batches and replay them on restart (see docs/wal.md)")
	flag.IntVar(&opts.walSegment, "wal-segment", wal.DefaultSegmentSize, "WAL segment size in bytes")
	flag.DurationVar(&opts.walRelease, "wal-release", 0,
		"recycle WAL segments whose events are older than this (0 keeps everything until clean shutdown; must exceed the window length)")
	flag.DurationVar(&opts.sessExpiry, "session-expiry", 0,
		"drop a durable session's dedup state after this long without a connection, unpinning its WAL records for -wal-release (0 keeps sessions for the server lifetime; see docs/wal.md)")
	flag.StringVar(&opts.walPolicy, "wal-policy", "fail-stop",
		"WAL failure policy: fail-stop (a storage fault poisons the log and drops producers) or degrade-lossy (accept at-most-once with FlagDegraded acks until a probe restores the log; see docs/wal.md)")
	flag.DurationVar(&opts.shutdownTimeout, "shutdown-timeout", 0,
		"bound the connection drain on shutdown: open connections get this long to finish before their deadlines cut them off (0 closes immediately)")
	flag.Parse()

	app, err := buildServe(opts)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := app.run(ctx, ln, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// tenantSpec is one entry of the -tenants JSON file: the tenant's
// identity and token, its transport-level quota (aggregate credit
// window, sustained rate, burst depth), its engine-level budget policy
// (entitled rate doubles as the quota rate; weight shields its queries
// in the budget split), and the names of the queries scoped to it.
type tenantSpec struct {
	Name    string   `json:"name"`
	Token   string   `json:"token"`
	Window  int      `json:"window,omitempty"`
	Rate    float64  `json:"rate,omitempty"`
	Burst   float64  `json:"burst,omitempty"`
	Weight  float64  `json:"weight,omitempty"`
	Queries []string `json:"queries,omitempty"`
}

// loadTenants parses a -tenants file: a JSON array of tenantSpec.
func loadTenants(path string) ([]tenantSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []tenantSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("espice-serve: tenants %s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		if sp.Name == "" || sp.Token == "" {
			return nil, fmt.Errorf("espice-serve: tenants %s: every entry needs a name and a token", path)
		}
		if seen[sp.Name] || seen["tok:"+sp.Token] {
			return nil, fmt.Errorf("espice-serve: tenants %s: duplicate name or token %q", path, sp.Name)
		}
		seen[sp.Name] = true
		seen["tok:"+sp.Token] = true
	}
	return specs, nil
}

// authenticator builds the transport token check from the tenant specs:
// a known token resolves to its tenant and quota, no token resolves to
// the anonymous tenant (plain version-1 connections keep working), and
// an unknown token is rejected.
func authenticator(specs []tenantSpec) func(token []byte) (transport.TenantAuth, error) {
	byToken := make(map[string]transport.TenantAuth, len(specs))
	for _, sp := range specs {
		byToken[sp.Token] = transport.TenantAuth{
			Tenant: sp.Name,
			Quota: transport.TenantQuota{
				Window: sp.Window,
				Rate:   sp.Rate,
				Burst:  sp.Burst,
			},
		}
	}
	return func(token []byte) (transport.TenantAuth, error) {
		if len(token) == 0 {
			return transport.TenantAuth{}, nil // anonymous tenant
		}
		auth, ok := byToken[string(token)]
		if !ok {
			return transport.TenantAuth{}, fmt.Errorf("unknown tenant token")
		}
		return auth, nil
	}
}

// serveApp is a fully assembled ingest deployment: transport server in
// front of either a pipeline or an engine, optionally journaling
// through a write-ahead log.
type serveApp struct {
	opts     serveOpts
	srv      *transport.Server
	registry *event.Registry
	sink     transport.Sink

	// Set when opts.tenants is non-empty.
	tenantSpecs []tenantSpec
	queryTenant map[string]string // query name -> scoping tenant

	// Exactly one of pipe/eng is set.
	pipe    *runtime.Pipeline
	eng     *engine.Engine
	handles []*engine.Query

	// Set when opts.walDir is non-empty.
	wal             *journalTracker
	ledger          *ledgerSink
	walRecovery     wal.Recovery
	walRecoveryTime time.Duration

	complexEvents atomic.Uint64
}

// buildServe assembles the deployment described by opts: generate the
// dataset (registry + training data), train the model(s) when shedding
// is on, and wire pipeline/engine, shedders, detector and transport
// server together.
func buildServe(opts serveOpts) (*serveApp, error) {
	if opts.shards < 1 {
		opts.shards = 1
	}
	if opts.shedder != "espice" && opts.shedder != "none" {
		return nil, fmt.Errorf("espice-serve: shedder must be espice or none, got %q", opts.shedder)
	}
	meta, events, err := datasets.GenerateRTLS(datasets.RTLSConfig{
		DurationSec: opts.seconds, Seed: opts.seed,
	})
	if err != nil {
		return nil, err
	}
	app := &serveApp{opts: opts, queryTenant: map[string]string{}}
	if opts.tenants != "" {
		app.tenantSpecs, err = loadTenants(opts.tenants)
		if err != nil {
			return nil, err
		}
		for _, sp := range app.tenantSpecs {
			for _, qn := range sp.Queries {
				app.queryTenant[qn] = sp.Name
			}
		}
	}
	if opts.queries != "" {
		if err := app.buildEngine(meta, events); err != nil {
			return nil, err
		}
	} else {
		if len(app.queryTenant) > 0 {
			return nil, fmt.Errorf("espice-serve: tenant query scoping requires -queries (engine mode)")
		}
		if err := app.buildPipeline(meta, events); err != nil {
			return nil, err
		}
	}
	var sink transport.Sink = app.pipe
	if app.eng != nil {
		sink = app.eng
	}
	app.registry = meta.Registry
	cfg := transport.ServerConfig{
		Sink:      sink,
		Registry:  meta.Registry,
		Window:    opts.credit,
		StatsJSON: app.statsJSON,
		Logf:      log.Printf,
	}
	if len(app.tenantSpecs) > 0 {
		cfg.Authenticate = authenticator(app.tenantSpecs)
	}
	if opts.walDir != "" {
		// The ledger sits between the transport and the operator so the
		// kill-resilience harness can audit exactly what this process
		// lifetime delivered (replayed + live).
		app.ledger = &ledgerSink{inner: sink}
		sink = app.ledger
		cfg.Sink = sink
		policy := wal.FailStop
		if opts.walPolicy != "" {
			policy, err = wal.ParseFailurePolicy(opts.walPolicy)
			if err != nil {
				return nil, fmt.Errorf("espice-serve: %w", err)
			}
		}
		wlog, err := wal.Open(wal.Config{
			Dir:           opts.walDir,
			FS:            opts.walFS,
			SegmentSize:   opts.walSegment,
			Logf:          log.Printf,
			FailurePolicy: policy,
			ProbeInterval: opts.walProbe,
		})
		if err != nil {
			return nil, err
		}
		app.wal = newJournalTracker(wlog)
		cfg.Journal = app.wal
	}
	app.sink = sink
	srv, err := transport.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	app.srv = srv
	return app, nil
}

// buildPipeline assembles the single-query (Q1) deployment.
func (app *serveApp) buildPipeline(meta *datasets.RTLSMeta, events []event.Event) error {
	opts := app.opts
	query, err := queries.Q1(meta, opts.n, pattern.SelectFirst, opts.winSec)
	if err != nil {
		return err
	}
	cfg := runtime.Config{
		Operator: operator.Config{
			Window:   query.Window,
			Patterns: query.Patterns,
		},
		EstimateRates:      true,
		PollInterval:       5 * time.Millisecond,
		ProcessingDelay:    opts.delay,
		Shards:             opts.shards,
		LatencySampleEvery: opts.latEvry,
	}
	if opts.shedder == "espice" {
		tr, err := harness.Train(query, events, 0, 0)
		if err != nil {
			return err
		}
		shedder, err := core.NewShedder(tr.Model)
		if err != nil {
			return err
		}
		det, err := core.NewOverloadDetector(core.DetectorConfig{
			LatencyBound: event.Time(opts.bound.Microseconds()),
			F:            opts.f,
		})
		if err != nil {
			return err
		}
		cfg.Operator.Shedder = shedder
		cfg.Detector = det
		cfg.Controller = harness.ESPICEController{S: shedder}
	}
	pipe, err := runtime.New(cfg)
	if err != nil {
		return err
	}
	app.pipe = pipe
	return nil
}

// buildEngine assembles the multi-query deployment from a Tesla file:
// each query is trained on its filtered view of the generated stream
// and registered under the engine's global shedding budget.
func (app *serveApp) buildEngine(meta *datasets.RTLSMeta, events []event.Event) error {
	opts := app.opts
	src, err := os.ReadFile(opts.queries)
	if err != nil {
		return err
	}
	qs, err := tesla.ParseMulti(string(src), tesla.Env{Registry: meta.Registry, Schema: meta.Schema})
	if err != nil {
		return err
	}
	ecfg := engine.Config{PollInterval: 5 * time.Millisecond, Logf: log.Printf}
	if opts.shedder == "espice" {
		ecfg.LatencyBound = event.Time(opts.bound.Microseconds())
		ecfg.F = opts.f
	}
	if len(app.tenantSpecs) > 0 {
		ecfg.Tenants = map[string]engine.TenantQuota{}
		for _, sp := range app.tenantSpecs {
			ecfg.Tenants[sp.Name] = engine.TenantQuota{Rate: sp.Rate, Weight: sp.Weight}
		}
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		return err
	}
	known := map[string]bool{}
	for _, q := range qs {
		known[q.Name] = true
	}
	for qn := range app.queryTenant {
		if !known[qn] {
			return fmt.Errorf("espice-serve: tenant query %q not defined in %s", qn, opts.queries)
		}
	}
	for _, q := range qs {
		qcfg := engine.QueryConfig{
			Query:           q,
			Shards:          opts.shards,
			ProcessingDelay: opts.delay,
			OnWindowClose:   opts.queryHooks[q.Name],
			Tenant:          app.queryTenant[q.Name],
		}
		if opts.shedder == "espice" {
			ftrain := engine.FilterStream(q, events)
			if len(ftrain) == 0 {
				return fmt.Errorf("espice-serve: query %s: filter leaves no training events", q.Name)
			}
			tr, err := harness.Train(q, ftrain, 0, 0)
			if err != nil {
				return fmt.Errorf("espice-serve: query %s: %w", q.Name, err)
			}
			qcfg.Model = tr.Model
		}
		h, err := eng.Register(qcfg)
		if err != nil {
			return err
		}
		app.handles = append(app.handles, h)
	}
	app.eng = eng
	return nil
}

// run serves on ln until ctx is canceled, then drains in order:
// transport first (no new events), then the stream (pipelines flush
// their windows), then the output collectors. It is the blocking body
// of main, factored for tests.
func (app *serveApp) run(ctx context.Context, ln net.Listener, w io.Writer) error {
	runDone := make(chan error, 1)
	collected := make(chan struct{})
	if app.pipe != nil {
		go func() { runDone <- app.pipe.Run(context.Background()) }()
		go func() {
			defer close(collected)
			for range app.pipe.Out() {
				app.complexEvents.Add(1)
			}
		}()
	} else {
		go func() { runDone <- app.eng.Run(context.Background()) }()
		// One collector per query: a sequential drain would stop reading
		// the other queries' channels, and a query whose output channel
		// fills stalls its pipeline — which backpressures the whole engine
		// and wedges ingestion.
		var wg sync.WaitGroup
		for _, h := range app.handles {
			wg.Add(1)
			go func(h *engine.Query) {
				defer wg.Done()
				for range h.Out() {
					app.complexEvents.Add(1)
				}
			}(h)
		}
		go func() {
			defer close(collected)
			wg.Wait()
		}()
	}

	// Replay the write-ahead log through the normal sink path before a
	// single connection is accepted: recovered batches re-enter the
	// stream, and the per-session dedup watermarks are seeded so
	// reconnecting producers retransmit safely.
	if app.wal != nil {
		if err := app.recoverWAL(w); err != nil {
			ln.Close()
			if app.pipe != nil {
				app.pipe.CloseInput()
			} else {
				app.eng.CloseInput()
			}
			<-runDone
			<-collected
			return fmt.Errorf("espice-serve: wal recovery: %w", err)
		}
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- app.srv.Serve(ln) }()
	fmt.Fprintf(w, "espice-serve: listening on %s (%s)\n", ln.Addr(), app.mode())

	var ticker *time.Ticker
	var tick <-chan time.Time
	if app.opts.report > 0 {
		ticker = time.NewTicker(app.opts.report)
		tick = ticker.C
		defer ticker.Stop()
	}
	// Drain order matters: close the wire, seal the stream, wait for
	// the windows to flush, then read the last output. Both exits — the
	// signal and a fatal listener error — route through it, so the run
	// and collector goroutines never leak.
	drain := func() error {
		// A bounded shutdown lets in-flight connections finish inside the
		// timeout, with every re-armed read/write deadline capped by the
		// drain deadline; zero falls back to immediate close.
		if err := app.srv.Shutdown(app.opts.shutdownTimeout); err != nil {
			fmt.Fprintf(w, "espice-serve: close: %v\n", err)
		}
		if app.pipe != nil {
			app.pipe.CloseInput()
		} else {
			app.eng.CloseInput()
		}
		err := <-runDone
		<-collected
		// A clean drain absorbed every journaled record and closed every
		// window, so the whole log is releasable: a clean restart replays
		// nothing.
		if app.wal != nil {
			app.wal.releaseAll()
			if cerr := app.wal.log.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		doc, _ := json.Marshal(app.stats())
		fmt.Fprintf(w, "espice-serve: final %s\n", doc)
		return err
	}
	for {
		select {
		case <-tick:
			// Expire quiet sessions before releasing, so a newly-unpinned
			// record is reclaimable on the same tick.
			if app.opts.sessExpiry > 0 {
				expired := app.srv.ExpireSessions(app.opts.sessExpiry)
				if app.wal != nil {
					app.wal.dropSessions(expired)
				}
			}
			if app.wal != nil {
				app.wal.release(app.opts.walRelease)
			}
			doc, _ := json.Marshal(app.stats())
			fmt.Fprintf(w, "espice-serve: %s\n", doc)
		case <-ctx.Done():
			return drain()
		case err := <-serveDone:
			if derr := drain(); err == nil {
				err = derr
			}
			return err
		}
	}
}

// mode names the deployment for the startup line.
func (app *serveApp) mode() string {
	switch {
	case app.eng != nil:
		return fmt.Sprintf("engine, %d queries", len(app.handles))
	case app.opts.shards > 1:
		return fmt.Sprintf("sharded pipeline, %d shards", app.opts.shards)
	default:
		return "serial pipeline"
	}
}

// serveStats is the statistics document served to FrameStatsReq clients
// and logged periodically; the JSON field names are the wire contract
// the load generator reports from.
type serveStats struct {
	Server        transport.ServerStats `json:"server"`
	Submitted     uint64                `json:"submitted"`
	Processed     uint64                `json:"processed"`
	QueueLen      int                   `json:"queue_len"`
	PoolMisses    uint64                `json:"pool_misses"`
	Memberships   uint64                `json:"memberships"`
	Kept          uint64                `json:"kept"`
	Shed          uint64                `json:"shed"`
	ComplexEvents uint64                `json:"complex_events"`
	// Occupancy exposes the skew-aware scale-out state: the
	// partitioner's live placement estimate, summed over shards (and
	// over queries in engine mode). ShardBacklog is the per-shard
	// staged-membership backlog of the sharded pipeline (absent in
	// engine and serial modes) — together they show whether a skewed
	// stream is balanced or pinned.
	Occupancy    int64                  `json:"occupancy"`
	ShardBacklog []int                  `json:"shard_backlog,omitempty"`
	Latency      metrics.LatencySummary `json:"latency"`
	WAL          *serveWALStats         `json:"wal,omitempty"`
	Ledger       *ledgerStats           `json:"ledger,omitempty"`
	Queries      []serveQueryStats      `json:"queries,omitempty"`
	Tenants      []serveTenantStats     `json:"tenants,omitempty"`
	Chaos        chaosStats             `json:"chaos"`
}

// serveTenantStats is the per-tenant slice of the stats document: the
// transport-side admission counters (connections, accepted events,
// throttling, carved credit) joined with the engine-side budget state
// (measured rate vs quota, drop share, kept/shed roll-up) and the
// latency summary of the tenant's scoped queries. The load generator
// lifts these counters into its JSON artifact; the fairness soak reads
// them to prove a noisy tenant's overage was shed while the compliant
// tenant ran untouched.
type serveTenantStats struct {
	Name             string  `json:"name"`
	Conns            int     `json:"conns"`
	ConnsRejected    uint64  `json:"conns_rejected"`
	Events           uint64  `json:"events"`
	ThrottledBatches uint64  `json:"throttled_batches"`
	ThrottleWaitMS   float64 `json:"throttle_wait_ms"`
	CreditCarved     int     `json:"credit_carved"`
	// Engine-side (zero in pipeline mode): ingress measured against the
	// quota rate, the tenant's current drop-rate share and the
	// kept/shed/complex-event roll-up of its scoped queries.
	Submitted     uint64                  `json:"submitted"`
	InputRate     float64                 `json:"input_rate"`
	QuotaRate     float64                 `json:"quota_rate"`
	Weight        float64                 `json:"weight,omitempty"`
	DropShare     float64                 `json:"drop_share"`
	Delivered     uint64                  `json:"delivered"`
	Kept          uint64                  `json:"kept"`
	Shed          uint64                  `json:"shed"`
	ComplexEvents uint64                  `json:"complex_events"`
	Latency       *metrics.LatencySummary `json:"latency,omitempty"`
}

// chaosStats is the fault-containment section of the stats document:
// how much degradation the deployment absorbed while staying up. The
// load generator lifts these counters into its JSON artifact.
type chaosStats struct {
	// Quarantines counts query panics contained by the engine (panics
	// across all quarantined queries, restarts included).
	Quarantines uint64 `json:"quarantines"`
	// DegradedSeconds is the cumulative time the journal spent degraded
	// (acking at-most-once), current episode included.
	DegradedSeconds float64 `json:"degraded_seconds"`
	// EvictedConns counts connections dropped by the idle deadline.
	EvictedConns uint64 `json:"evicted_conns"`
	// PanicsRecovered counts panics absorbed by the per-connection
	// transport guard.
	PanicsRecovered uint64 `json:"panics_recovered"`
}

// serveQueryStats is the per-query slice of the stats document in
// engine mode.
type serveQueryStats struct {
	Name      string `json:"name"`
	Delivered uint64 `json:"delivered"`
	Skipped   uint64 `json:"skipped"`
	Kept      uint64 `json:"kept"`
	Shed      uint64 `json:"shed"`
	// Quarantined marks a query the engine removed after a contained
	// panic (counters frozen at quarantine time; see engine.Stats).
	Quarantined bool `json:"quarantined,omitempty"`
}

// stats assembles the current statistics document.
func (app *serveApp) stats() serveStats {
	st := serveStats{
		Server:        app.srv.Stats(),
		ComplexEvents: app.complexEvents.Load(),
		WAL:           app.walStats(),
	}
	st.Chaos = chaosStats{
		DegradedSeconds: st.Server.DegradedFor.Seconds(),
		EvictedConns:    st.Server.IdleEvictions,
		PanicsRecovered: st.Server.PanicsRecovered,
	}
	quarantined := map[string]bool{}
	if app.eng != nil {
		for _, rec := range app.eng.Stats().Quarantined {
			st.Chaos.Quarantines += rec.Panics
			quarantined[rec.Name] = true
		}
	}
	if app.ledger != nil {
		ls := app.ledger.stats()
		st.Ledger = &ls
	}
	if app.pipe != nil {
		ps := app.pipe.Stats()
		st.Submitted = ps.Submitted
		st.Processed = ps.Processed
		st.QueueLen = ps.QueueLen
		for _, ss := range ps.Shards {
			st.PoolMisses += ss.PoolMisses
			st.Occupancy += ss.Occupancy
			st.ShardBacklog = append(st.ShardBacklog, ss.QueueLen)
		}
		st.Memberships = ps.Operator.Memberships
		st.Kept = ps.Operator.MembershipsKept
		st.Shed = ps.Operator.MembershipsShed
		st.Latency = app.pipe.Latency().Summary()
		app.fillTenants(&st, nil)
		return st
	}
	es := app.eng.Stats()
	st.Submitted = es.Submitted
	for _, h := range app.handles {
		qs := h.Stats()
		st.Processed += qs.Pipeline.Processed
		st.QueueLen += qs.Pipeline.QueueLen
		for _, ss := range qs.Pipeline.Shards {
			st.PoolMisses += ss.PoolMisses
			st.Occupancy += ss.Occupancy
		}
		st.Memberships += qs.Pipeline.Operator.Memberships
		st.Kept += qs.Pipeline.Operator.MembershipsKept
		st.Shed += qs.Pipeline.Operator.MembershipsShed
		st.Queries = append(st.Queries, serveQueryStats{
			Name:        h.Name(),
			Delivered:   qs.Delivered,
			Skipped:     qs.Skipped,
			Kept:        qs.Pipeline.Operator.MembershipsKept,
			Shed:        qs.Pipeline.Operator.MembershipsShed,
			Quarantined: quarantined[h.Name()],
		})
	}
	app.fillTenants(&st, &es)
	return st
}

// fillTenants joins the transport-side tenant counters with the
// engine-side budget state and per-tenant latency into the stats
// document. Only runs in multi-tenant mode.
func (app *serveApp) fillTenants(st *serveStats, es *engine.Stats) {
	if len(app.tenantSpecs) == 0 {
		return
	}
	byName := map[string]*serveTenantStats{}
	get := func(name string) *serveTenantStats {
		if t, ok := byName[name]; ok {
			return t
		}
		st.Tenants = append(st.Tenants, serveTenantStats{Name: name})
		t := &st.Tenants[len(st.Tenants)-1]
		byName = map[string]*serveTenantStats{} // indices shift on append
		for i := range st.Tenants {
			byName[st.Tenants[i].Name] = &st.Tenants[i]
		}
		return t
	}
	for _, ts := range st.Server.Tenants {
		t := get(ts.Tenant)
		t.Conns = ts.Conns
		t.ConnsRejected = ts.ConnsRejected
		t.Events = ts.Events
		t.ThrottledBatches = ts.ThrottledBatches
		t.ThrottleWaitMS = float64(ts.ThrottleWait.Microseconds()) / 1e3
		t.CreditCarved = ts.CreditCarved
	}
	if es != nil {
		for _, ets := range es.Tenants {
			t := get(ets.Name)
			t.Submitted = ets.Submitted
			t.InputRate = ets.InputRate
			t.QuotaRate = ets.QuotaRate
			t.Weight = ets.Weight
			t.DropShare = ets.DropShare
			t.Delivered = ets.Delivered
			t.Kept = ets.Kept
			t.Shed = ets.Shed
			t.ComplexEvents = ets.ComplexEvents
		}
		// Per-tenant ingress latency: the merged traces of the tenant's
		// scoped queries.
		traces := map[string]*metrics.LatencyTrace{}
		for _, h := range app.handles {
			tn, ok := app.queryTenant[h.Name()]
			if !ok {
				continue
			}
			if traces[tn] == nil {
				traces[tn] = &metrics.LatencyTrace{}
			}
			traces[tn].Merge(h.Pipeline().Latency())
		}
		for tn, tr := range traces {
			if tr.Len() == 0 {
				continue
			}
			sum := tr.Summary()
			get(tn).Latency = &sum
		}
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })
}

// statsJSON is the transport.ServerConfig hook.
func (app *serveApp) statsJSON() []byte {
	doc, err := json.Marshal(app.stats())
	if err != nil {
		return []byte("{}")
	}
	return doc
}
