// Package espice is a from-scratch Go reproduction of eSPICE —
// probabilistic load shedding from input event streams in complex event
// processing (Slo, Bhowmik, Rothermel; Middleware '19).
//
// The package is a facade over the implementation packages:
//
//   - internal/event, window, pattern, operator, queue: a window-based
//     CEP engine (sequence / any / repetition operators, first & last
//     selection policies, consumed & zero consumption policies).
//   - internal/core: the eSPICE contribution — the (type, position)
//     utility model, CDT threshold tables, window partitioning, overload
//     detector, and the O(1) load shedder.
//   - internal/baseline: the BL comparator (He et al. style) and a
//     random shedder.
//   - internal/datasets: synthetic NYSE-stock and RTLS-soccer streams.
//   - internal/queries: the paper's evaluation queries Q1–Q4.
//   - internal/sim and internal/runtime: a deterministic discrete-event
//     simulator and a live goroutine/channel pipeline.
//   - internal/harness: the experiment pipeline regenerating every table
//     and figure of the paper's evaluation.
//
// Quick start:
//
//	meta, evs, _ := espice.GenerateRTLS(espice.RTLSConfig{DurationSec: 1200, Seed: 1})
//	q, _ := espice.Q1(meta, 4, espice.SelectFirst, 15)
//	train, eval := espice.SplitHalf(evs)
//	res, _ := espice.RunExperiment(espice.ExperimentConfig{
//	    Query: q, Train: train, Eval: eval, OverloadFactor: 1.2,
//	}, espice.ShedESPICE)
//	fmt.Println(res.Quality)
package espice

import (
	"io"

	"repro/internal/baseline"
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
	"repro/internal/sim"
	"repro/internal/tesla"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/window"
)

// Event model.
type (
	// Event is a primitive event: meta-data plus attribute values.
	Event = event.Event
	// Type is an interned event type id.
	Type = event.Type
	// Kind discriminates application-level event variants.
	Kind = event.Kind
	// Time is a virtual timestamp in microseconds.
	Time = event.Time
	// Registry interns event type names.
	Registry = event.Registry
	// Schema names event attribute slots.
	Schema = event.Schema
)

// Event model constants.
const (
	KindNone       = event.KindNone
	KindRising     = event.KindRising
	KindFalling    = event.KindFalling
	KindPossession = event.KindPossession
	KindDefend     = event.KindDefend
	KindPosition   = event.KindPosition

	Microsecond = event.Microsecond
	Millisecond = event.Millisecond
	Second      = event.Second
	Minute      = event.Minute
)

// NewRegistry returns an empty type registry.
func NewRegistry() *Registry { return event.NewRegistry() }

// NewSchema builds an attribute schema.
func NewSchema(names ...string) *Schema { return event.NewSchema(names...) }

// Windowing.
type (
	// WindowSpec describes a windowing policy (count/time based, opened
	// by slide or logical predicate).
	WindowSpec = window.Spec
	// WindowMode selects count- or time-based measurement.
	WindowMode = window.Mode
	// Window is one window instance.
	Window = window.Window
	// WindowEntry is an event kept in a window with its position.
	WindowEntry = window.Entry
	// WindowView is the in-order view of a window's kept entries that
	// patterns match over: Window.Entries returns the window's own,
	// NewWindowView builds one from explicit entries.
	WindowView = window.View
)

// NewWindowView builds a WindowView of entries (in window order,
// strictly increasing positions), for matching a hand-built window with
// CompiledPattern.Match/MatchWith/MatchAll/MatchAllWith. It copies the
// events once, as a window filled with Window.Add does: build the view
// once and match it repeatedly.
func NewWindowView(entries []WindowEntry) WindowView { return window.NewView(entries) }

// Window modes.
const (
	ModeCount = window.ModeCount
	ModeTime  = window.ModeTime
)

// Patterns.
type (
	// Pattern is a sequence pattern with policies.
	Pattern = pattern.Pattern
	// PatternStep is one element of a pattern.
	PatternStep = pattern.Step
	// CompiledPattern is a validated, matchable pattern.
	CompiledPattern = pattern.Compiled
	// SelectionPolicy picks instances (first/last).
	SelectionPolicy = pattern.SelectionPolicy
	// ConsumptionPolicy controls instance reuse.
	ConsumptionPolicy = pattern.ConsumptionPolicy
	// Predicate tests event content.
	Predicate = pattern.Predicate
)

// Pattern policies.
const (
	SelectFirst = pattern.SelectFirst
	SelectLast  = pattern.SelectLast
	ConsumeZero = pattern.ConsumeZero
	Consumed    = pattern.Consumed
)

// MatchScratch is the reusable per-goroutine working memory of the
// matcher: pass one to CompiledPattern.MatchWith/MatchAllWith, together
// with a WindowView (Window.Entries, or NewWindowView built once outside
// the loop), and steady-state matching allocates nothing. The zero value
// is ready.
type MatchScratch = pattern.MatchScratch

// CompilePattern validates a pattern for matching.
func CompilePattern(p Pattern) (*CompiledPattern, error) { return pattern.Compile(p) }

// MustCompilePattern is CompilePattern panicking on error, for
// statically-known patterns in examples and tests.
func MustCompilePattern(p Pattern) *CompiledPattern { return pattern.MustCompile(p) }

// Operator.
type (
	// Operator is a CEP operator instance.
	Operator = operator.Operator
	// OperatorConfig assembles an operator.
	OperatorConfig = operator.Config
	// ComplexEvent is a detected situation.
	ComplexEvent = operator.ComplexEvent
	// ShedDecider is the per-membership shedding decision interface.
	ShedDecider = operator.Decider
	// WindowMatcher bundles compiled patterns with reusable match
	// scratch for allocation-free per-window matching; one per
	// processing goroutine.
	WindowMatcher = operator.Matcher
)

// NewOperator builds a CEP operator.
func NewOperator(cfg OperatorConfig) (*Operator, error) { return operator.New(cfg) }

// NewWindowMatcher builds a matcher over compiled patterns; maxMatches
// <= 0 defaults to one complex event per window.
func NewWindowMatcher(patterns []*CompiledPattern, maxMatches int) *WindowMatcher {
	return operator.NewMatcher(patterns, maxMatches)
}

// eSPICE core.
type (
	// Model is the trained utility model.
	Model = core.Model
	// ModelBuilder accumulates training statistics.
	ModelBuilder = core.ModelBuilder
	// ModelBuilderConfig configures model construction.
	ModelBuilderConfig = core.ModelBuilderConfig
	// UtilityTable is UT: utility per (type, position bin).
	UtilityTable = core.UtilityTable
	// CDT holds cumulative utility occurrences per partition.
	CDT = core.CDT
	// Partitioning is the dropping-interval split of a window.
	Partitioning = core.Partitioning
	// Shedder is the O(1) eSPICE load shedder.
	Shedder = core.Shedder
	// OverloadDetector implements Section 3.4.
	OverloadDetector = core.OverloadDetector
	// DetectorConfig configures the detector.
	DetectorConfig = core.DetectorConfig
	// Decision is one detector evaluation outcome.
	Decision = core.Decision
)

// MaxUtility is the top of the utility scale (100).
const MaxUtility = core.MaxUtility

// NewModelBuilder returns a statistics accumulator for model training.
func NewModelBuilder(cfg ModelBuilderConfig) (*ModelBuilder, error) {
	return core.NewModelBuilder(cfg)
}

// NewUtilityTable allocates a zeroed M x N utility table.
func NewUtilityTable(types, n, binSize int) (*UtilityTable, error) {
	return core.NewUtilityTable(types, n, binSize)
}

// NewModelFromTable assembles a model from an explicit utility table and
// position shares (e.g. the paper's running example).
func NewModelFromTable(ut *UtilityTable, shares [][]float64) (*Model, error) {
	return core.NewModelFromTable(ut, shares)
}

// NewShedder returns an inactive eSPICE shedder for the model.
func NewShedder(m *Model) (*Shedder, error) { return core.NewShedder(m) }

// NewOverloadDetector builds the queue-monitoring detector.
func NewOverloadDetector(cfg DetectorConfig) (*OverloadDetector, error) {
	return core.NewOverloadDetector(cfg)
}

// ComputePartitioning derives dropping intervals per Section 3.4.
func ComputePartitioning(ws int, qmax, f float64) Partitioning {
	return core.ComputePartitioning(ws, qmax, f)
}

// BuildCDT computes cumulative utility occurrences (Algorithm 1).
func BuildCDT(m *Model, part Partitioning) (*CDT, error) { return core.BuildCDT(m, part) }

// ChooseF selects the trigger fraction f by utility clustering.
func ChooseF(m *Model, ws int, qmax, xEstimate float64, candidates []float64) float64 {
	return core.ChooseF(m, ws, qmax, xEstimate, candidates)
}

// Baselines.
type (
	// BL is the baseline shedder after He et al.
	BL = baseline.BL
	// BLConfig configures BL.
	BLConfig = baseline.BLConfig
	// RandomShedder drops uniformly at random.
	RandomShedder = baseline.Random
)

// NewBL builds the baseline shedder.
func NewBL(cfg BLConfig) (*BL, error) { return baseline.NewBL(cfg) }

// NewRandomShedder builds the random shedder.
func NewRandomShedder(seed int64) *RandomShedder { return baseline.NewRandom(seed) }

// Datasets.
type (
	// NYSEConfig parameterizes the synthetic stock stream.
	NYSEConfig = datasets.NYSEConfig
	// NYSEMeta describes a generated stock stream.
	NYSEMeta = datasets.NYSEMeta
	// RTLSConfig parameterizes the synthetic soccer stream.
	RTLSConfig = datasets.RTLSConfig
	// RTLSMeta describes a generated soccer stream.
	RTLSMeta = datasets.RTLSMeta
)

// GenerateNYSE produces the synthetic stock-quote stream.
func GenerateNYSE(cfg NYSEConfig) (*NYSEMeta, []Event, error) { return datasets.GenerateNYSE(cfg) }

// GenerateRTLS produces the synthetic soccer stream.
func GenerateRTLS(cfg RTLSConfig) (*RTLSMeta, []Event, error) { return datasets.GenerateRTLS(cfg) }

// Queries.
type (
	// Query bundles a window spec and patterns.
	Query = queries.Query
)

// Q1 builds the soccer man-marking query.
func Q1(meta *RTLSMeta, n int, policy SelectionPolicy, windowSec int) (Query, error) {
	return queries.Q1(meta, n, policy, windowSec)
}

// Q2 builds the stock-influence query.
func Q2(meta *NYSEMeta, n int, policy SelectionPolicy, windowSec int) (Query, error) {
	return queries.Q2(meta, n, policy, windowSec)
}

// Q3 builds the 20-symbol exact-sequence query.
func Q3(meta *NYSEMeta, policy SelectionPolicy, ws int) (Query, error) {
	return queries.Q3(meta, policy, ws)
}

// Q4 builds the sequence-with-repetition query.
func Q4(meta *NYSEMeta, policy SelectionPolicy, ws int) (Query, error) {
	return queries.Q4(meta, policy, ws)
}

// Q4HotSymbolIDs returns the symbol ids Q4 needs generated "hot".
func Q4HotSymbolIDs(cfg NYSEConfig) []int { return queries.Q4HotSymbolIDs(cfg) }

// Metrics.
type (
	// Quality summarizes false negatives/positives vs. ground truth.
	Quality = metrics.Quality
	// LatencyTrace records per-event latencies.
	LatencyTrace = metrics.LatencyTrace
)

// CompareQuality matches complex-event sets by identity.
func CompareQuality(truth, detected []ComplexEvent) Quality {
	return metrics.CompareQuality(truth, detected)
}

// Simulation and experiments.
type (
	// SimConfig parameterizes the discrete-event simulator.
	SimConfig = sim.Config
	// SimResult carries simulation outputs.
	SimResult = sim.Result
	// SimController reacts to detector decisions.
	SimController = sim.Controller
	// ExperimentConfig parameterizes a quality experiment.
	ExperimentConfig = harness.RunConfig
	// ExperimentResult is the outcome of an experiment run.
	ExperimentResult = harness.RunResult
	// TrainResult carries trained model and statistics.
	TrainResult = harness.TrainResult
	// ShedderKind selects the strategy under test.
	ShedderKind = harness.ShedderKind
	// Figure is a reproduced table/figure.
	Figure = harness.Figure
	// FigureSeries is one line of a figure.
	FigureSeries = harness.Series
	// ExperimentScale bounds dataset sizes and sweeps.
	ExperimentScale = harness.Scale
)

// Shedder kinds.
const (
	ShedNone   = harness.ShedNone
	ShedESPICE = harness.ShedESPICE
	ShedBL     = harness.ShedBL
	ShedRandom = harness.ShedRandom
)

// SimRun replays events through the queueing simulator.
func SimRun(cfg SimConfig, events []Event, op *Operator, ctrl SimController) (*SimResult, error) {
	return sim.Run(cfg, events, op, ctrl)
}

// Train learns the utility model from an unshed stream.
func Train(q Query, events []Event, binSize, n int) (*TrainResult, error) {
	return harness.Train(q, events, binSize, n)
}

// RunExperiment executes a full train/truth/shed/compare pipeline.
func RunExperiment(cfg ExperimentConfig, kind ShedderKind) (*ExperimentResult, error) {
	return harness.RunExperiment(cfg, kind)
}

// EvalWithModel runs the ground-truth pass and the overloaded shedding
// pass for a pre-trained model — e.g. one produced (and hot-swapped) by
// the online lifecycle — without a training pass.
func EvalWithModel(cfg ExperimentConfig, tr *TrainResult, kind ShedderKind) (*ExperimentResult, error) {
	return harness.EvalWithModel(cfg, tr, kind)
}

// SplitHalf divides a stream into training and evaluation halves.
func SplitHalf(evs []Event) (train, eval []Event) { return harness.SplitHalf(evs) }

// DefaultScale mirrors the paper's sweeps.
func DefaultScale() ExperimentScale { return harness.DefaultScale() }

// QuickScale is a reduced sweep for fast runs.
func QuickScale() ExperimentScale { return harness.QuickScale() }

// Live runtime.
type (
	// Pipeline is a live goroutine-based CEP deployment. Set
	// PipelineConfig.Shards > 1 for the sharded multi-operator pipeline:
	// windows are distributed round-robin over parallel operator
	// instances and complex events are merged back in window-close order.
	Pipeline = runtime.Pipeline
	// PipelineConfig assembles a pipeline.
	PipelineConfig = runtime.Config
	// PipelineStats is a counter snapshot.
	PipelineStats = runtime.Stats
	// PipelineShardStats is one shard's counter snapshot.
	PipelineShardStats = runtime.ShardStats
)

// NewPipeline builds a live pipeline.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) { return runtime.New(cfg) }

// Online model lifecycle.
type (
	// LifecycleConfig enables in-flight model training on a pipeline (or
	// an engine query): the runtime samples its own window closes into a
	// model builder, swaps the model into every shedder once warm, and —
	// with Drift set — retrains when the input distribution shifts.
	LifecycleConfig = runtime.LifecycleConfig
	// LifecycleStats is a snapshot of the lifecycle counters.
	LifecycleStats = runtime.LifecycleStats
	// ModelLifecycle is the supervisor handle: stats, the currently
	// published model, explicit retrains.
	ModelLifecycle = runtime.Lifecycle
	// FeedbackTap is the sampled window-close observer feeding the
	// online trainer and drift detector; pipelines with a Lifecycle
	// install taps automatically.
	FeedbackTap = operator.FeedbackTap
)

// NewUntrainedModel returns a model with no training evidence — the
// starting point for shedders governed by the online lifecycle; it
// refuses to shed until a trained model is swapped in.
func NewUntrainedModel(types, n, binSize int) (*Model, error) {
	return core.NewUntrainedModel(types, n, binSize)
}

// NewFeedbackTap builds a standalone sampled window-close tap over a
// model builder (every <= 1 observes all closes); install its
// OnWindowClose as an operator hook to accumulate training statistics
// outside a managed pipeline.
func NewFeedbackTap(builder *ModelBuilder, every int) (*FeedbackTap, error) {
	return operator.NewFeedbackTap(builder, every)
}

// Model persistence.

// SaveModel writes a trained model to w (versioned binary format with a
// CRC32 trailer) so deployments can train offline and ship models.
func SaveModel(m *Model, w io.Writer) error { return m.Save(w) }

// LoadModel reads a model written by SaveModel, verifying the checksum.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModel(r) }

// Query language.
type (
	// QueryEnv binds type and attribute names for textual queries.
	QueryEnv = tesla.Env
)

// ParseQuery compiles a Tesla-style textual query (see docs/tesla.md for
// the grammar) into an executable Query.
func ParseQuery(src string, env QueryEnv) (Query, error) { return tesla.Parse(src, env) }

// ParseQueries compiles a multi-query source — a sequence of `define`
// blocks, the file format of `espice-live -queries` — into one Query per
// block.
func ParseQueries(src string, env QueryEnv) ([]Query, error) { return tesla.ParseMulti(src, env) }

// Multi-query engine.
type (
	// Engine is the multi-query deployment layer: one ingress stream
	// fans out to N registered queries behind per-query type filters,
	// with a global shedding budget coordinating all per-query shedders.
	Engine = engine.Engine
	// EngineConfig assembles an engine.
	EngineConfig = engine.Config
	// EngineQueryConfig registers one query with an engine.
	EngineQueryConfig = engine.QueryConfig
	// EngineQuery is a registered query handle (output channel, stats,
	// admission filter).
	EngineQuery = engine.Query
	// EngineStats is the merged engine counter snapshot.
	EngineStats = engine.Stats
	// EngineQueryStats is one query's slice of the engine statistics.
	EngineQueryStats = engine.QueryStats
	// EngineTenantQuota is one tenant's engine-side policy: the ingress
	// rate it is entitled to and its utility weight in the tenant-first
	// budget split (EngineConfig.Tenants, Engine.SetTenantQuota).
	EngineTenantQuota = engine.TenantQuota
	// EngineTenantStats is one tenant's slice of the engine statistics:
	// submitted events, smoothed ingress rate vs quota, current drop
	// share, and the rolled-up counters of its scoped queries.
	EngineTenantStats = engine.TenantStats
)

// NewEngine builds a multi-query engine with no queries registered yet.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// Drift detection (statistical retraining trigger, Section 3.6).
type (
	// DriftDetector raises a retraining flag when the input
	// distribution shifts away from the trained model.
	DriftDetector = core.DriftDetector
	// DriftConfig tunes the detector.
	DriftConfig = core.DriftConfig
)

// NewDriftDetector builds a drift detector over a trained model.
func NewDriftDetector(m *Model, cfg DriftConfig) (*DriftDetector, error) {
	return core.NewDriftDetector(m, cfg)
}

// Controllers wiring detectors to shedders.
type (
	// ESPICEController drives a core shedder from detector decisions.
	ESPICEController = harness.ESPICEController
	// BLController drives the BL baseline.
	BLController = harness.BLController
	// RandomController drives the random shedder.
	RandomController = harness.RandomController
)

// Networked ingestion (internal/transport): the TCP wire boundary in
// front of a Pipeline or Engine. See docs/wire.md for the frame format,
// the credit protocol and the backpressure semantics.
type (
	// IngestServer accepts binary-framed or NDJSON event streams over
	// TCP and feeds them into an IngestSink under per-connection credit
	// windows, so overload is resolved by the load shedder rather than
	// by unbounded buffering.
	IngestServer = transport.Server
	// IngestServerConfig assembles an ingest server.
	IngestServerConfig = transport.ServerConfig
	// IngestServerStats is a snapshot of server counters.
	IngestServerStats = transport.ServerStats
	// IngestSink absorbs ingested event batches; Pipeline and Engine
	// both satisfy it.
	IngestSink = transport.Sink
	// IngestClient is the batching, reconnecting, credit-aware producer
	// for the binary framing.
	IngestClient = transport.Client
	// IngestClientConfig assembles an ingest client.
	IngestClientConfig = transport.ClientConfig
	// IngestClientStats is the client's ledger: events sent and
	// acknowledged, flushes, redials and cumulative credit-wait time.
	IngestClientStats = transport.ClientStats
	// WireEncoder serializes event batches into the binary framing.
	WireEncoder = transport.Encoder
	// WireDecoder parses binary event frames with recycled scratch
	// (allocation-free in steady state; see the Retain field for the
	// hand-off mode).
	WireDecoder = transport.Decoder
	// IngestTenantAuth is an authenticator's verdict on a presented
	// token: the tenant's identity and its wire-side quota
	// (IngestServerConfig.Authenticate enables multi-tenant admission).
	IngestTenantAuth = transport.TenantAuth
	// IngestTenantQuota is a tenant's wire-side entitlement: aggregate
	// credit window across its connections, sustained ingress rate and
	// token-bucket burst depth.
	IngestTenantQuota = transport.TenantQuota
	// IngestTenantStats is one tenant's slice of the server counters
	// (events, throttled batches and cumulative throttle wait, rejected
	// connections, carved credit).
	IngestTenantStats = transport.TenantStats
	// IngestTenantSink is the tenant-aware sink: a server whose sink
	// also satisfies it submits each batch under the tenant that sent
	// it. Engine qualifies (tenant-scoped queries and quota-aware
	// shedding); a plain IngestSink still works untagged.
	IngestTenantSink = transport.TenantSink
)

// NewIngestServer builds a TCP ingest server around a sink.
func NewIngestServer(cfg IngestServerConfig) (*IngestServer, error) {
	return transport.NewServer(cfg)
}

// DialIngest connects an ingest client to an espice-serve address.
func DialIngest(cfg IngestClientConfig) (*IngestClient, error) {
	return transport.Dial(cfg)
}

// Durable ingestion (internal/wal): the optional write-ahead segment
// log behind `espice-serve -wal`, which upgrades the wire transport
// from at-most-once to effectively-once delivery. See docs/wal.md for
// the on-disk format and recovery semantics, and the delivery-semantics
// section of docs/wire.md for the session protocol.
type (
	// WAL is a write-ahead segment log: acked event batches are
	// appended to recycled fixed-size segments with fsync-coalesced
	// group commit and replayed after a crash.
	WAL = wal.Log
	// WALConfig assembles a write-ahead log.
	WALConfig = wal.Config
	// WALStats is a snapshot of the log counters.
	WALStats = wal.Stats
	// WALRecord is one replayed record (sequence, session, batch
	// sequence, payload).
	WALRecord = wal.Record
	// WALRecovery summarizes a completed replay.
	WALRecovery = wal.Recovery
	// IngestJournal is the durability hook of IngestServerConfig:
	// batches are journaled and committed through it before they are
	// submitted or acknowledged. A WAL satisfies the append/commit
	// shape; espice-serve adapts one to this interface.
	IngestJournal = transport.Journal
	// IngestSessionState seeds a durable session's dedup watermark
	// (applied batches, accepted events) after recovery.
	IngestSessionState = transport.SessionState
)

// DefaultWALSegmentSize is the default segment capacity in bytes.
const DefaultWALSegmentSize = wal.DefaultSegmentSize

// OpenWAL opens (or creates) a write-ahead log directory. Recover must
// run before the first Append.
func OpenWAL(cfg WALConfig) (*WAL, error) { return wal.Open(cfg) }
