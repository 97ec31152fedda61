// Package disco is a Go implementation of DISCO — the Distributed
// Information Search COmponent (Tomasic, Raschid, Valduriez; ICDCS 1996) —
// a distributed mediator system for querying large numbers of
// heterogeneous, autonomous data sources.
//
// A Mediator accepts ODMG-style ODL definitions that model data sources as
// first-class objects (repositories, wrappers, extents with local
// transformation maps), evaluates OQL queries across the registered
// sources, pushes work to each source as far as that source's wrapper
// grammar allows, learns per-source costs from observed exec calls, and —
// when sources fail to answer in time — returns partial answers that are
// themselves OQL queries, resubmittable once the sources recover.
//
// Quick start:
//
//	m := disco.New()
//	store := disco.NewRelStore()
//	store.CreateTable("person0", "id", "name", "salary")
//	store.Insert("person0", disco.Int(1), disco.Str("Mary"), disco.Int(200))
//	m.RegisterEngine("r0", store)
//	m.ExecODL(`
//	    r0 := Repository(address="mem:r0");
//	    w0 := WrapperPostgres();
//	    interface Person (extent person) {
//	        attribute Short id;
//	        attribute String name;
//	        attribute Short salary;
//	    }
//	    extent person0 of Person wrapper w0 repository r0;
//	`)
//	v, err := m.Query(`select x.name from x in person where x.salary > 10`)
//
// # Scaling out
//
// One logical extent can be horizontally partitioned across several
// repositories with the "at" form of the extent declaration:
//
//	extent people of Person wrapper w0 at r0, r1, r2;
//
// A query over people fans out: the optimizer rewrites Get(people) into a
// parallel union of per-partition submits — pushing selections and
// projections down to each shard as its wrapper allows — and the physical
// layer executes the fan-out with a bounded-concurrency scatter-gather
// operator (see WithMaxFanout) that merges shard streams as they arrive and
// fuses distinct semantics into the merge where the plan requires it. Each
// shard call is recorded separately in the learned cost history, so the
// optimizer knows which shards are slow.
//
// The extent declaration can also carry the placement itself — how rows
// distribute over the repository list:
//
//	extent people of Person wrapper w0 at r0, r1, r2
//	    partition by hash(id);
//	extent orders of Order wrapper w0 at r0, r1, r2
//	    partition by range(total) (..100, 100..1000, 1000..);
//
// The clause is a contract (rows must live where the scheme says; range
// bounds are inclusive below, exclusive above), and the optimizer prunes
// with it: a point predicate over the partition attribute (id = 7, id in
// bag(3, 11)) eliminates every shard but the keys' home shards before the
// fan-out is built, so a point query over a 16-way extent performs exactly
// one source call, and contradictory predicates answer the empty bag with
// zero calls. Range schemes additionally prune on order predicates
// (total < 100 reads one shard). Explain names the skipped shards in a
// "pruned shards:" line.
//
// Placement also rewrites joins: when two extents are co-partitioned (same
// scheme and attribute, same partition count) and joined on the partition
// attribute, the optimizer replaces the all-pairs cross-shard join with a
// parallel union of per-shard joins, priced by the cost model's
// max-of-survivors rule — and when the two extents share repositories,
// each per-shard join is itself eligible for whole-join pushdown into the
// shard's wrapper. Shards pruned from one side of the join drop their
// counterpart on the other side.
//
// Each partition may also declare replicas — repositories holding a copy
// of the same rows — by separating them with "|" in the placement list,
// primary first:
//
//	extent people of Person wrapper w0 at r0|r0b, r1|r1b, r2;
//
// A submit that finds its shard's primary unavailable (timeout, refused
// or failed dial) transparently retries the shard's replicas, splitting
// the remaining evaluation deadline over the copies left to try, so even
// a cold failover reaches a live replica before the deadline. The answer
// stays complete — partial evaluation fires only when every copy of a
// shard is down. The replica contract mirrors the partitioning one:
// every repository of a group must hold the same rows.
//
// Routing among a shard's copies is fed by two signals. The learned cost
// history orders live copies fastest-first (an unmeasured copy never
// outranks a measured one). And every source carries a circuit breaker:
// consecutive classified unavailabilities (WithBreaker's threshold,
// default 3) open it, after which routing skips the dead copy without
// re-paying its timeout; once the cooldown (default 5s) elapses, a
// half-open probe — a background ping riding the next query that routes
// around the copy — decides whether it closes again. The breaker is
// advisory: when every copy of a shard is open, the mediator probes them
// all anyway rather than declare unavailability without dialing, so a
// breaker can delay but never forge a partial answer. The cost model
// consults the breakers too, charging submits to open sources the
// timeout they would burn, and Mediator.BreakerState exposes the state
// per repository. A caller cancelling a query is classified as neither
// an answer nor unavailability: it cannot degrade the query into a
// partial answer, and it cannot poison a breaker.
//
// Replicas also add read capacity, not just safety. WithLoadBalancing
// spreads reads across a shard's breaker-healthy copies by weighted random
// choice, each copy weighted by the inverse of its observed median latency
// (a small floor keeps every copy measured, so a recovered copy earns its
// share back), so aggregate throughput grows with the copy count instead
// of pinning the primary. WithHedging cuts the latency tail the balancer
// cannot: a submit that outlasts the healthy copies' observed 99th
// percentile fires one backup submit to the next-ranked copy, the first
// answer wins, and the loser is cancelled — a cancelled loser records
// neither a cost-history observation nor a breaker verdict, so hedging
// never distorts the signals routing runs on. Hedges are bounded by a
// global budget (a small fraction of total submits) and a floor on the
// trigger delay, so a mis-learned p99 cannot double the load. A hedged
// mediator also hurries scatter-gather stragglers: when most partitions of
// a fan-out have answered, the laggards' in-flight submits are told to
// hedge immediately rather than wait out the trigger. Trace.HedgesFired
// and Trace.HedgesWon report the hedging activity a query saw.
//
// Partial answers compose with partitioning: if a shard fails to answer
// before the deadline (every replica, when it has them), QueryPartial
// keeps the answered shards' data and returns a residual query over only
// the missing partitions, written with the shard-addressing form
// extent@repository:
//
//	union(select x.name from x in people@r2 where x.salary > 60, bag("Ben", "Mary"))
//
// Resubmitting that answer once any copy of r2 recovers touches only
// that shard. The extent@repository name is ordinary OQL here and can
// also be queried directly to address one shard (replica names
// canonicalize to their shard). See examples/sharding for the full
// scenario.
//
// Placement is not fixed at declaration time: a shard can move to another
// repository, split at a range bound, or merge into its neighbor while
// queries keep running. A migration is a catalog-driven state machine —
// BeginShardMove (or BeginShardSplit / BeginShardMerge) records the intent,
// and each AdvanceMigration call performs one phase transition:
//
//	declared -> copying    -> dual-read -> cutover -> done
//	                      \_ aborted (AbortMigration, from any live phase)
//
// The copying step bulk-copies the shard's rows into the destination;
// during dual-read the planner rewrites the migrating shard's read into a
// distinct union over both placements, so a destination that dies
// mid-migration degrades reads to the old copy rather than a partial
// answer; cutover swaps the placement in one catalog version bump, which
// the prepared-plan cache observes like any other catalog change — new
// plans read the new placement, in-flight plans drain against the old one
// before its rows are released. Every transition is itself one version
// bump, every resting phase survives DumpODL round trips (the record is
// emitted as a migrate clause), and a failed transition leaves the prior
// resting state intact, so crashing at any boundary never duplicates or
// drops a tuple: retry AdvanceMigration, or AbortMigration to roll the
// placement back to a consistent version. MoveShard, SplitShard and
// MergeShards wrap the begin-advance loop end to end.
//
// Where to rebalance comes from the traffic history: every shard read
// bumps a per-shard counter (ShardTraffic; Trace.ShardReads has the
// per-query slice), HotShards flags shards drawing a disproportionate
// share, and Explain surfaces the skew as "hot shards: people@r1 (42%)"
// lines with a concrete rebalance recommendation the migration calls
// above can act on. See examples/sharding for a live move under
// concurrent readers.
//
// Underneath every remote scenario sits a persistent wire layer. The
// mediator keeps one bounded pool of long-lived TCP connections per
// repository address, shared by every wrapper instance and freshness check
// that talks to it; concurrent submits multiplex over those connections
// and are matched back to callers by frame ID, broken connections are
// evicted and redialed transparently, and idle connections are reaped.
// Servers execute each pipelined request on its own goroutine (responses
// serialized per connection, answered in completion order), so a 16-shard
// scatter-gather whose shards share one mediator connection runs its
// shards concurrently instead of serializing behind the slowest one — and
// the fault-injection semantics (unavailability, injected latency) apply
// per request, exactly as the §4 timeout model assumes.
//
// Pool health is not discovered by borrowers: connections that idle past a
// health interval are pinged in the background, and one that stops
// answering (half-open TCP, hung peer) is evicted before any query is
// routed over it, so the next submit dials fresh instead of timing out on
// a dead socket.
//
// # Staying up
//
// Failover, partial answers and breakers protect a mediator from its
// sources; overload protection protects it from its callers. WithAdmission
// installs an admission gate in front of query execution: at most
// maxConcurrent queries run, a bounded FIFO holds the next arrivals, and
// everything past those bounds is shed immediately with an *OverloadError —
// a typed verdict distinct from unavailability, because nothing is down and
// a resubmission moments later may well be admitted (IsOverloadError tells
// the two apart). A shed query performs zero source dials. The gate is
// deadline-aware: it tracks the median service time of recent queries, and
// a query whose remaining deadline cannot cover it is rejected on arrival
// rather than queued to die — early rejection is what keeps the latency of
// admitted queries bounded when offered load exceeds capacity. Bring
// deadlines via QueryContext and QueryPartialContext; Trace.AdmissionWait
// and Trace.Shed record what the gate did to a query.
//
// Servers shed too: a wire server refuses requests beyond its per-
// connection cap (and optional server-wide cap, WithMaxServerInflight)
// with an explicit overload frame instead of silently queueing them, so a
// mediator learns of a saturated source while it can still act.
//
// Between shed-nothing and shed-everything sits the retry budget.
// Transient source failures — a connection dropped mid-answer, a refused
// dial with deadline to spare, an overload frame from a live server — earn
// one budgeted retry with jittered backoff before degrading into ordinary
// unavailability (and from there into failover or a partial answer). The
// budget is a token bucket funded by submit traffic (roughly one retry per
// ten submits), so under a healthy fleet a blip is retried invisibly,
// while under collapse — when most submits fail — the budget exhausts and
// the mediator degrades instead of doubling the load on whatever is left.
// Trace.Retried and Trace.RetryBudgetExhausted expose the budget's
// activity; Mediator.OverloadStats totals it.
//
// Abandoned work is reclaimed, not merely ignored. A caller's deadline
// rides every wire request as its remaining millisecond budget, so a
// source derives each handler's context from the budget that actually
// remains and rejects a request whose budget is already spent without
// executing it at all. Cancellation propagates the other way on a
// dedicated fire-and-forget protocol frame: when a caller walks away from
// an in-flight call — a hedge race resolved against it, the caller's
// context ended, the pool was torn down, the connection died — the client
// tells the server, the matching handler context is cancelled, and the
// engine stops at its next batch boundary with the response suppressed.
// The guarantee is deliberately asymmetric: expired-on-arrival rejection
// is exact (the handler never runs), while cancel frames are best-effort —
// a cancel racing the response loses benignly, and a frame that cannot be
// written is backstopped by the server cancelling everything in flight
// when the connection dies. Either way a cancelled call is a caller-side
// verdict: it never trips a breaker, never records a cost observation,
// and never becomes a partial answer. Trace.CancelsSent and the wire
// Stats (Cancelled, ExpiredOnArrival) expose the traffic.
//
// This degradation ladder is verified by seeded fault injection: the
// internal chaos package proxies the wire transport and composes latency
// spikes, mid-answer drops, partitions, corrupt frames and slow-drip
// responses on a scripted timeline, and the harness soak tests assert the
// contract under chaos — sheds are explicit, admitted queries stay fast,
// partitions degrade to residuals rather than errors, and recovery is
// complete once the faults lift.
//
// # Correctness invariants
//
// Several of the guarantees above are lexical properties of the code, not
// runtime behaviors — and each was once violated by a real bug the chaos
// harness caught. They are now enforced mechanically by the project's own
// analyzer suite (internal/lint, run via cmd/disco-lint, "make lint", and
// a dedicated CI job):
//
//   - eofidentity: io.EOF must be compared with err == io.EOF, never
//     errors.Is(err, io.EOF). Wrapped EOFs from a dropped connection are
//     NOT end-of-stream — treating them as one silently truncated answers
//     mid-drain (the PR 9 truncation bug). Sites that deliberately
//     classify wrapped EOFs as transport failures annotate themselves.
//   - ctxflow: no context.Background()/TODO() on request paths. A
//     detached context cannot carry the caller's deadline or
//     cancellation, which is how abandoned work escapes reclamation.
//     Deliberate detachments (server lifetime roots, background probes)
//     carry an annotation naming what bounds them instead.
//   - gotrack: every goroutine started in core, physical or wire must be
//     lexically tied to a WaitGroup, a close-signal channel, or a
//     context — an untracked goroutine is a leak the next soak finds.
//   - locksend: no blocking channel operation while a mutex is held; a
//     full peer turns that into a deadlock that holds the lock forever.
//   - traceexplain: every exported core.Trace field must be rendered by
//     the explain output, so observability cannot silently rot as fields
//     are added.
//
// A finding is suppressed only by an inline annotation that names the
// analyzer and justifies the exception:
//
//	//lint:allow ctxflow server lifetime root; bounded by Server.Close
//
// The justification is mandatory — a bare allow is itself a finding.
//
// Repeated queries skip recompilation entirely: Prepare results — parse,
// view expansion, compilation and optimization — are cached per (query
// text, catalog version) in one bounded prepared-statement cache, the
// mediator's only plan cache, so a repeated query goes straight to
// execution. Query, Prepare, ExplainPlan and Explain all take their plan
// from it. Trace.CacheHit reports a hit (with all front-half stage timings
// at zero); any ODL change or circuit-breaker transition invalidates the
// cache, the paper's §3.3 cached-plan rule applied to the whole pipeline.
//
// The execution engine itself is compiled and batched. Every scalar
// expression a plan evaluates per tuple — predicates, projections, join
// keys, dependent domains — is lowered once into a tree of Go closures:
// constants fold (a constant side of "in" becomes a prebuilt hash set),
// variables resolve to fixed slots in a flat, reusable environment rather
// than an allocated binding chain, and struct field accesses cache the
// field offset they resolved and revalidate it with one name comparison
// per tuple. The compiled programs ride the prepared-statement cache, so
// re-executing a prepared query skips expression lowering too; the
// tree-walking evaluator remains as the semantic reference, and the
// compiled engine is differentially fuzzed against it. Operators exchange
// data in batches of up to 1024 values through reusable buffers instead of
// tuple-at-a-time calls: selections filter each batch through a selection
// vector and compact it in place, hash joins key an entire probe batch per
// pass, and the scatter-gather merge forwards whole batches from shard
// goroutines through a recycling free list — one channel operation per
// batch where it used to pay one per tuple.
//
// See the examples directory for multi-source federations, wide-area
// deployments over TCP, partial answers, mediator composition and sharding.
package disco

import (
	"disco/internal/core"
	"disco/internal/partial"
	"disco/internal/source"
	"disco/internal/types"
	"disco/internal/wire"
)

// Mediator is a DISCO mediator: the query processor that federates data
// sources. Create one with New.
type Mediator = core.Mediator

// Option configures a Mediator.
type Option = core.Option

// Trace carries per-stage pipeline timings for one query (Figure 2 of the
// paper: parse, view expansion, compile, optimize, execute).
type Trace = core.Trace

// Answer is a query result under partial-evaluation semantics: either a
// complete value or a residual query over the unavailable sources.
type Answer = partial.Answer

// New returns an empty mediator.
func New(opts ...Option) *Mediator { return core.New(opts...) }

// WithTimeout sets the evaluation deadline after which silent sources are
// classified unavailable (the paper's "designated time", §4).
var WithTimeout = core.WithTimeout

// WithMaxFanout bounds how many partitions of a sharded extent the mediator
// queries concurrently (0 = all at once).
var WithMaxFanout = core.WithMaxFanout

// WithBreaker tunes the per-source circuit breakers: a source opens after
// threshold consecutive classified unavailabilities (replica routing then
// skips it without re-paying its timeout) and is probed again after
// cooldown. Zero values keep the defaults.
var WithBreaker = core.WithBreaker

// WithLoadBalancing spreads reads across a shard's breaker-healthy replicas
// by weighted random choice, weighting each copy by the inverse of its
// observed median latency. Off by default: replicas then serve only as
// failover targets.
var WithLoadBalancing = core.WithLoadBalancing

// WithHedging enables hedged requests: a submit that outlasts the healthy
// copies' observed p99 latency fires one backup submit to the next-ranked
// replica and the first answer wins. floor bounds the trigger delay from
// below (0 keeps the default); a global budget caps hedges at a small
// fraction of total submits.
var WithHedging = core.WithHedging

// WithAdmission installs the overload-protection gate: at most
// maxConcurrent queries execute, at most maxQueued wait FIFO behind them
// (0 = default), and nothing waits past maxWait (0 = default) or past the
// point where its own deadline could no longer cover the typical service
// time. Queries beyond those bounds are shed with an *OverloadError
// before any source is dialed.
var WithAdmission = core.WithAdmission

// OverloadError reports that the mediator (or a gate on its path) shed a
// query to protect itself. Nothing is known to be down — the same query
// resubmitted after a backoff may well be admitted.
type OverloadError = core.OverloadError

// IsOverloadError reports whether err is (or wraps) an overload shed, as
// opposed to an unavailability or a genuine query failure.
var IsOverloadError = core.IsOverloadError

// BreakerState is the state of one source's circuit breaker, as reported
// by Mediator.BreakerState: closed (healthy), open (recently dead, routed
// around), or half-open (one probe in flight).
type BreakerState = core.BreakerState

// Breaker states.
const (
	BreakerClosed   = core.BreakerClosed
	BreakerOpen     = core.BreakerOpen
	BreakerHalfOpen = core.BreakerHalfOpen
)

// Value is a runtime value of the DISCO data model: scalars, structs and
// the bag/list/set collections.
type Value = types.Value

// Scalar and collection values.
type (
	// Null is the absent value.
	Null = types.Null
	// Bool is a boolean value.
	Bool = types.Bool
	// Int is an integer value (ODL Short/Long).
	Int = types.Int
	// Float is a floating-point value.
	Float = types.Float
	// Str is a string value.
	Str = types.Str
	// Struct is an ordered record of named fields.
	Struct = types.Struct
	// Bag is an unordered collection preserving duplicates — the answer
	// collection of DISCO.
	Bag = types.Bag
	// Field is one named field of a Struct.
	Field = types.Field
)

// NewBag constructs a bag value.
func NewBag(elems ...Value) *Bag { return types.NewBag(elems...) }

// NewStruct constructs a struct value.
func NewStruct(fields ...Field) *Struct { return types.NewStruct(fields...) }

// Engine is an in-process data source that can be registered on a mediator
// under a mem: repository address.
type Engine = source.Engine

// RelStore is the bundled relational engine (SQL dialect).
type RelStore = source.RelStore

// DocStore is the bundled keyword-search document store.
type DocStore = source.DocStore

// NewRelStore returns an empty relational store.
func NewRelStore() *RelStore { return source.NewRelStore() }

// NewDocStore returns an empty document store.
func NewDocStore() *DocStore { return source.NewDocStore() }

// Server is a running wire-protocol server (data source or mediator).
type Server = wire.Server

// ServerOption configures a Server.
type ServerOption = wire.ServerOption

// WithMaxInflight caps concurrent request execution per server connection;
// requests beyond the cap are shed with an explicit overload frame.
var WithMaxInflight = wire.WithMaxInflight

// WithMaxServerInflight caps concurrent request execution across all of a
// server's connections (0 = no server-wide cap); requests beyond the cap
// are shed with an explicit overload frame.
var WithMaxServerInflight = wire.WithMaxServerInflight

// ServeEngine exposes an engine as a networked data source on addr
// (use "127.0.0.1:0" to pick a free port).
func ServeEngine(addr string, e Engine, opts ...ServerOption) (*Server, error) {
	return wire.NewServer(addr, core.EngineHandler{Engine: e}, opts...)
}
