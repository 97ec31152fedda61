// Package core implements the DISCO mediator: the component that accepts
// ODL definitions and OQL queries, models data sources as first-class
// objects through the catalog, optimizes queries against wrapper
// capabilities and learned costs, executes them across data sources, and
// answers with partial-evaluation semantics when sources are unavailable.
//
// It is the paper's Mediator Prototype 0 (Figure 2) grown to the full
// design: OQL/ODL parsers feed the internal database (catalog), the query
// optimizer produces trees, the run-time system drives wrappers, and the
// result — possibly a query — returns to the caller.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"disco/internal/catalog"
	"disco/internal/costmodel"
	"disco/internal/odl"
	"disco/internal/optimizer"
	"disco/internal/source"
	"disco/internal/wire"
	"disco/internal/wrapper"
)

// DefaultTimeout is the §4 "designated time" after which data sources that
// have not answered are classified unavailable.
const DefaultTimeout = 2 * time.Second

// DefaultHedgeFloor is the minimum elapsed time before a submit may hedge:
// below it a backup request saves nothing and a cold cost history (or a
// microsecond-fast source) would otherwise hedge every call.
const DefaultHedgeFloor = time.Millisecond

// Mediator is a DISCO mediator instance. It is safe for concurrent use.
type Mediator struct {
	catalog *catalog.Catalog
	history *costmodel.History
	opt     *optimizer.Optimizer

	// Timeout bounds query evaluation; sources that do not answer within
	// it yield partial answers (QueryPartial) or errors (Query).
	timeout time.Duration
	// maxFanout bounds how many partition shards one scatter-gather drains
	// concurrently; 0 means unbounded.
	maxFanout int

	// breakers is the per-source circuit-breaker set fed by the
	// availability classifier and consulted by replica routing and the
	// cost model.
	breakers         *Breakers
	breakerThreshold int
	breakerCooldown  time.Duration

	// loadBalance spreads reads across the breaker-healthy copies of a
	// shard weighted by inverse estimated latency, instead of always
	// routing to the front of the cost-ordered candidate list.
	loadBalance bool
	// hedge enables backup submits for calls that outlast the hedge
	// trigger (and the scatter-gather straggler hook that rides it);
	// hedgeFloor bounds the trigger from below.
	hedge      bool
	hedgeFloor time.Duration

	// admit, when non-nil, is the admission gate (WithAdmission): the
	// overload-protection layer that bounds concurrent query execution,
	// queues a bounded FIFO of waiters, and sheds the rest with a typed
	// OverloadError before any source is dialed.
	admit *admission

	// submits counts every source attempt; with hedgesFired it forms the
	// global hedge budget (hedges are bounded to a fraction of traffic so
	// a slow spell cannot stampede the replicas). hedgesWon feeds the
	// Trace counters.
	submits     atomic.Int64
	hedgesFired atomic.Int64
	hedgesWon   atomic.Int64

	// Degradation counters surfaced through Trace and OverloadStats:
	// sheds counts queries refused by the admission gate, retries counts
	// transient source errors re-attempted under the retry budget, and
	// retryExhausted counts transients that could not retry because the
	// budget was spent.
	sheds          atomic.Int64
	retries        atomic.Int64
	retryExhausted atomic.Int64

	// epoch/readers implement the migration cutover drain: every query
	// executes inside the reader epoch current when it started, and
	// destructive migration cleanup (clearing a released shard) first flips
	// the epoch and waits for the old one to empty. A plan resolved against
	// the pre-cutover catalog therefore finishes before the shard it still
	// reads is wiped — the cleanup can never turn an in-flight dual-read
	// answer into silent row loss.
	epoch   atomic.Int64
	readers [2]atomic.Int64

	// shardMu guards shardReads: logical reads per shard (extent@repo),
	// counted once per submit regardless of failover/hedge attempts — the
	// traffic denominator hotspot detection divides by.
	shardMu    sync.Mutex
	shardReads map[string]int64

	// probeMu/probeClosed/probeWG track the background half-open probes,
	// so Close can refuse new ones and wait out those in flight instead
	// of letting them dial through a released client pool.
	probeMu     sync.Mutex
	probeClosed bool
	probeWG     sync.WaitGroup

	mu       sync.Mutex
	engines  map[string]source.Engine   // in-process engines by mem: name
	wrappers map[string]wrapper.Wrapper // instantiated per wrapper/repo pair
	clients  map[string]*wire.Client    // pooled wire clients by address

	// Prepared-statement cache: full Prepare pipelines (parse, view
	// expansion, compile, optimize) keyed by query text, flushed whenever
	// the catalog version moves (§3.3 invalidation for the whole pipeline).
	prepMu     sync.Mutex
	prepared   map[string]preparedPlan
	prepOrder  []string
	preparedAt int64
}

// Option configures a Mediator.
type Option func(*Mediator)

// WithTimeout sets the evaluation deadline for sources.
func WithTimeout(d time.Duration) Option {
	return func(m *Mediator) {
		if d > 0 {
			m.timeout = d
		}
	}
}

// WithHistory shares a cost history (useful for tests and for warm starts).
func WithHistory(h *costmodel.History) Option {
	return func(m *Mediator) { m.history = h }
}

// WithMaxFanout bounds how many partitions of a sharded extent the mediator
// queries concurrently (0 = all at once).
func WithMaxFanout(n int) Option {
	return func(m *Mediator) {
		if n > 0 {
			m.maxFanout = n
		}
	}
}

// WithBreaker tunes the per-source circuit breakers: a source opens after
// threshold consecutive classified unavailabilities and is probed again
// (half-open) after cooldown. Zero values keep the defaults
// (DefaultBreakerThreshold, DefaultBreakerCooldown).
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(m *Mediator) {
		m.breakerThreshold = threshold
		m.breakerCooldown = cooldown
	}
}

// WithAdmission installs the admission gate — the mediator's overload
// protection. At most maxConcurrent queries execute at once; up to
// maxQueued more wait in FIFO order for at most maxWait (non-positive
// values keep DefaultMaxQueued / DefaultMaxQueueWait); everything beyond
// that is shed immediately with an *OverloadError, before any source is
// dialed. A query whose remaining deadline cannot cover the gate's
// observed median service time is shed on arrival rather than queued to
// die waiting. Shedding keeps the latency of admitted queries bounded
// when offered load exceeds capacity — the callers that were answered
// were answered within the SLO, and the rest learned it immediately.
func WithAdmission(maxConcurrent, maxQueued int, maxWait time.Duration) Option {
	return func(m *Mediator) {
		if maxConcurrent > 0 {
			m.admit = newAdmission(maxConcurrent, maxQueued, maxWait)
		}
	}
}

// WithLoadBalancing routes each read to a weighted-random breaker-healthy
// copy of its shard — weight inverse to the copy's estimated latency, with
// an exploration floor so even a slow copy keeps a trickle of traffic that
// notices when it recovers. Without it replicas are a failover path only:
// every read goes to the single best copy.
func WithLoadBalancing() Option {
	return func(m *Mediator) { m.loadBalance = true }
}

// WithHedging enables hedged requests: a submit that has outlasted the
// best healthy copy's historical p99 (never less than floor; non-positive
// floor keeps DefaultHedgeFloor) fires a backup submit to the next-ranked
// replica and the first answer wins. A global budget bounds hedges to a
// fraction of total traffic. Hedging also arms the scatter-gather
// straggler hook: fan-out branches still running after most others
// finished are hedged immediately.
func WithHedging(floor time.Duration) Option {
	return func(m *Mediator) {
		m.hedge = true
		if floor > 0 {
			m.hedgeFloor = floor
		}
	}
}

// New returns an empty mediator.
func New(opts ...Option) *Mediator {
	m := &Mediator{
		catalog:    catalog.New(),
		history:    costmodel.New(),
		timeout:    DefaultTimeout,
		hedgeFloor: DefaultHedgeFloor,
		engines:    make(map[string]source.Engine),
		wrappers:   make(map[string]wrapper.Wrapper),
		clients:    make(map[string]*wire.Client),
		shardReads: make(map[string]int64),
	}
	for _, o := range opts {
		o(m)
	}
	m.breakers = NewBreakers(m.breakerThreshold, m.breakerCooldown)
	m.opt = optimizer.NewWithCapabilities(&mediatorCaps{m: m}, m.history)
	// The cost model consults the breakers: a submit to a source whose
	// breaker is open is charged the evaluation timeout it would likely
	// burn, and breaker transitions flush the prepared-statement cache,
	// since a prepared entry would otherwise keep serving an availability-
	// penalized plan without ever re-optimizing.
	m.opt.SetAvailability(
		func(repo string) bool { return m.breakers.State(repo) != BreakerOpen },
		float64(m.timeout)/float64(time.Millisecond),
	)
	m.breakers.SetNotify(m.flushPrepared)
	return m
}

// BreakerState reports the circuit-breaker state the mediator holds for a
// repository (monitoring, tests).
func (m *Mediator) BreakerState(repo string) BreakerState {
	return m.breakers.State(repo)
}

// Catalog exposes the mediator's internal database.
func (m *Mediator) Catalog() *catalog.Catalog { return m.catalog }

// History exposes the learned cost history.
func (m *Mediator) History() *costmodel.History { return m.history }

// Timeout reports the evaluation deadline.
func (m *Mediator) Timeout() time.Duration { return m.timeout }

// RegisterEngine attaches an in-process data source under a mem: name:
// a repository declared with address="mem:NAME" resolves to it.
func (m *Mediator) RegisterEngine(name string, e source.Engine) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.engines[name] = e
}

// ExecODL parses and applies a sequence of ODL statements: interface and
// extent declarations, Repository/Wrapper construction, view definitions
// and extent drops.
func (m *Mediator) ExecODL(src string) error {
	stmts, err := odl.Parse(src)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if err := m.Apply(s); err != nil {
			return err
		}
	}
	return nil
}

// Apply applies one parsed ODL statement to the catalog.
func (m *Mediator) Apply(stmt odl.Statement) error {
	switch s := stmt.(type) {
	case *odl.InterfaceDecl:
		return m.catalog.DefineInterface(s.Iface)
	case *odl.RepositoryDecl:
		return m.catalog.AddRepository(&catalog.Repository{
			Name:    s.Name,
			Host:    s.Props["host"],
			Address: s.Props["address"],
			DB:      s.Props["name"],
			Props:   s.Props,
		})
	case *odl.WrapperDecl:
		return m.catalog.AddWrapper(&catalog.Wrapper{
			Name:  s.Name,
			Kind:  normalizeWrapperKind(s.Kind),
			Props: s.Props,
		})
	case *odl.ExtentDecl:
		return m.catalog.AddExtent(&catalog.MetaExtent{
			Name:         s.Name,
			Iface:        s.Iface,
			Wrapper:      s.Wrapper,
			Repository:   s.Repository,
			Repositories: s.Repositories,
			Replicas:     s.Replicas,
			Scheme:       s.Scheme,
			SourceName:   s.SourceName,
			AttrMap:      s.AttrMap,
		})
	case *odl.ViewDecl:
		return m.catalog.DefineView(s.Name, s.Query)
	case *odl.DropExtentDecl:
		return m.catalog.DropExtent(s.Name)
	case *odl.MigrateDecl:
		return m.catalog.RestoreMigration(&catalog.Migration{
			Extent: s.Extent, Kind: s.Kind, From: s.From, To: s.To,
			SplitAt: s.SplitAt, Phase: s.Phase,
		})
	default:
		return fmt.Errorf("mediator: unknown statement %T", stmt)
	}
}

// normalizeWrapperKind maps the WrapperX() constructor suffixes onto the
// implemented wrapper kinds.
func normalizeWrapperKind(kind string) string {
	switch kind {
	case "postgres", "sql", "relational", "oracle", "sybase":
		return "sql"
	case "scan", "file":
		return "scan"
	case "doc", "wais", "keyword":
		return "doc"
	case "csv":
		return "csv"
	case "mediator", "disco":
		return "mediator"
	default:
		return kind
	}
}
