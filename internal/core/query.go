package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"disco/internal/algebra"
	"disco/internal/oql"
	"disco/internal/partial"
	"disco/internal/physical"
	"disco/internal/types"
)

// Trace records the Figure 2 pipeline stages for one query.
type Trace struct {
	Parse    time.Duration
	Expand   time.Duration // view expansion against the internal db
	Compile  time.Duration
	Optimize time.Duration
	Execute  time.Duration
	Plan     string
	// CacheHit is true when the query's plan came from the prepared-
	// statement cache, the mediator's only plan cache: the front half
	// (parse, expand, compile, optimize) was skipped and its four stage
	// timings are zero.
	CacheHit bool
	// AdmissionWait is the time this query spent queued at the admission
	// gate before execution began (zero when admitted immediately, or when
	// the mediator runs without WithAdmission).
	AdmissionWait time.Duration
	// Shed is 1 when the admission gate refused this query (the query then
	// returned an *OverloadError and dialed no source).
	Shed int64
	// HedgesFired/HedgesWon count the hedged backup submits this query
	// launched, and those that answered first.
	HedgesFired int64
	HedgesWon   int64
	// Retried counts this query's transient source errors (mid-answer
	// drops, refused dials with deadline to spare) that were re-attempted
	// under the retry budget; RetryBudgetExhausted counts its transients
	// that wanted a retry the budget refused.
	Retried              int64
	RetryBudgetExhausted int64
	// ShardReads counts this query's logical shard reads, nested subqueries
	// included, keyed extent@repo (the plain extent name when the extent is
	// not partitioned): this query's share of the traffic counters hotspot
	// detection aggregates.
	ShardReads map[string]int64

	// admittedAt marks when the admission gate granted the slot; the
	// release path uses it to observe the query's service time.
	admittedAt time.Time
}

// String renders the stage timings and degradation counters — why the
// query was slow, shed, or retried — in one line per stage.
func (tr *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "parse    %v\n", tr.Parse)
	fmt.Fprintf(&b, "expand   %v\n", tr.Expand)
	fmt.Fprintf(&b, "compile  %v\n", tr.Compile)
	fmt.Fprintf(&b, "optimize %v\n", tr.Optimize)
	if tr.CacheHit {
		b.WriteString("(prepared-statement cache hit: front half skipped)\n")
	}
	if tr.Plan != "" {
		fmt.Fprintf(&b, "plan     %s\n", tr.Plan)
	}
	if tr.AdmissionWait > 0 || tr.Shed > 0 {
		fmt.Fprintf(&b, "admission wait %v\n", tr.AdmissionWait)
	}
	if tr.Shed > 0 {
		b.WriteString("shed by admission gate (overload)\n")
	}
	fmt.Fprintf(&b, "execute  %v\n", tr.Execute)
	if tr.HedgesFired > 0 {
		fmt.Fprintf(&b, "hedges fired=%d won=%d\n", tr.HedgesFired, tr.HedgesWon)
	}
	if tr.Retried > 0 || tr.RetryBudgetExhausted > 0 {
		fmt.Fprintf(&b, "transient retries=%d budget-refused=%d\n", tr.Retried, tr.RetryBudgetExhausted)
	}
	if len(tr.ShardReads) > 0 {
		shards := make([]string, 0, len(tr.ShardReads))
		for s := range tr.ShardReads {
			shards = append(shards, s)
		}
		sort.Strings(shards)
		b.WriteString("shard reads")
		for _, s := range shards {
			fmt.Fprintf(&b, " %s=%d", s, tr.ShardReads[s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Prepare runs the front half of the pipeline: parse, view expansion,
// compilation and optimization. The returned plan can be executed multiple
// times.
//
// Results are cached per (query text, catalog version): a repeated query
// skips the whole front half — the returned Trace reports CacheHit with
// every stage timing at zero. Any catalog change (ExecODL, Define, drops)
// invalidates the cache.
func (m *Mediator) Prepare(src string) (algebra.Node, *Trace, error) {
	entry, tr, err := m.prepare(src)
	return entry.plan, tr, err
}

// prepare is Prepare returning the whole cache entry: the plan's
// compiled-program cache, which executions of a prepared plan share so
// operator expressions compile once per prepared statement rather than once
// per query, and the optimizer's report, which Explain renders. It is the
// mediator's one front-half pipeline: every query path and Explain go
// through it.
func (m *Mediator) prepare(src string) (preparedPlan, *Trace, error) {
	version := m.catalog.Version()
	if entry, ok := m.preparedLookup(src, version); ok {
		return entry, &Trace{Plan: entry.str, CacheHit: true}, nil
	}

	tr := &Trace{}
	t0 := time.Now()
	expr, err := oql.ParseQuery(src)
	if err != nil {
		return preparedPlan{}, tr, err
	}
	tr.Parse = time.Since(t0)

	t0 = time.Now()
	expanded, err := m.expandViews(expr)
	if err != nil {
		return preparedPlan{}, tr, err
	}
	tr.Expand = time.Since(t0)

	t0 = time.Now()
	plan, err := algebra.Compile(expanded, planResolver{m: m})
	if err != nil {
		return preparedPlan{}, tr, err
	}
	tr.Compile = time.Since(t0)

	t0 = time.Now()
	optimized, report := m.opt.Optimize(plan)
	tr.Optimize = time.Since(t0)
	tr.Plan = optimized.String()
	entry := m.preparedStore(src, version, preparedPlan{plan: optimized, str: tr.Plan, report: report, progs: oql.NewProgramCache()})
	return entry, tr, nil
}

// Query evaluates an OQL query and returns its value. Unavailable sources
// surface as errors; use QueryPartial for the §4 semantics.
func (m *Mediator) Query(src string) (types.Value, error) {
	v, _, err := m.QueryTraced(src)
	return v, err
}

// QueryContext is Query bounded by the caller's context as well as the
// evaluation deadline. A context that is cancelled (or whose deadline
// fires) ends the query as a caller-side error — never a partial answer —
// and a context whose remaining deadline cannot cover the typical service
// time is shed immediately by the admission gate when one is installed.
func (m *Mediator) QueryContext(ctx context.Context, src string) (types.Value, error) {
	v, _, err := m.queryTraced(ctx, src)
	return v, err
}

// QueryTraced is Query with pipeline stage timings.
func (m *Mediator) QueryTraced(src string) (types.Value, *Trace, error) {
	//lint:allow ctxflow compat shim for the context-free public API; context-aware callers use QueryContext
	return m.queryTraced(context.Background(), src)
}

func (m *Mediator) queryTraced(ctx context.Context, src string) (v types.Value, tr *Trace, err error) {
	tr, err = m.run(ctx, src, func(ctx context.Context, p *physical.Plan, _ algebra.Node) (err error) {
		v, err = p.Run(ctx)
		return err
	})
	return v, tr, err
}

// QueryPartial evaluates a query under partial-evaluation semantics: if
// some sources do not answer before the deadline, the answer is another
// query (§4).
func (m *Mediator) QueryPartial(src string) (*partial.Answer, error) {
	//lint:allow ctxflow compat shim for the context-free public API; context-aware callers use QueryPartialContext
	return m.QueryPartialContext(context.Background(), src)
}

// QueryPartialContext is QueryPartial bounded by the caller's context.
// Admission applies before any source is dialed: a shed query returns an
// *OverloadError, not a partial answer — shed and "source down" are
// different verdicts and callers can tell them apart.
func (m *Mediator) QueryPartialContext(ctx context.Context, src string) (ans *partial.Answer, err error) {
	_, err = m.run(ctx, src, func(ectx context.Context, p *physical.Plan, plan algebra.Node) (err error) {
		if ans, err = partial.Evaluate(ectx, p); err == nil {
			// The version snapshot runs under the caller's ctx: it comes after
			// the evaluation budget is (by definition of a partial answer) spent.
			m.snapshotPartial(ctx, plan, ans)
		}
		return err
	})
	return ans, err
}

// run is the one query runner. It holds a read epoch, prepares the plan,
// bounds evaluation by the §4 deadline, passes the admission gate and
// builds the physical plan, then hands eval the plan and an evaluation
// context carrying the query's recorder. The recorder stops writing the
// trace when eval returns.
func (m *Mediator) run(ctx context.Context, src string, eval func(ctx context.Context, p *physical.Plan, plan algebra.Node) error) (*Trace, error) {
	defer m.enterReadEpoch()()
	entry, tr, err := m.prepare(src)
	if err != nil {
		return tr, err
	}
	ctx, cancel := withEvalDeadline(ctx, m.timeout)
	defer cancel()
	if err := m.admitQuery(ctx, tr); err != nil {
		return tr, err
	}
	defer m.admitDone(tr)
	tr.ShardReads = map[string]int64{}
	rec := &queryRecorder{tr: tr}
	ctx = context.WithValue(ctx, queryRecorderKey{}, rec)
	p, err := m.buildPhysical(ctx, entry.plan, entry.progs)
	if err != nil {
		return tr, err
	}
	t0 := time.Now()
	err = eval(ctx, p, entry.plan)
	rec.mu.Lock()
	rec.tr = nil
	rec.mu.Unlock()
	tr.Execute = time.Since(t0)
	return tr, err
}

// queryRecorder counts the hedges, retries and shard reads one query's
// evaluation causes into its Trace, at the sites that bump the
// mediator-wide counters. It travels in the evaluation context, so
// concurrent queries never see each other's events. Events after eval
// returns (a cancelled hedge loser unwinding) are dropped: the trace is
// the caller's by then. Submits no query caused (migration copies) carry
// no recorder and record nothing.
type queryRecorder struct {
	mu sync.Mutex
	tr *Trace // nil once eval has returned
}

type queryRecorderKey struct{}

// queryRecorderFrom returns the recorder ctx carries, or nil.
func queryRecorderFrom(ctx context.Context) *queryRecorder {
	rec, _ := ctx.Value(queryRecorderKey{}).(*queryRecorder)
	return rec
}

// record applies one event to the query's trace. A nil recorder, or one
// whose eval has returned, records nothing.
func (r *queryRecorder) record(event func(tr *Trace)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tr != nil {
		event(r.tr)
	}
}

// admitQuery passes the query through the admission gate (a no-op without
// WithAdmission), recording the queue wait — and the shed, if the gate
// refuses — on the trace. It must run before the physical plan is built:
// a shed query performs zero source dials.
func (m *Mediator) admitQuery(ctx context.Context, tr *Trace) error {
	if m.admit == nil {
		return nil
	}
	deadline, _ := ctx.Deadline()
	wait, shed := m.admit.acquire(deadline)
	tr.AdmissionWait = wait
	if shed != nil {
		tr.Shed = 1
		m.sheds.Add(1)
		return shed
	}
	tr.admittedAt = time.Now()
	return nil
}

// admitDone releases the admission slot and feeds the query's service time
// into the gate's p50 window (the signal deadline-aware shedding uses).
func (m *Mediator) admitDone(tr *Trace) {
	if m.admit == nil || tr.admittedAt.IsZero() {
		return
	}
	m.admit.observe(time.Since(tr.admittedAt))
	m.admit.release()
}

// OverloadStats reports the mediator-wide degradation counters: queries
// shed by the admission gate, transient source errors retried under the
// retry budget, and retries the exhausted budget refused.
func (m *Mediator) OverloadStats() (shed, retried, retryBudgetExhausted int64) {
	return m.sheds.Load(), m.retries.Load(), m.retryExhausted.Load()
}

// Explain returns the optimizer's report for a query: every candidate plan
// with its estimated cost, the chosen one marked, followed by the live
// hot-shard report. The optimizer's report comes from the prepared cache,
// so Explain shares Prepare's pipeline and its catalog-version invalidation.
func (m *Mediator) Explain(src string) (string, error) {
	entry, _, err := m.prepare(src)
	if err != nil {
		return "", err
	}
	out := entry.report.String()
	if hot := m.hotShardReport(); hot != "" {
		if !strings.HasSuffix(out, "\n") {
			out += "\n"
		}
		out += hot
	}
	return out, nil
}

// ExplainPlan returns the chosen plan for a query rendered as an indented
// operator tree.
func (m *Mediator) ExplainPlan(src string) (string, error) {
	plan, _, err := m.Prepare(src)
	if err != nil {
		return "", err
	}
	return algebra.TreeString(plan), nil
}

// DumpODL renders the mediator's catalog as ODL text that reproduces it.
func (m *Mediator) DumpODL() string { return m.catalog.DumpODL() }

// Define registers a view from OQL text (define name as query).
func (m *Mediator) Define(src string) error {
	d, err := oql.ParseDefine(src)
	if err != nil {
		return err
	}
	return m.catalog.DefineView(d.Name, d.Query)
}

// MustQuery is Query for examples and tests that treat failure as fatal.
func (m *Mediator) MustQuery(src string) types.Value {
	v, err := m.Query(src)
	if err != nil {
		panic(fmt.Sprintf("query %q: %v", src, err))
	}
	return v
}
