package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"syscall"
	"time"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/catalog"
	"disco/internal/costmodel"
	"disco/internal/oql"
	"disco/internal/physical"
	"disco/internal/types"
	"disco/internal/wire"
	"disco/internal/wrapper"
)

// buildPhysical wires a logical plan to the mediator's runtime. ctx is the
// evaluation context the plan will run under; nested subqueries resolve
// with its values. progs is the plan's compiled-program cache (shared
// across executions of a prepared plan); nil compiles per execution.
func (m *Mediator) buildPhysical(ctx context.Context, plan algebra.Node, progs *oql.ProgramCache) (*physical.Plan, error) {
	rt := &physical.Runtime{
		Submit:    m.submit,
		Resolver:  valueResolver{m: m, ctx: ctx},
		MaxFanout: m.maxFanout,
		Programs:  progs,
	}
	return physical.Build(plan, rt)
}

// submit is the mediator side of the exec physical algorithm (§3.3) with
// replica failover: the shard's copies race as arms (submitShard,
// raceCopies), so partial evaluation fires only when every copy of the
// shard is unavailable. The per-source circuit breaker defers copies that
// recently failed (a warm breaker skips a dead primary without re-paying
// its timeout) and the learned cost history orders the healthy copies
// fastest-first.
func (m *Mediator) submit(ctx context.Context, repo string, expr algebra.Node) (*types.Bag, error) {
	refs := exprRefs(expr)
	m.countShardReads(ctx, refs)
	bag, err := m.submitShard(ctx, repo, expr)
	if err != nil && isUnavailableErr(err) && allStandby(refs) {
		// The unreachable copy is the *new* placement of a migrating shard
		// (the standby branch of a dual-read). The old placement branch still
		// holds every row, so the standby degrades to an empty answer instead
		// of poisoning the query with a residual. The breaker has already
		// recorded the failure; the migration driver sees it before cutover.
		return types.NewBag(), nil
	}
	return bag, err
}

// countShardReads bumps the per-shard traffic counters, one per logical
// shard read, and records each read against the query ctx belongs to.
// Standby (dual-read new placement) branches are skipped: they duplicate a
// counted read of the same shard.
func (m *Mediator) countShardReads(ctx context.Context, refs []algebra.ExtentRef) {
	rec := queryRecorderFrom(ctx)
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	for _, r := range refs {
		if r.Standby {
			continue
		}
		shard := r.QualifiedName()
		m.shardReads[shard]++
		rec.record(func(tr *Trace) { tr.ShardReads[shard]++ })
	}
}

// allStandby reports whether every extent the expression reads is a
// dual-read standby copy (and there is at least one).
func allStandby(refs []algebra.ExtentRef) bool {
	if len(refs) == 0 {
		return false
	}
	for _, r := range refs {
		if !r.Standby {
			return false
		}
	}
	return true
}

// submitShard routes one shard read: the shard's copies, ranked for
// routing (breaker state, then learned cost; load balancing may move a
// healthy copy to the head), race as arms in raceCopies. Half-open probes
// ride query traffic afterwards: copies whose open breaker's cooldown has
// elapsed are pinged in the background, so a recovered copy rejoins without
// a user query paying for the discovery.
func (m *Mediator) submitShard(ctx context.Context, shard string, expr algebra.Node) (*types.Bag, error) {
	cands := m.orderCandidates(m.submitCandidates(shard, expr), expr)
	if m.loadBalance {
		cands = m.rebalance(cands)
	}
	bag, err := m.raceCopies(ctx, shard, expr, cands)
	for _, cand := range cands {
		m.maybeProbe(cand)
	}
	return bag, err
}

// rebalance spreads read traffic across a shard's healthy copies: the head
// of the candidate list is drawn at weighted random from the leading run
// of closed-breaker copies, weight inverse to the copy's recent median
// latency. An unmeasured copy weighs as much as the fastest measured one
// (new replicas must attract traffic to be learned at all), and every
// weight is floored at 1/20 of the fastest so a slow copy keeps ~5% of the
// traffic — the trickle that notices when it speeds up. Failover order
// behind the head is untouched.
func (m *Mediator) rebalance(cands []string) []string {
	lead := 0
	for _, c := range cands {
		if m.breakers.State(c) != BreakerClosed {
			break
		}
		lead++
	}
	if lead < 2 {
		return cands
	}
	weights := make([]float64, lead)
	maxW := 0.0
	for i := 0; i < lead; i++ {
		if p50, ok := m.history.Quantile(cands[i], 0.5); ok {
			lat := p50
			if lat < 100*time.Microsecond {
				lat = 100 * time.Microsecond
			}
			weights[i] = 1 / float64(lat)
			if weights[i] > maxW {
				maxW = weights[i]
			}
		}
	}
	if maxW == 0 {
		maxW = 1
	}
	total := 0.0
	for i := range weights {
		if weights[i] == 0 {
			weights[i] = maxW
		} else if weights[i] < maxW/20 {
			weights[i] = maxW / 20
		}
		total += weights[i]
	}
	r := rand.Float64() * total
	pick := 0
	for i, w := range weights {
		if r -= w; r < 0 {
			pick = i
			break
		}
	}
	if pick == 0 {
		return cands
	}
	out := make([]string, 0, len(cands))
	out = append(out, cands[pick])
	out = append(out, cands[:pick]...)
	return append(out, cands[pick+1:]...)
}

// maybeProbe launches one background liveness probe of a source whose
// breaker is not closed and whose cooldown has elapsed. Allow claims the
// half-open probe slot, so concurrent queries start at most one probe per
// source. The probe's verdict follows noteOutcome's taxonomy: only an
// answer closes the breaker, only unreachability (timeout, dead network)
// re-arms it, and a mediator-side failure that never consulted the source
// (catalog lookup, a closed client) merely returns the probe slot.
// Probes run on tracked goroutines: Close refuses new ones and waits for
// those in flight, so no probe ever dials through a client pool Close has
// already released.
func (m *Mediator) maybeProbe(repo string) {
	if m.breakers.State(repo) == BreakerClosed || !m.breakers.Allow(repo) {
		return
	}
	m.probeMu.Lock()
	if m.probeClosed {
		m.probeMu.Unlock()
		// Allow claimed the half-open probe slot; hand it back, or the
		// breaker would stay pinned half-open with no probe in flight.
		m.breakers.Release(repo)
		return
	}
	m.probeWG.Add(1)
	m.probeMu.Unlock()
	go func() {
		defer m.probeWG.Done()
		switch err := m.pingRepo(repo); {
		case err == nil:
			m.breakers.Success(repo)
		case errors.Is(err, context.DeadlineExceeded) || isUnavailableNetErr(err):
			m.breakers.Failure(repo)
		default:
			m.breakers.Release(repo)
		}
	}()
}

// pingRepo checks a repository's liveness: in-process engines by registry
// lookup, remote repositories by a wire ping within the evaluation
// deadline.
func (m *Mediator) pingRepo(repo string) error {
	r, err := m.catalog.Repository(repo)
	if err != nil {
		return err
	}
	if name, ok := strings.CutPrefix(r.Address, "mem:"); ok {
		m.mu.Lock()
		_, found := m.engines[name]
		m.mu.Unlock()
		if !found {
			return fmt.Errorf("mediator: no in-process engine %q", name)
		}
		return nil
	}
	//lint:allow ctxflow breaker probes deliberately outlive the query that triggered them (probeWG-tracked, bounded by the mediator timeout): a caller walking away must not strand the breaker half-open
	ctx, cancel := context.WithTimeout(context.Background(), m.timeout)
	defer cancel()
	return m.clientFor(r.Address).Ping(ctx)
}

// armResult carries one arm's outcome back to the race.
type armResult struct {
	bag   *types.Bag
	err   error
	hedge bool
}

// raceCopies is the one dial routine for a shard read. Every copy in cands
// (routing order) is an arm of one race:
//   - A copy whose breaker admits it is an arm. The first launches at once;
//     the next when the newest arm resolves unavailable (failover), when the
//     hedge timer fires (a hedged request), or when the scatter-gather
//     straggler hook fires.
//   - A copy whose breaker refuses it, up front or at its launch-time Allow,
//     is a deferred arm. It launches only on unavailability, once no arm is
//     in flight and no admittable arm is left, and never as a hedge. A
//     breaker can therefore delay a copy, but never leave it undialed while
//     the shard goes unanswered: it cannot forge a partial answer.
//   - A lone copy is a one-arm race, dialed whatever its breaker says.
//
// The first answer wins and the losers are cancelled. A cancelled loser
// classifies as caller-side termination, so its breaker verdict is a slot
// Release and its cost history records nothing: losing a race is not
// evidence about the source. A real (answered) error aborts at once; the
// shard is unavailable only once every arm resolved unavailable.
//
// The evaluation budget splits over the admittable arms plus one share the
// deferred arms reserve together; they re-split whatever is left if
// reached. Splitting over all copies up front would let a crowd of
// breaker-refused copies starve the first admittable one of deadline.
func (m *Mediator) raceCopies(ctx context.Context, shard string, expr algebra.Node, cands []string) (*types.Bag, error) {
	var arms, deferred []string
	for _, cand := range cands {
		if m.breakers.Admittable(cand) {
			arms = append(arms, cand)
		} else {
			deferred = append(deferred, cand)
		}
	}
	reserve := 0
	if len(deferred) > 0 {
		reserve = 1
	}
	rec := queryRecorderFrom(ctx)
	// One slot per copy, so a cancelled loser's send never blocks.
	results := make(chan armResult, len(cands))
	var cancels []context.CancelFunc
	// cancels grows only on this goroutine, so the sweep sees every arm;
	// cancelling the winner after its result is in hand is a no-op.
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	next, nextDeferred, inflight := 0, 0, 0
	// launch starts the next arm the rules allow and reports whether it did.
	// An arm nothing can race (no admittable arm left, none in flight) runs
	// on this goroutine; the others run on their own until the race ends.
	launch := func(hedge bool) bool {
		for ctx.Err() == nil {
			var cand string
			var remaining int
			switch {
			case next < len(arms):
				cand, remaining = arms[next], len(arms)-next+reserve
				next++
				if !m.breakers.Allow(cand) {
					deferred = append(deferred, cand)
					continue
				}
			case !hedge && inflight == 0 && nextDeferred < len(deferred):
				cand, remaining = deferred[nextDeferred], len(deferred)-nextDeferred
				nextDeferred++
			default:
				return false
			}
			if hedge {
				m.hedgesFired.Add(1)
				rec.record(func(tr *Trace) { tr.HedgesFired++ })
			}
			raced := inflight > 0 || next < len(arms)
			inflight++
			actx := ctx
			if raced || remaining > 1 {
				var cancel context.CancelFunc
				actx, cancel = attemptCtx(ctx, remaining)
				cancels = append(cancels, cancel)
			}
			if raced {
				go func() {
					results <- m.dialArm(actx, cand, expr, hedge)
				}()
			} else {
				results <- m.dialArm(actx, cand, expr, hedge)
			}
			return true
		}
		return false
	}

	var hedgeC <-chan time.Time
	rearmHedge := func() {
		hedgeC = nil
		if m.hedge && next < len(arms) {
			hedgeC = time.After(m.hedgeDelay(arms))
		}
	}
	var hurry <-chan struct{}
	if m.hedge {
		hurry = physical.HurryChan(ctx)
	}
	var lastUnavail error
	if launch(false) {
		rearmHedge()
	}
	// Every arm's context is bounded by the caller's, so each launched arm
	// reports and the loop ends.
	for inflight > 0 {
		select {
		case r := <-results:
			inflight--
			if r.err == nil {
				if r.hedge {
					m.hedgesWon.Add(1)
					rec.record(func(tr *Trace) { tr.HedgesWon++ })
				}
				return r.bag, nil
			}
			if !isUnavailableErr(r.err) {
				// The source answered with a genuine failure (or the caller
				// ended the query): no other copy may mask it.
				return nil, r.err
			}
			lastUnavail = r.err
			if launch(false) {
				rearmHedge()
			}
		case <-hedgeC:
			if m.allowHedge() && launch(true) {
				rearmHedge()
			} else {
				hedgeC = nil
			}
		case <-hurry:
			hurry = nil
			if m.allowHedge() && launch(true) {
				rearmHedge()
			}
		}
	}
	if err := ctx.Err(); err != nil || lastUnavail == nil {
		// The caller's context ended before (or while) the copies were
		// tried: classify its error, not the copies'.
		if err == nil {
			err = errors.New("no candidate attempted")
		}
		return nil, classifySourceError(ctx, shard, fmt.Errorf("mediator: submit to %s: %w", shard, err))
	}
	return nil, &physical.UnavailableError{
		Repo: shard,
		Err:  fmt.Errorf("no copy answered: %w", lastUnavail),
	}
}

// dialArm runs one arm: a submit to one copy, its outcome fed to the
// copy's breaker.
func (m *Mediator) dialArm(ctx context.Context, repo string, expr algebra.Node, hedge bool) armResult {
	bag, err := m.submitOnce(ctx, repo, expr)
	m.noteOutcome(repo, err)
	return armResult{bag: bag, err: err, hedge: hedge}
}

// hedgeDelay is the elapsed time past which a submit counts as in the
// tail: the smallest historical p99 among the shard's healthy copies — a
// call that has outlasted the best copy's p99 would almost surely have
// finished there, so re-issuing is worth the duplicate work. The attempted
// copy's own p99 would never rescue a copy that is consistently slow (its
// own tail tracks its slowness). The hedge floor bounds the trigger from
// below when the history is cold or the copies are microsecond-fast.
func (m *Mediator) hedgeDelay(cands []string) time.Duration {
	best := time.Duration(0)
	for _, cand := range cands {
		if p99, ok := m.history.Quantile(cand, 0.99); ok && (best == 0 || p99 < best) {
			best = p99
		}
	}
	if best > m.hedgeFloor {
		return best
	}
	return m.hedgeFloor
}

// allowHedge is the global hedge budget: hedges may be at most ~1/8 of
// total submit traffic (plus a small burst allowance for cold starts), so
// a slow spell degrades into bounded duplicate work instead of a stampede
// that doubles the load on already-struggling replicas.
func (m *Mediator) allowHedge() bool {
	return m.hedgesFired.Load()*8 < m.submits.Load()+64
}

// attemptCtx derives the deadline for one failover attempt: an equal share
// of the time left until the parent deadline, over this and the remaining
// candidates of the same round. The share derives from a single clock
// read — measuring "time left" and "now" separately would silently shrink
// it. The last candidate (and deadline-free contexts) run under the parent
// deadline; the context is always cancellable so a racing arm can be
// called off.
func attemptCtx(ctx context.Context, remaining int) (context.Context, context.CancelFunc) {
	deadline, ok := ctx.Deadline()
	if !ok || remaining <= 1 {
		return context.WithCancel(ctx)
	}
	now := time.Now()
	share := deadline.Sub(now) / time.Duration(remaining)
	if share <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithDeadline(ctx, now.Add(share))
}

// submitCandidates returns the repositories holding a copy of everything
// the submit expression reads, primary first: the intersection of the
// replica groups of the expression's extent refs (an expression reading
// two extents can only fail over to a repository holding both).
func (m *Mediator) submitCandidates(repo string, expr algebra.Node) []string {
	var cands []string
	for _, ref := range exprRefs(expr) {
		group := ref.Replicas
		if len(group) == 0 {
			if me, err := m.catalog.Extent(ref.Extent); err == nil {
				group = me.ReplicaGroup(repo)
			}
		}
		if len(group) == 0 {
			group = []string{repo}
		}
		if cands == nil {
			cands = group
		} else {
			cands = intersectOrdered(cands, group)
		}
	}
	if len(cands) == 0 {
		return []string{repo}
	}
	return cands
}

// intersectOrdered keeps the members of a that also appear in b, in a's
// order.
func intersectOrdered(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	out := a[:0:0]
	for _, x := range a {
		if in[x] {
			out = append(out, x)
		}
	}
	return out
}

// orderCandidates sorts a shard's copies for routing: breaker-healthy
// copies first (closed before half-open before open), then by the learned
// cost history's smoothed response time — the cost-model consult that
// prefers the fastest live replica. Copies with no history sort after
// measured ones (the optimizer's zero-time default would otherwise make
// every unknown replica leapfrog a known-fast primary), and ties keep
// declaration order, so the primary leads until the history says
// otherwise.
func (m *Mediator) orderCandidates(cands []string, expr algebra.Node) []string {
	if len(cands) < 2 {
		return cands
	}
	type ranked struct {
		repo string
		rank int
		time time.Duration
	}
	rs := make([]ranked, len(cands))
	for i, cand := range cands {
		r := ranked{repo: cand}
		switch m.breakers.State(cand) {
		case BreakerClosed:
			r.rank = 0
		case BreakerHalfOpen:
			r.rank = 1
		default:
			r.rank = 2
		}
		est := m.history.Estimate(cand, expr)
		if est.Basis == costmodel.BasisDefault {
			r.time = time.Duration(1<<63 - 1)
		} else {
			r.time = est.Time
		}
		rs[i] = r
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].rank != rs[j].rank {
			return rs[i].rank < rs[j].rank
		}
		return rs[i].time < rs[j].time
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.repo
	}
	return out
}

// noteOutcome feeds one submit attempt's result into the source's circuit
// breaker: only a real answer counts as success (data, a remote error, or
// an upstream mediator's partial answer — each proves the source alive),
// only classified unavailability counts as failure, and everything else —
// caller-side termination, mediator-side failures that never dialed the
// source (wrapper lookup, translation) — records no verdict, merely
// returning any half-open probe slot the attempt had claimed.
func (m *Mediator) noteOutcome(repo string, err error) {
	var upstream *wire.PartialUpstreamError
	var remote *wire.RemoteError
	switch {
	case err == nil:
		m.breakers.Success(repo)
	case errors.As(err, &upstream), errors.As(err, &remote):
		// Checked before the unavailability case: classify wraps an
		// upstream partial answer in an UnavailableError for partial
		// evaluation, but for the breaker that source answered.
		m.breakers.Success(repo)
	case isUnavailableErr(err):
		m.breakers.Failure(repo)
	default:
		m.breakers.Release(repo)
	}
}

func isUnavailableErr(err error) bool {
	var ue *physical.UnavailableError
	return errors.As(err, &ue)
}

// submitOnce is submitAttempt plus the retry budget: a classified
// transient failure (the source was reached and then the exchange broke —
// a mid-answer drop, a refused dial with deadline to spare, a shed by an
// overloaded server) gets exactly one re-attempt after a jittered backoff,
// provided the token-bucket retry budget admits it. The budget accrues
// with submit traffic (~10% of recent submits, the hedging-budget
// pattern), so retries help at low failure rates and self-disable under
// collapse — when most submits fail, retrying each one would double the
// load on sources already drowning. A transient that cannot be retried,
// or whose retry fails transiently again, degrades to an UnavailableError
// so replica failover and partial evaluation take over: the caller sees a
// residual, not a torn connection.
func (m *Mediator) submitOnce(ctx context.Context, repo string, expr algebra.Node) (*types.Bag, error) {
	bag, err := m.submitAttempt(ctx, repo, expr)
	var tr *TransientError
	if err == nil || !errors.As(err, &tr) {
		return bag, err
	}
	if ctx.Err() == nil {
		if m.allowRetry() {
			m.retries.Add(1)
			queryRecorderFrom(ctx).record(func(tr *Trace) { tr.Retried++ })
			retryBackoff(ctx)
			if ctx.Err() == nil {
				bag, err = m.submitAttempt(ctx, repo, expr)
				if err == nil {
					return bag, nil
				}
			}
		} else {
			m.retryExhausted.Add(1)
			queryRecorderFrom(ctx).record(func(tr *Trace) { tr.RetryBudgetExhausted++ })
		}
	}
	if errors.As(err, &tr) {
		return nil, &physical.UnavailableError{Repo: tr.Repo, Err: tr.Err}
	}
	return nil, err
}

// allowRetry is the retry budget: retries may be at most ~1/10 of total
// submit traffic, plus a small burst allowance so a cold mediator can
// still retry its first flakes.
func (m *Mediator) allowRetry() bool {
	return m.retries.Load()*10 < m.submits.Load()+32
}

// retryBackoff sleeps a short jittered delay before the one-shot retry, so
// a source that dropped a burst of connections at once is not re-hit by
// the whole burst in lockstep. Bounded by the attempt's context.
func retryBackoff(ctx context.Context) {
	d := 500*time.Microsecond + time.Duration(rand.Int63n(int64(2*time.Millisecond)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// submitAttempt executes a submit expression at one repository: it finds
// the wrapper serving the expression, translates the expression into the
// source namespace via the local transformation maps, executes it, renames
// and type-checks the results, and records the call in the cost history.
func (m *Mediator) submitAttempt(ctx context.Context, repo string, expr algebra.Node) (*types.Bag, error) {
	m.submits.Add(1) // hedge-budget denominator: every source attempt counts
	w, err := m.wrapperForExpr(repo, expr)
	if err != nil {
		return nil, err
	}
	src, err := algebra.ToSource(expr)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	bag, err := w.Execute(ctx, src)
	if err != nil {
		return nil, classifySourceError(ctx, repo, err)
	}
	elapsed := time.Since(start)

	// Reformat: rename attributes back into the mediator namespace.
	refs := exprRefs(expr)
	bag, err = types.BagMap(bag, func(e types.Value) (types.Value, error) {
		st, ok := e.(*types.Struct)
		if !ok {
			return e, nil
		}
		for _, ref := range refs {
			st = algebra.FromSource(ref, st)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}

	// Run-time type check (§2.1): full-object retrievals must conform to
	// the mediator interface.
	if get, ok := expr.(*algebra.Get); ok && get.Ref.Iface != "" {
		if err := wrapper.CheckResult(m.catalog.Schema(), get.Ref.Iface, bag); err != nil {
			return nil, err
		}
	}

	// Learn the call's cost (§3.3).
	m.history.Record(repo, expr, elapsed, bag.Len())
	return bag, nil
}

func exprRefs(expr algebra.Node) []algebra.ExtentRef {
	var refs []algebra.ExtentRef
	algebra.Walk(expr, func(n algebra.Node) {
		if g, ok := n.(*algebra.Get); ok {
			refs = append(refs, g.Ref)
		}
	})
	return refs
}

// evalDeadlineKey marks contexts whose deadline is the mediator's own
// evaluation timer — the §4 "designated time" — as opposed to a deadline
// the caller brought.
type evalDeadlineKey struct{}

// withEvalDeadline bounds ctx by the mediator's evaluation deadline and
// tags it as such, so the error classifier can tell the §4 designated
// time (source unavailability) from a caller-imposed bound (a failed
// query from the caller's own impatience or cancellation).
func withEvalDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.WithValue(ctx, evalDeadlineKey{}, true), d)
}

func hasEvalDeadline(ctx context.Context) bool {
	v, _ := ctx.Value(evalDeadlineKey{}).(bool)
	return v
}

// TransientError classifies a source failure as transient: the source was
// reached (or is expected right back) and the exchange broke in a way a
// prompt retry has a real chance of fixing — a connection dropped
// mid-answer, a refused dial while the attempt still has deadline to
// spare, an overloaded server shedding load. It never escapes the submit
// path: submitOnce either retries it away under the retry budget or
// degrades it to an UnavailableError so failover and partial evaluation
// take over.
type TransientError struct {
	Repo string
	Err  error
}

// Error implements the error interface.
func (e *TransientError) Error() string {
	return fmt.Sprintf("transient failure at %s: %v", e.Repo, e.Err)
}

// Unwrap supports errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Err }

// refusedRetryFloor is the deadline headroom below which a refused dial is
// not worth retrying: the backoff plus redial would eat what little
// deadline remains, so classify it as plain unavailability instead.
const refusedRetryFloor = 25 * time.Millisecond

// classifySourceError separates three kinds of failure — plus the calls
// the caller itself ended. Unavailability (no answer: timeouts, dead
// dials) is what partial evaluation and replica failover react to.
// Transient failures (mid-answer connection drops, refused dials with
// deadline to spare, server-side load sheds) are retried once under the
// retry budget before degrading to unavailability. Genuine query failures
// reported by a live source stay errors — degrading them would hide real
// failures in partial answers. And a user cancelling a query (or a
// caller-imposed deadline firing) is none of these: it must not become a
// partial answer and it must not count against the source's circuit
// breaker.
func classifySourceError(ctx context.Context, repo string, err error) error {
	var already *physical.UnavailableError
	if errors.As(err, &already) {
		return err
	}
	var upstream *wire.PartialUpstreamError
	if errors.As(err, &upstream) {
		// A mediator source answered partially: from here that is an
		// unavailability, and this mediator's partial evaluation produces
		// its own resubmittable answer.
		return &physical.UnavailableError{Repo: repo, Err: err}
	}
	var overloaded *wire.OverloadedError
	if errors.As(err, &overloaded) {
		// The server shed the request to protect itself: it is alive, and
		// a moment later it may well admit a retry.
		return &TransientError{Repo: repo, Err: err}
	}
	var remote *wire.RemoteError
	if errors.As(err, &remote) {
		return err // the source answered: a real error
	}
	if errors.Is(err, context.Canceled) && ctx.Err() != nil {
		// The call died because the caller's context ended (the user
		// cancelled, or the query already concluded): caller-side, not a
		// verdict on the source.
		return fmt.Errorf("mediator: source call to %s cancelled: %w", repo, err)
	}
	if errors.Is(err, context.DeadlineExceeded) &&
		errors.Is(ctx.Err(), context.DeadlineExceeded) && !hasEvalDeadline(ctx) {
		// The deadline that fired came with the caller's context, not from
		// the mediator's evaluation timer: caller-side as well.
		return fmt.Errorf("mediator: source call to %s ended by caller deadline: %w", repo, err)
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return &physical.UnavailableError{Repo: repo, Err: err}
	case isTimeoutNetErr(err):
		return &physical.UnavailableError{Repo: repo, Err: err}
	case isRefusedErr(err):
		// A refused dial means nothing is listening *right now* — which a
		// restarting server fixes in milliseconds. With deadline to spare
		// the retry budget gets a shot at it; otherwise it is ordinary
		// unavailability.
		if deadlineHeadroom(ctx) >= refusedRetryFloor {
			return &TransientError{Repo: repo, Err: err}
		}
		return &physical.UnavailableError{Repo: repo, Err: err}
	case isMidAnswerDropErr(err):
		// The connection was established and then broke under the
		// exchange: the source (or the path to it) flaked, not the query.
		return &TransientError{Repo: repo, Err: err}
	case isUnavailableNetErr(err):
		return &physical.UnavailableError{Repo: repo, Err: err}
	default:
		return err
	}
}

// deadlineHeadroom is the time left before ctx's deadline (effectively
// infinite when it has none).
func deadlineHeadroom(ctx context.Context) time.Duration {
	d, ok := ctx.Deadline()
	if !ok {
		return time.Duration(1<<63 - 1)
	}
	return time.Until(d)
}

// isTimeoutNetErr recognizes network-level timeouts (no answer within the
// attempt deadline) — always unavailability, never transient: the retry
// would wait out the same silence.
func isTimeoutNetErr(err error) bool {
	var netErr net.Error
	return errors.As(err, &netErr) && netErr.Timeout()
}

// isRefusedErr recognizes refused dials (ECONNREFUSED in any wrapping).
func isRefusedErr(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}

// isMidAnswerDropErr recognizes connections that were established and then
// broke during the exchange: resets, broken pipes, unexpected EOFs, and
// read/write failures on a live connection. These are the classic
// transient faults — a flaky link, a crashing-and-restarting peer, a
// proxy cutting a long response — where one prompt retry usually
// succeeds. (Timeouts are excluded by classification order.)
func isMidAnswerDropErr(err error) bool {
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	//lint:allow eofidentity classification site: asks whether a transport error is EOF-shaped (wrapped EOFs included), not whether a stream ended
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) && (opErr.Op == "read" || opErr.Op == "write") {
		return true
	}
	return false
}

// isUnavailableNetErr recognizes network errors that mean "no answer" —
// timeouts, refused connections and dial-phase failures. Errors from a
// source that was reached and answered (e.g. a reset mid-answer) are NOT
// unavailability: partial evaluation must not silently degrade genuine
// source-side failures into partial answers.
func isUnavailableNetErr(err error) bool {
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return true
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) && opErr.Op == "dial" {
		// The connection was never established: the source is unreachable.
		return true
	}
	return false
}

// wrapperForExpr locates the wrapper instance serving a submit expression:
// every extent read by the expression must be declared with the same
// wrapper object.
func (m *Mediator) wrapperForExpr(repo string, expr algebra.Node) (wrapper.Wrapper, error) {
	refs := exprRefs(expr)
	if len(refs) == 0 {
		return nil, fmt.Errorf("mediator: submit to %s reads no extents", repo)
	}
	wrapperName := ""
	for _, ref := range refs {
		me, err := m.catalog.Extent(ref.Extent)
		if err != nil {
			return nil, err
		}
		if !me.HasPartition(repo) && !m.catalog.IsMigrationEndpoint(ref.Extent, repo) {
			// A live migration's endpoints accept reads while its record
			// exists: the destination before placement lists it (copying,
			// dual-read) and the released source after cutover, until the
			// pre-cutover readers drain and the record clears. Anything
			// else is a routing bug.
			return nil, fmt.Errorf("mediator: extent %s lives at %s, not %s", ref.Extent, strings.Join(me.Partitions(), ","), repo)
		}
		if wrapperName == "" {
			wrapperName = me.Wrapper
		} else if me.Wrapper != wrapperName {
			return nil, fmt.Errorf("mediator: extents of one submit use different wrappers (%s, %s)", wrapperName, me.Wrapper)
		}
	}
	return m.wrapperInstance(wrapperName, repo)
}

// wrapperInstance returns (instantiating on first use) the wrapper object
// bound to a repository.
func (m *Mediator) wrapperInstance(wrapperName, repoName string) (wrapper.Wrapper, error) {
	key := wrapperName + "@" + repoName
	m.mu.Lock()
	if w, ok := m.wrappers[key]; ok {
		m.mu.Unlock()
		return w, nil
	}
	m.mu.Unlock()

	wdecl, err := m.catalog.Wrapper(wrapperName)
	if err != nil {
		return nil, err
	}
	repo, err := m.catalog.Repository(repoName)
	if err != nil {
		return nil, err
	}
	w, err := m.instantiate(wdecl, repo)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.wrappers[key] = w
	m.mu.Unlock()
	return w, nil
}

// instantiate builds a wrapper implementation for a wrapper declaration and
// repository address.
func (m *Mediator) instantiate(w *catalog.Wrapper, repo *catalog.Repository) (wrapper.Wrapper, error) {
	switch w.Kind {
	case "sql":
		q, err := m.querierFor(repo, wire.LangSQL)
		if err != nil {
			return nil, err
		}
		// An ops property restricts the advertised operator set, e.g.
		// Wrapper("sql", ops="get,select") models a server that filters
		// but cannot project or join.
		if spec := w.Props["ops"]; spec != "" {
			ops, err := parseOpsSpec(spec)
			if err != nil {
				return nil, fmt.Errorf("mediator: wrapper %s: %w", w.Name, err)
			}
			return wrapper.NewSQLWithOps(q, ops), nil
		}
		return wrapper.NewSQL(q), nil
	case "scan":
		q, err := m.querierFor(repo, wire.LangSQL)
		if err != nil {
			return nil, err
		}
		return wrapper.NewScan(wrapper.NewSQL(q)), nil
	case "doc":
		q, err := m.querierFor(repo, wire.LangDoc)
		if err != nil {
			return nil, err
		}
		return wrapper.NewDoc(q), nil
	case "csv":
		path := w.Props["path"]
		collection := w.Props["collection"]
		if path == "" || collection == "" {
			return nil, fmt.Errorf("mediator: csv wrapper %s needs path and collection properties", w.Name)
		}
		return wrapper.NewCSV(collection, path)
	case "mediator":
		addr := repo.Address
		if strings.HasPrefix(addr, "mem:") {
			return nil, fmt.Errorf("mediator: mediator wrapper %s needs a network address", w.Name)
		}
		return &mediatorWrapper{client: m.clientFor(addr)}, nil
	default:
		return nil, fmt.Errorf("mediator: unknown wrapper kind %q", w.Kind)
	}
}

// parseOpsSpec parses an ops="get,select,..." wrapper property into an
// operator set. Composition, connectives and all comparisons are enabled
// whenever any operator beyond get is present.
func parseOpsSpec(spec string) (capability.OpSet, error) {
	ops := capability.OpSet{}
	for _, tok := range strings.Split(spec, ",") {
		switch strings.TrimSpace(strings.ToLower(tok)) {
		case "get":
			ops.Get = true
		case "select":
			ops.Select = true
		case "project":
			ops.Project = true
		case "join":
			ops.Join = true
		case "distinct":
			ops.Distinct = true
		case "":
		default:
			return ops, fmt.Errorf("unknown operator %q in ops spec", tok)
		}
	}
	if ops.Select || ops.Project || ops.Join || ops.Distinct {
		ops.Compose = true
		ops.Connectives = true
	}
	return ops, nil
}

// querierFor resolves a repository address to a querier: mem: addresses
// bind to registered in-process engines, everything else dials TCP.
func (m *Mediator) querierFor(repo *catalog.Repository, lang string) (wrapper.Querier, error) {
	addr := repo.Address
	if name, ok := strings.CutPrefix(addr, "mem:"); ok {
		m.mu.Lock()
		eng, found := m.engines[name]
		m.mu.Unlock()
		if !found {
			return nil, fmt.Errorf("mediator: no in-process engine %q (repository %s)", name, repo.Name)
		}
		return wrapper.EngineQuerier{Engine: eng}, nil
	}
	if addr == "" {
		return nil, fmt.Errorf("mediator: repository %s has no address", repo.Name)
	}
	// One pooled client per address, shared across wrapper instances and
	// queries: submits reuse persistent connections instead of dialing.
	return wrapper.RemoteQuerier{Client: m.clientFor(addr), Lang: lang}, nil
}
