package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"disco/internal/types"
	"disco/internal/wire"
)

// stallHandler serves its engine until stalled. A stalled source still
// takes each query (the server counts it in Stats().Queries) but never
// answers, not even with an error once the propagated deadline passes, so
// only the caller's deadline ends the exchange: the §4 source that does
// not respond in the designated time. Stalled queries return when release
// closes. The server keeps answering pings, so a background half-open
// probe of a stalled copy closes its breaker.
type stallHandler struct {
	EngineHandler
	stalled *atomic.Bool
	release <-chan struct{}
}

func (h stallHandler) HandleQuery(ctx context.Context, lang, text string) (json.RawMessage, error) {
	if h.stalled.Load() {
		<-h.release
		return nil, errors.New("stalled query released")
	}
	return h.EngineHandler.HandleQuery(ctx, lang, text)
}

// leadState is the breaker state the routing matrix gives shard 0's
// declared primary r0 before the query.
type leadState int

const (
	leadClosed          leadState = iota
	leadOpenPending               // open, cooldown not yet elapsed
	leadOpenElapsed               // open, cooldown elapsed (Allow would half-open it)
	leadHalfOpenClaimed           // half-open, its one probe slot already taken
)

// TestSubmitRoutingMatrix pins how one shard read routes over its copies.
// The extent has two hash shards: shard 0 has 1, 2 or 3 copies (r0, r0b,
// r0c, primary first) and shard 1 is the lone copy r1, always up. Each row
// sets the copies' breakers and availability, runs one query, and checks:
//   - the complete answer, or a residual naming only shard 0;
//   - the queries each server executed;
//   - every copy's breaker state once background probes have finished;
//   - the hedges fired (every fired hedge here also wins).
//
// A lone copy is dialed whatever its breaker says. A breaker-refused copy is
// dialed only after every admittable copy of its shard came back
// unavailable.
func TestSubmitRoutingMatrix(t *testing.T) {
	const (
		timeout  = 600 * time.Millisecond
		cooldown = time.Minute
		slowLink = 300 * time.Millisecond
	)
	open, half := BreakerOpen, BreakerHalfOpen
	type row struct {
		copies  int
		lead    leadState
		down    []string // stalled copies
		refused []string // open copies (cooldown pending) besides r0
		slow    bool     // r0's link adds slowLink; WithHedging(20ms)

		complete bool
		queries  map[string]int64        // unlisted servers: 0
		breakers map[string]BreakerState // unlisted copies: closed
		hedges   int64
	}
	q := func(kv ...any) map[string]int64 {
		out := map[string]int64{"r1": 1}
		for i := 0; i < len(kv); i += 2 {
			out[kv[i].(string)] = int64(kv[i+1].(int))
		}
		return out
	}
	r0 := []string{"r0"}
	rows := map[string]row{
		// One copy: dialed in every breaker state, up or down.
		"1/closed/up":              {copies: 1, lead: leadClosed, complete: true, queries: q("r0", 1)},
		"1/closed/down":            {copies: 1, lead: leadClosed, down: r0, queries: q("r0", 1), breakers: map[string]BreakerState{"r0": open}},
		"1/open-pending/up":        {copies: 1, lead: leadOpenPending, complete: true, queries: q("r0", 1)},
		"1/open-pending/down":      {copies: 1, lead: leadOpenPending, down: r0, queries: q("r0", 1), breakers: map[string]BreakerState{"r0": open}},
		"1/open-elapsed/up":        {copies: 1, lead: leadOpenElapsed, complete: true, queries: q("r0", 1)},
		"1/open-elapsed/down":      {copies: 1, lead: leadOpenElapsed, down: r0, queries: q("r0", 1), breakers: map[string]BreakerState{"r0": open}},
		"1/half-open-claimed/up":   {copies: 1, lead: leadHalfOpenClaimed, complete: true, queries: q("r0", 1)},
		"1/half-open-claimed/down": {copies: 1, lead: leadHalfOpenClaimed, down: r0, queries: q("r0", 1), breakers: map[string]BreakerState{"r0": open}},

		// Two copies. A closed lead is dialed first; down, it hands over to
		// r0b. Any other lead state routes r0b first: an open-pending or
		// claimed lead is deferred and never reached, an open-elapsed lead is
		// admittable but ranked last, and its probe closes it afterwards.
		"2/closed/up":              {copies: 2, lead: leadClosed, complete: true, queries: q("r0", 1)},
		"2/closed/down":            {copies: 2, lead: leadClosed, down: r0, complete: true, queries: q("r0", 1, "r0b", 1), breakers: map[string]BreakerState{"r0": open}},
		"2/open-pending/up":        {copies: 2, lead: leadOpenPending, complete: true, queries: q("r0b", 1), breakers: map[string]BreakerState{"r0": open}},
		"2/open-pending/down":      {copies: 2, lead: leadOpenPending, down: r0, complete: true, queries: q("r0b", 1), breakers: map[string]BreakerState{"r0": open}},
		"2/open-elapsed/up":        {copies: 2, lead: leadOpenElapsed, complete: true, queries: q("r0b", 1)},
		"2/open-elapsed/down":      {copies: 2, lead: leadOpenElapsed, down: r0, complete: true, queries: q("r0b", 1)},
		"2/half-open-claimed/up":   {copies: 2, lead: leadHalfOpenClaimed, complete: true, queries: q("r0b", 1), breakers: map[string]BreakerState{"r0": half}},
		"2/half-open-claimed/down": {copies: 2, lead: leadHalfOpenClaimed, down: r0, complete: true, queries: q("r0b", 1), breakers: map[string]BreakerState{"r0": half}},

		// Three copies: the same, and r0c is never needed.
		"3/closed/up":              {copies: 3, lead: leadClosed, complete: true, queries: q("r0", 1)},
		"3/closed/down":            {copies: 3, lead: leadClosed, down: r0, complete: true, queries: q("r0", 1, "r0b", 1), breakers: map[string]BreakerState{"r0": open}},
		"3/open-pending/up":        {copies: 3, lead: leadOpenPending, complete: true, queries: q("r0b", 1), breakers: map[string]BreakerState{"r0": open}},
		"3/open-pending/down":      {copies: 3, lead: leadOpenPending, down: r0, complete: true, queries: q("r0b", 1), breakers: map[string]BreakerState{"r0": open}},
		"3/open-elapsed/up":        {copies: 3, lead: leadOpenElapsed, complete: true, queries: q("r0b", 1)},
		"3/open-elapsed/down":      {copies: 3, lead: leadOpenElapsed, down: r0, complete: true, queries: q("r0b", 1)},
		"3/half-open-claimed/up":   {copies: 3, lead: leadHalfOpenClaimed, complete: true, queries: q("r0b", 1), breakers: map[string]BreakerState{"r0": half}},
		"3/half-open-claimed/down": {copies: 3, lead: leadHalfOpenClaimed, down: r0, complete: true, queries: q("r0b", 1), breakers: map[string]BreakerState{"r0": half}},

		// A slow lead under hedging: the hedge to r0b wins, and the loser's
		// cancel frame reaches r0 while its request is still on the slow
		// link, so r0 never executes it. A lone copy has nothing to hedge to.
		"2/slow-lead/hedged": {copies: 2, slow: true, complete: true, queries: q("r0b", 1), hedges: 1},
		"1/slow-lead/hedged": {copies: 1, slow: true, complete: true, queries: q("r0", 1)},

		// Breaker-refused copies behind a dead admittable one: tried in
		// order, only once the admittable copy came back unavailable.
		"3/refused-behind-dead": {copies: 3, down: r0, refused: []string{"r0b", "r0c"}, complete: true,
			queries: q("r0", 1, "r0b", 1), breakers: map[string]BreakerState{"r0": open, "r0c": open}},
		"3/refused-behind-dead/first-refused-down": {copies: 3, down: []string{"r0", "r0b"}, refused: []string{"r0b", "r0c"}, complete: true,
			queries: q("r0", 1, "r0b", 1, "r0c", 1), breakers: map[string]BreakerState{"r0": open, "r0b": open}},
	}
	for name, tc := range rows {
		t.Run(name, func(t *testing.T) {
			copies := []string{"r0", "r0b", "r0c"}[:tc.copies]
			servers := map[string]*wire.Server{}
			release := make(chan struct{})
			var odl strings.Builder
			for _, repo := range append([]string{"r1"}, copies...) {
				rows := shardRows[0]
				if repo == "r1" {
					rows = shardRows[1]
				}
				stalled := &atomic.Bool{}
				for _, d := range tc.down {
					if d == repo {
						stalled.Store(true)
					}
				}
				srv, err := wire.NewServer("127.0.0.1:0", stallHandler{EngineHandler{Engine: shardStore(t, rows)}, stalled, release})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				servers[repo] = srv
				fmt.Fprintf(&odl, "%s := Repository(address=%q);\n", repo, srv.Addr())
			}
			// Registered after the servers, so it runs before they close.
			t.Cleanup(func() { close(release) })
			fmt.Fprintf(&odl, `
				w0 := WrapperPostgres();
				interface Person (extent person) {
				    attribute Short id;
				    attribute String name;
				    attribute Short salary;
				}
				extent people of Person wrapper w0 at %s, r1;
			`, strings.Join(copies, "|"))
			opts := []Option{WithTimeout(timeout), WithBreaker(1, cooldown)}
			if tc.slow {
				opts = append(opts, WithHedging(20*time.Millisecond))
				servers["r0"].SetLatency(slowLink)
			}
			m := New(opts...)
			t.Cleanup(m.Close)
			if err := m.ExecODL(odl.String()); err != nil {
				t.Fatal(err)
			}
			var skew atomic.Int64
			m.breakers.now = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
			for _, repo := range tc.refused {
				m.breakers.Failure(repo)
			}
			if tc.lead != leadClosed {
				m.breakers.Failure("r0")
			}
			if tc.lead == leadOpenElapsed || tc.lead == leadHalfOpenClaimed {
				skew.Store(int64(2 * cooldown))
			}
			if tc.lead == leadHalfOpenClaimed && !m.breakers.Allow("r0") {
				t.Fatal("setup: Allow refused the half-open probe slot")
			}

			ans, err := m.QueryPartial(`select x.name from x in people`)
			if err != nil {
				t.Fatal(err)
			}
			m.probeWG.Wait()

			if tc.complete {
				want := types.NewBag(types.Str("Mary"), types.Str("Sam"), types.Str("Ann"))
				if !ans.Complete || !ans.Value.Equal(want) {
					t.Errorf("answer = %s, want the complete %s", ans, want)
				}
			} else {
				// Exact up to the order of the answered shard's bag.
				want := `union(select x.name from x in people@r0, bag("Ann", "Sam"))`
				alt := `union(select x.name from x in people@r0, bag("Sam", "Ann"))`
				if got := ans.Residual.String(); ans.Complete || got != want && got != alt {
					t.Errorf("answer = %s, want the residual %s", ans, want)
				}
				if len(ans.Unavailable) != 1 || ans.Unavailable[0] != "r0" {
					t.Errorf("unavailable = %v, want [r0]", ans.Unavailable)
				}
			}
			for repo, srv := range servers {
				if got, want := srv.Stats().Queries.Load(), tc.queries[repo]; got != want {
					t.Errorf("%s executed %d queries, want %d", repo, got, want)
				}
			}
			for _, repo := range copies {
				want, ok := tc.breakers[repo]
				if !ok {
					want = BreakerClosed
				}
				if got := m.BreakerState(repo); got != want {
					t.Errorf("breaker %s = %v, want %v", repo, got, want)
				}
			}
			if fired, won := m.hedgesFired.Load(), m.hedgesWon.Load(); fired != tc.hedges || won != tc.hedges {
				t.Errorf("hedges fired/won = %d/%d, want %d/%d", fired, won, tc.hedges, tc.hedges)
			}
		})
	}
}
