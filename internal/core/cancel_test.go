package core

import (
	"context"
	"testing"
	"time"
)

// cancelsSent sums the cancel frames written across the mediator's pooled
// wire clients.
func cancelsSent(m *Mediator) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, c := range m.clients {
		n += c.Stats().CancelsSent.Load()
	}
	return n
}

// TestHedgeLoserReclaimsServerWork is the end-to-end cancellation contract
// for hedging: when a backup submit wins, the loser is not merely ignored —
// its wire client sends a cancel frame, the slow server's handler context is
// cancelled, and its in-flight gauge drains instead of accumulating one
// zombie per race. The loser stays invisible to the control loops (breaker
// closed, no cost-history observation), and the wire clients count the
// cancels they sent.
func TestHedgeLoserReclaimsServerWork(t *testing.T) {
	m, servers := replicatedMediator(t,
		WithHedging(5*time.Millisecond), WithBreaker(1, time.Minute))
	// r0 is alive but slow: every read of shard 0 hedges to r0b, wins there,
	// and abandons the submit still pending at r0.
	servers["r0"].SetLatency(150 * time.Millisecond)
	want := wantAll()

	c0 := cancelsSent(m)
	for i := 0; i < 8; i++ {
		v, _, err := m.QueryTraced(`select x from x in people`)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Equal(want) {
			t.Fatalf("answer = %s, want %s", v, want)
		}
		// The race's loser must release its server-side slot promptly — the
		// cancel frame aborts even the injected latency sleep — not after the
		// 150ms "link" plus handler time, and never accumulate across races.
		if !waitCondition(time.Second, func() bool { return servers["r0"].Inflight() == 0 }) {
			t.Fatalf("race %d: r0 inflight = %d, abandoned hedge loser not reclaimed", i, servers["r0"].Inflight())
		}
	}
	if fired := m.hedgesFired.Load(); fired == 0 {
		t.Fatal("no hedges fired against a 150ms straggler; test exercised nothing")
	}
	// Cancel frames are written asynchronously once the abandoning caller has
	// already returned (they are deliberately off the error path), so poll
	// the mediator-wide counter rather than summing per-query trace windows —
	// a frame can land between two windows and be seen by neither.
	if !waitCondition(time.Second, func() bool { return cancelsSent(m) > c0 }) {
		t.Error("no cancel frames sent despite abandoned hedge losers")
	}
	if !waitCondition(time.Second, func() bool { return servers["r0"].Stats().Cancelled.Load() > 0 }) {
		t.Error("slow server counted no cancelled handlers")
	}
	// Cancels are a caller-side verdict: they must never poison the loser's
	// breaker (threshold 1 would open on a single false unavailability) nor
	// record a latency observation for work that never finished.
	for _, repo := range []string{"r0", "r0b", "r1", "r1b"} {
		if got := m.BreakerState(repo); got != BreakerClosed {
			t.Errorf("breaker %s = %v, want closed: a cancelled loser poisoned it", repo, got)
		}
	}
	if _, ok := m.history.Quantile("r0", 0.5); ok {
		t.Error("cancelled hedge losers recorded cost-history observations for r0")
	}
}

// TestCallerCancelReclaimsServerWork: a caller abandoning QueryContext
// mid-flight propagates to the sources — their in-flight gauges drain and
// their breakers stay closed (a caller walking away says nothing about
// source health).
func TestCallerCancelReclaimsServerWork(t *testing.T) {
	m, servers := replicatedMediator(t, WithBreaker(1, time.Minute))
	for _, srv := range servers {
		srv.SetLatency(300 * time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.QueryContext(ctx, `select x from x in people`)
		done <- err
	}()
	// Wait for the scatter-gather to put work in flight at the sources, then
	// walk away.
	if !waitCondition(time.Second, func() bool {
		var n int64
		for _, srv := range servers {
			n += srv.Inflight()
		}
		return n > 0
	}) {
		t.Fatal("no source work went in flight")
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("query survived its caller's cancel")
	}
	for repo, srv := range servers {
		srv := srv
		if !waitCondition(time.Second, func() bool { return srv.Inflight() == 0 }) {
			t.Errorf("%s inflight = %d after caller cancel", repo, srv.Inflight())
		}
	}
	for _, repo := range []string{"r0", "r0b", "r1", "r1b"} {
		if got := m.BreakerState(repo); got != BreakerClosed {
			t.Errorf("breaker %s = %v, want closed after caller-side cancel", repo, got)
		}
	}
}
