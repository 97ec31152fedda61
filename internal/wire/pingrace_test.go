package wire

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// firstConn returns the pool's only connection.
func firstConn(t *testing.T, c *Client) *clientConn {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.conns) != 1 {
		t.Fatalf("pool holds %d conns, want 1", len(c.conns))
	}
	return c.conns[0]
}

// TestBorrowSkipsConnUnderHealthPing: while a health ping probes a
// connection, conn() must not hand that connection to a borrower — its
// verdict is pending and a failing ping kills it. The borrower gets a
// fresh dial instead.
func TestBorrowSkipsConnUnderHealthPing(t *testing.T) {
	s := newTestServer(t)
	c := NewClient(s.Addr())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	cc := firstConn(t, c)

	// Simulate a ping in flight on the idle connection.
	if !cc.pinging.CompareAndSwap(false, true) {
		t.Fatal("connection already pinging")
	}
	got, err := c.conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer got.leased.Add(-1)
	if got == cc {
		t.Fatal("conn() handed out a connection under an in-flight health ping")
	}
	cc.pinging.Store(false)
}

// TestSaturatedPoolRidesConnUnderPing: when the pool is full and every
// usable connection is under a health ping, a borrower rides one anyway
// (its lease spares it from a failing ping's kill) instead of stalling
// for the ping verdict.
func TestSaturatedPoolRidesConnUnderPing(t *testing.T) {
	s := newTestServer(t)
	c := NewClient(s.Addr(), WithPoolSize(1))
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	cc := firstConn(t, c)
	if !cc.pinging.CompareAndSwap(false, true) {
		t.Fatal("connection already pinging")
	}
	defer cc.pinging.Store(false)
	bctx, bcancel := context.WithTimeout(context.Background(), time.Second)
	defer bcancel()
	got, err := c.conn(bctx)
	if err != nil {
		t.Fatalf("borrower should ride the probed connection, not stall: %v", err)
	}
	defer got.leased.Add(-1)
	if got != cc {
		t.Fatalf("pool of 1: borrower must get the (probed) pooled connection")
	}
}

// TestFailingPingSparesLeasedConn closes the kill window the satellite
// names: a connection handed to a borrower (leased) before its request
// registers in inflight must survive a concurrently failing health ping —
// the request's own deadline judges the connection, not the ping's.
func TestFailingPingSparesLeasedConn(t *testing.T) {
	s := newTestServer(t)
	p := newBlackholeProxy(t, s.Addr())
	c := NewClient(p.Addr(), WithHealthCheckInterval(40*time.Millisecond), WithIdleTimeout(time.Minute))
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	cc := firstConn(t, c)

	// The borrower holds the connection (leased, request not yet written)
	// when the peer goes silent and a health ping fails.
	borrowed, err := c.conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if borrowed != cc {
		t.Fatal("expected the pooled connection")
	}
	p.drop.Store(true)
	if !cc.pinging.CompareAndSwap(false, true) {
		t.Fatal("connection already pinging")
	}
	c.pingConn(cc) // runs the failing ping synchronously
	if conns, _ := c.PoolStats(); conns != 1 {
		t.Fatalf("failing ping killed a leased connection: pool = %d conns", conns)
	}

	// Once the lease is back and the peer is still dead, the next ping may
	// (and must) evict it.
	borrowed.leased.Add(-1)
	if !cc.pinging.CompareAndSwap(false, true) {
		t.Fatal("connection already pinging")
	}
	c.pingConn(cc)
	if conns, _ := c.PoolStats(); conns != 0 {
		t.Fatalf("unleased dead connection survived the health ping: pool = %d conns", conns)
	}
}

// TestPingBorrowRaceUnderLoad drives borrowers against a client whose
// health interval is tiny, so pings and borrows interleave constantly;
// run under -race, and every request must succeed.
func TestPingBorrowRaceUnderLoad(t *testing.T) {
	s := newTestServer(t)
	c := NewClient(s.Addr(), WithHealthCheckInterval(time.Millisecond), WithPoolSize(2))
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_, err := c.Query(ctx, LangSQL, fmt.Sprintf("q%d_%d", g, i))
				cancel()
				if err != nil {
					errs <- err
					return
				}
				// Idle gaps let the health checker engage between borrows.
				time.Sleep(2 * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFailEvictsBeforeShutdown: a failing connection leaves the pool before
// its waiters wake. Otherwise a request woken by the death redials, is
// handed the same dead connection, and fails again with the stale error —
// under CPU contention every redial attempt can be burnt that way.
func TestFailEvictsBeforeShutdown(t *testing.T) {
	s := newTestServer(t)
	c := NewClient(s.Addr())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	cc := firstConn(t, c)

	// Holding the pool lock freezes eviction: the connection must not be
	// shut down (its waiters woken) while it is still pooled.
	c.mu.Lock()
	failed := make(chan struct{})
	go func() {
		defer close(failed)
		cc.fail(fmt.Errorf("injected"))
	}()
	select {
	case <-cc.done:
		c.mu.Unlock()
		t.Fatal("connection shut down while still in the pool")
	case <-time.After(50 * time.Millisecond):
	}
	c.mu.Unlock()
	<-failed
	c.mu.Lock()
	n := len(c.conns)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("pool holds %d conns after fail, want 0", n)
	}
}
