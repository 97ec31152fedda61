package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/types"
)

// TestPreparedStatementCacheHit: a repeated query skips the whole front
// half of the pipeline — the second Prepare reports a cache hit with every
// stage timing at zero, and returns the identical plan.
func TestPreparedStatementCacheHit(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person where x.salary > 10`

	plan1, cold, err := m.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first Prepare must miss")
	}
	plan2, warm, err := m.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second Prepare must hit the prepared-statement cache")
	}
	if warm.Parse != 0 || warm.Expand != 0 || warm.Compile != 0 || warm.Optimize != 0 {
		t.Errorf("hit ran pipeline stages: parse=%v expand=%v compile=%v optimize=%v",
			warm.Parse, warm.Expand, warm.Compile, warm.Optimize)
	}
	if plan1 != plan2 {
		t.Error("hit must return the cached plan instance")
	}
	if warm.Plan != cold.Plan {
		t.Errorf("hit plan string %q != cold %q", warm.Plan, cold.Plan)
	}
	// The cached plan still executes.
	if _, err := m.Query(q); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedStatementCacheInvalidation: any catalog change (here an
// ExecODL extent drop) must flush the cache — the same query text
// recompiles and reports CacheHit=false, and its answer reflects the new
// catalog.
func TestPreparedStatementCacheInvalidation(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person where x.salary > 10`

	if _, tr, err := m.QueryTraced(q); err != nil || tr.CacheHit {
		t.Fatalf("first run: err=%v hit=%v", err, tr != nil && tr.CacheHit)
	}
	if _, tr, err := m.QueryTraced(q); err != nil || !tr.CacheHit {
		t.Fatalf("second run must hit")
	}
	if err := m.ExecODL(`drop extent person1;`); err != nil {
		t.Fatal(err)
	}
	v, tr, err := m.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CacheHit {
		t.Error("catalog change must invalidate the prepared-statement cache")
	}
	if !v.Equal(types.NewBag(types.Str("Mary"))) {
		t.Errorf("after drop: %s, want only person0's Mary", v)
	}
	// And the recompiled plan hits again afterwards.
	if _, tr, err := m.QueryTraced(q); err != nil || !tr.CacheHit {
		t.Fatalf("post-invalidation rerun must hit again (err=%v)", err)
	}
}

// TestPreparedStatementCacheViewInvalidation: defining a view is a catalog
// change too — cached plans compiled without it must not survive.
func TestPreparedStatementCacheViewInvalidation(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person0`
	if _, _, err := m.QueryTraced(q); err != nil {
		t.Fatal(err)
	}
	if err := m.Define(`define rich as select y from y in person0 where y.salary > 100`); err != nil {
		t.Fatal(err)
	}
	_, tr, err := m.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CacheHit {
		t.Error("view definition must invalidate the prepared-statement cache")
	}
}

// TestPreparedStatementCacheBounded: the cache never grows past its bound;
// old entries are evicted, not leaked.
func TestPreparedStatementCacheBounded(t *testing.T) {
	m := paperMediator(t)
	for i := 0; i < maxPreparedPlans+20; i++ {
		q := fmt.Sprintf(`select x.name from x in person0 where x.salary > %d`, i)
		if _, _, err := m.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	m.prepMu.Lock()
	n := len(m.prepared)
	order := len(m.prepOrder)
	m.prepMu.Unlock()
	if n > maxPreparedPlans || order > maxPreparedPlans {
		t.Errorf("cache holds %d entries (%d in order), bound %d", n, order, maxPreparedPlans)
	}
	// The newest query is still cached.
	q := fmt.Sprintf(`select x.name from x in person0 where x.salary > %d`, maxPreparedPlans+19)
	if _, tr, err := m.Prepare(q); err != nil || !tr.CacheHit {
		t.Errorf("newest entry evicted? err=%v", err)
	}
}

// TestPreparedStoreStaleVersionDropped: a Prepare that started before a
// catalog change and finishes after it must not flush the entries built at
// the newer version — its result is simply dropped.
func TestPreparedStoreStaleVersionDropped(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person where x.salary > 10`
	if _, _, err := m.Prepare(q); err != nil {
		t.Fatal(err)
	}
	v := m.Catalog().Version()
	// Simulate the straggler: a store compiled against a superseded catalog.
	m.preparedStore("straggler", v-1, preparedPlan{})
	if _, tr, err := m.Prepare(q); err != nil || !tr.CacheHit {
		t.Fatalf("stale store flushed the warm cache (err=%v)", err)
	}
	// And a stale lookup neither hits nor rewinds the cache.
	if _, ok := m.preparedLookup(q, v-1); ok {
		t.Fatal("lookup at a superseded version must miss")
	}
	if _, tr, err := m.Prepare(q); err != nil || !tr.CacheHit {
		t.Fatalf("stale lookup rewound the cache (err=%v)", err)
	}
}

// TestPreparedStatementCacheConcurrent: concurrent Prepare/ExecODL must be
// race-free and never serve a plan across a version change.
func TestPreparedStatementCacheConcurrent(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person0 where x.salary > 10`
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			view := fmt.Sprintf(`define v%d as select y from y in person0`, i)
			if err := m.Define(view); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, _, err := m.Prepare(q); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(60 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestPreparedPlanSharesCompiledPrograms: repeated executions of a prepared
// query must share one compiled-program cache (expressions lower once per
// prepared statement), and a catalog change must swap in a fresh one along
// with the fresh plan.
func TestPreparedPlanSharesCompiledPrograms(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person where x.salary > 10`
	e1, _, err := m.prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if e1.progs == nil {
		t.Fatal("prepared entry carries no program cache")
	}
	e2, tr, err := m.prepare(q)
	if err != nil || !tr.CacheHit {
		t.Fatalf("second prepare: err=%v hit=%v", err, tr != nil && tr.CacheHit)
	}
	if e2.progs != e1.progs {
		t.Error("prepared-statement hit must reuse the compiled programs")
	}
	// A query through the cached entry actually runs with those programs,
	// and repeated executions must not grow the cache — projections
	// synthesize their constructor expression per build, so a misplaced
	// cache key would add an entry per execution (a leak).
	if _, err := m.Query(q); err != nil {
		t.Fatal(err)
	}
	n1 := e1.progs.Len()
	if n1 == 0 {
		t.Fatal("execution compiled no programs into the prepared entry")
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if n2 := e1.progs.Len(); n2 != n1 {
		t.Errorf("program cache grew across executions of one prepared plan: %d -> %d", n1, n2)
	}
	// Same property for a plan with an explicit struct projection: the
	// Project operator synthesizes its constructor expression per build,
	// so its program must be cached under the stable plan node.
	const pq = `select struct(nm: x.name, pay: x.salary) from x in person where x.salary > 10`
	pe, _, err := m.prepare(pq)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Query(pq); err != nil {
			t.Fatal(err)
		}
	}
	pn := pe.progs.Len()
	if _, err := m.Query(pq); err != nil {
		t.Fatal(err)
	}
	if pn2 := pe.progs.Len(); pn2 != pn {
		t.Errorf("projection program cache grew across executions: %d -> %d", pn, pn2)
	}
	// Catalog change: new plan, new program cache.
	if err := m.Define(`define fresh as select y from y in person0`); err != nil {
		t.Fatal(err)
	}
	e3, _, err := m.prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if e3.progs == e1.progs {
		t.Error("catalog change must invalidate the compiled programs with the plan")
	}
}

// TestPrepareManyDistinctTextsBounded: the prepared cache is the mediator's
// only plan cache, so a stream of never-repeating texts on one catalog
// version retains at most maxPreparedPlans plans — no second cache behind
// it keeps every optimized plan alive.
func TestPrepareManyDistinctTextsBounded(t *testing.T) {
	const (
		texts    = 20000
		maxGrowB = 16 << 20
	)
	m := paperMediator(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < texts; i++ {
		q := fmt.Sprintf(`select x.name from x in person0 where x.salary > %d`, i)
		if _, _, err := m.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	m.prepMu.Lock()
	n := len(m.prepared)
	m.prepMu.Unlock()
	if n > maxPreparedPlans {
		t.Errorf("prepared cache holds %d plans, bound %d", n, maxPreparedPlans)
	}
	if grow := int64(after.HeapAlloc) - int64(before.HeapAlloc); grow > maxGrowB {
		t.Errorf("heap grew %d bytes over %d distinct texts (%d B/text), bound %d",
			grow, texts, grow/texts, maxGrowB)
	}
}

// TestExplainSharesPreparePipeline is the differential check that Explain
// runs the same front half as Prepare and Query: it fills and reads the
// prepared cache, renders the same report on a miss and on a hit, marks
// the plan Prepare returns as chosen, and follows catalog changes.
func TestExplainSharesPreparePipeline(t *testing.T) {
	viewMediator := func(t *testing.T) *Mediator {
		m := paperMediator(t)
		if err := m.Define(`define rich as select y from y in person where y.salary > 10`); err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name  string
		setup func(t *testing.T) *Mediator
		q     string
		drop  string
		gone  string // an extent the drop removes from the plan
	}{
		{
			name:  "pruned-point",
			setup: func(t *testing.T) *Mediator { m, _ := rangeMediator(t); return m },
			q:     `select x.name from x in people where x.id = 10`,
			drop:  `drop extent people;`,
			gone:  "people",
		},
		{
			name:  "partition-wise-join",
			setup: func(t *testing.T) *Mediator { m, _ := coPartitionedMediator(t); return m },
			q:     `select struct(name: x.name, amount: y.amount) from x in people, y in bonus where x.id = y.id`,
			drop:  `drop extent bonus;`,
			gone:  "bonus",
		},
		{
			name:  "view-expanded",
			setup: viewMediator,
			q:     `select r.name from r in rich`,
			drop:  `drop extent person1;`,
			gone:  "person1",
		},
		{
			name:  "contains",
			setup: notesMediator,
			q:     `select n.station from n in notes where contains(n.note, "reference")`,
			drop:  `drop extent notes;`,
			gone:  "notes",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.setup(t)
			if _, ok := m.preparedLookup(c.q, m.Catalog().Version()); ok {
				t.Fatal("query already prepared before the first Explain")
			}
			miss, err := m.Explain(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := m.preparedLookup(c.q, m.Catalog().Version()); !ok {
				t.Fatal("Explain did not fill the prepared cache")
			}
			hit, err := m.Explain(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if hit != miss {
				t.Errorf("Explain differs between miss and hit:\n%s\nvs\n%s", miss, hit)
			}

			plan, _, err := m.Prepare(c.q)
			if err != nil {
				t.Fatal(err)
			}
			chosen := ""
			for _, line := range strings.Split(miss, "\n") {
				if strings.HasPrefix(line, "=>") {
					chosen = line
				}
			}
			if !strings.HasSuffix(chosen, "vals "+plan.String()) {
				t.Errorf("Explain chose %q, Prepare returned %s", chosen, plan)
			}
			tree, err := m.ExplainPlan(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if tree != algebra.TreeString(plan) {
				t.Errorf("ExplainPlan renders a different plan:\n%s\nwant\n%s", tree, algebra.TreeString(plan))
			}

			if _, tr, err := m.QueryTraced(c.q); err != nil || !tr.CacheHit ||
				tr.Parse+tr.Expand+tr.Compile+tr.Optimize != 0 {
				t.Fatalf("query after Explain must hit the prepared cache: err=%v trace=%+v", err, tr)
			}

			if !strings.Contains(miss, c.gone) {
				t.Fatalf("plan never mentions %s:\n%s", c.gone, miss)
			}
			if err := m.ExecODL(c.drop); err != nil {
				t.Fatal(err)
			}
			if after, err := m.Explain(c.q); err == nil && strings.Contains(after, c.gone) {
				t.Errorf("Explain after %q still mentions %s:\n%s", c.drop, c.gone, after)
			}
		})
	}
}
