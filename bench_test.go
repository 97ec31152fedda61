package disco

// Benchmarks regenerating the per-experiment measurements indexed in
// DESIGN.md (run: go test -bench=. -benchmem). The corresponding
// human-readable tables come from cmd/disco-bench; these give the
// machine-readable timings per operation, plus ablations for the design
// choices DESIGN.md calls out (join algorithm, Earley recognition, plan
// caching, wire encoding).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/catalog"
	"disco/internal/core"
	"disco/internal/costmodel"
	"disco/internal/harness"
	"disco/internal/oql"
	"disco/internal/partial"
	"disco/internal/physical"
	"disco/internal/source"
	"disco/internal/types"
	"disco/internal/wire"
)

const paperQuery = `select x.name from x in person where x.salary > 10`

// BenchmarkFigure1Architecture measures the full Figure 1 round trip:
// application -> mediator -> wrappers -> two TCP sources and back.
func BenchmarkFigure1Architecture(b *testing.B) {
	f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: 2, RowsPerSource: 100, TCP: true})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.M.Query(paperQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Pipeline measures the Prototype 0 stages separately.
func BenchmarkFigure2Pipeline(b *testing.B) {
	f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: 2, RowsPerSource: 100})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()

	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := oql.ParseQuery(paperQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepare-warm", func(b *testing.B) {
		// A prepared-cache hit: the front half is skipped.
		if _, _, err := f.M.Prepare(paperQuery); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := f.M.Prepare(paperQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.M.Query(paperQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute-distinct", func(b *testing.B) {
		// The distinct path keys every merged row (CanonicalKey); it is
		// where the reusable key buffer shows up.
		const q = `select distinct x.name from x in person where x.salary > 10`
		for i := 0; i < b.N; i++ {
			if _, err := f.M.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAvailabilityScaling measures query latency as sources are added,
// all available (the E1 denominator; unavailable-source latency is the
// evaluation deadline by construction).
func BenchmarkAvailabilityScaling(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("sources=%d", n), func(b *testing.B) {
			f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: n, RowsPerSource: 20, TCP: true})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.M.Query(paperQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartialEvaluation measures residual construction — the cost the
// §4 semantics adds once outcomes are known (the wait for the deadline is
// workload, not overhead).
func BenchmarkPartialEvaluation(b *testing.B) {
	ref := algebra.ExtentRef{Extent: "person0", Repo: "r0", Source: "person0",
		Iface: "Person", Attrs: []string{"id", "name", "salary"}}
	ref1 := ref
	ref1.Extent, ref1.Repo, ref1.Source = "person1", "r1", "person1"
	sub0 := &algebra.Submit{Repo: "r0", Input: &algebra.Get{Ref: ref}}
	sub1 := &algebra.Submit{Repo: "r1", Input: &algebra.Get{Ref: ref1}}
	pred, err := oql.ParseQuery(`x.salary > 10`)
	if err != nil {
		b.Fatal(err)
	}
	proj, err := oql.ParseQuery(`x.name`)
	if err != nil {
		b.Fatal(err)
	}
	mkBranch := func(sub *algebra.Submit) algebra.Node {
		return &algebra.Map{Expr: proj, Input: &algebra.Select{Pred: pred, Input: &algebra.Bind{Var: "x", Input: sub}}}
	}
	plan := &algebra.Union{Inputs: []algebra.Node{mkBranch(sub0), mkBranch(sub1)}}

	rows := make([]types.Value, 100)
	for i := range rows {
		rows[i] = types.NewStruct(
			types.Field{Name: "id", Value: types.Int(int64(i))},
			types.Field{Name: "name", Value: types.Str(fmt.Sprintf("p%d", i))},
			types.Field{Name: "salary", Value: types.Int(int64(i))},
		)
	}
	outcomes := map[*algebra.Submit]physical.Outcome{
		sub0: {Err: &physical.UnavailableError{Repo: "r0", Err: context.DeadlineExceeded}},
		sub1: {Bag: types.NewBag(rows...)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partial.Residual(plan, outcomes); err != nil {
			b.Fatal(err)
		}
	}
}

// delayEngine adds a fixed service time to every shard call, modeling a
// remote source; it makes the scatter-gather speedup visible (wall time
// stays ~one service time however many partitions fan out).
type delayEngine struct {
	inner source.Engine
	d     time.Duration
}

func (e delayEngine) Query(q string) (*types.Bag, error) {
	time.Sleep(e.d)
	return e.inner.Query(q)
}

func (e delayEngine) Collections() []string { return e.inner.Collections() }

// BenchmarkScatterGather measures the partition fan-out: one logical extent
// split over 1, 4 and 16 repositories, each shard answering after a 2ms
// service time. Near-constant ns/op across partition counts is the parallel
// speedup the scatter-gather operator exists for.
func BenchmarkScatterGather(b *testing.B) {
	for _, parts := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			m := core.New(core.WithTimeout(10 * time.Second))
			odl := ""
			repos := ""
			for i := 0; i < parts; i++ {
				s := source.NewRelStore()
				if err := s.CreateTable("people", "id", "name", "salary"); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 64; j++ {
					if err := s.Insert("people", types.Int(int64(i*64+j)),
						types.Str(fmt.Sprintf("p%d_%d", i, j)), types.Int(int64(j))); err != nil {
						b.Fatal(err)
					}
				}
				repo := fmt.Sprintf("r%d", i)
				m.RegisterEngine(repo, delayEngine{inner: s, d: 2 * time.Millisecond})
				odl += repo + ` := Repository(address="mem:` + repo + `");` + "\n"
				if i > 0 {
					repos += ", "
				}
				repos += repo
			}
			odl += `
				w0 := WrapperPostgres();
				interface Person (extent person) {
				    attribute Short id;
				    attribute String name;
				    attribute Short salary;
				}
				extent people of Person wrapper w0 at ` + repos + `;`
			if err := m.ExecODL(odl); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Query(`select x.name from x in people where x.salary > 32`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartitionPruning measures placement-aware routing: one logical
// extent hash-partitioned by id over 1, 4 and 16 repositories (2ms service
// time each, fan-out bounded at 4 concurrent shard calls, as a production
// mediator would bound it). The "scan" case touches every shard, so its
// latency grows with the partition count (ceil(n/4) waves of 2ms); the
// "pruned" case routes the point query to the key's home shard and stays
// flat at ~one service time regardless of scale.
func BenchmarkPartitionPruning(b *testing.B) {
	for _, parts := range []int{1, 4, 16} {
		m := core.New(core.WithTimeout(10*time.Second), core.WithMaxFanout(4))
		odl := ""
		repos := ""
		for i := 0; i < parts; i++ {
			s := source.NewRelStore()
			if err := s.CreateTable("people", "id", "name", "salary"); err != nil {
				b.Fatal(err)
			}
			// Place each row at its hash shard, matching the declared scheme.
			for id := 0; id < 64; id++ {
				if int(algebra.HashValue(types.Int(int64(id)))%uint64(parts)) != i {
					continue
				}
				if err := s.Insert("people", types.Int(int64(id)),
					types.Str(fmt.Sprintf("p%d", id)), types.Int(int64(id%97))); err != nil {
					b.Fatal(err)
				}
			}
			repo := fmt.Sprintf("r%d", i)
			m.RegisterEngine(repo, delayEngine{inner: s, d: 2 * time.Millisecond})
			odl += repo + ` := Repository(address="mem:` + repo + `");` + "\n"
			if i > 0 {
				repos += ", "
			}
			repos += repo
		}
		// A partitioning scheme is only declarable (and only useful) over
		// more than one repository; the 1-partition baseline goes bare.
		scheme := "\n    partition by hash(id)"
		if parts == 1 {
			scheme = ""
		}
		odl += `
			w0 := WrapperPostgres();
			interface Person (extent person) {
			    attribute Short id;
			    attribute String name;
			    attribute Short salary;
			}
			extent people of Person wrapper w0 at ` + repos + scheme + `;`
		if err := m.ExecODL(odl); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pruned/partitions=%d", parts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Query(`select x.name from x in people where x.id = 7`); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scan/partitions=%d", parts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Query(`select x.name from x in people where x.salary > 32`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemoteQuery measures the wire layer itself: point queries over
// real TCP from 1/4/16 concurrent client goroutines sharing one pooled,
// multiplexed client. The rows are the per-submit cost every remote
// scenario — federation, sharding, partial answers — pays.
func BenchmarkRemoteQuery(b *testing.B) {
	store := source.NewRelStore()
	if err := source.GenPeople(store, "person0", 200, 0); err != nil {
		b.Fatal(err)
	}
	srv, err := wire.NewServer("127.0.0.1:0", core.EngineHandler{Engine: store})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const q = `select name from person0 where id = 7`

	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("pooled/clients=%d", clients), func(b *testing.B) {
			c := wire.NewClient(srv.Addr())
			defer c.Close()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						_, err := c.Query(ctx, wire.LangSQL, q)
						cancel()
						if err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkPreparedStatements measures the repeated-query fast path: the
// first Prepare pays parse+expand+compile+optimize; every further Prepare
// of the same text is one cache lookup.
func BenchmarkPreparedStatements(b *testing.B) {
	f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: 4, RowsPerSource: 10})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh literal every iteration: no text repeats, so every
			// Prepare misses and runs parse, expand, compile and optimize.
			q := fmt.Sprintf("select x.name from x in person where x.salary > %d", i)
			if _, _, err := f.M.Prepare(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		if _, _, err := f.M.Prepare(paperQuery); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, tr, err := f.M.Prepare(paperQuery)
			if err != nil || !tr.CacheHit {
				b.Fatal("expected prepared-statement hit")
			}
		}
	})
}

// BenchmarkPushdown sweeps wrapper capability (E3): the same query against
// the same 2000-row TCP source under increasingly capable wrappers.
func BenchmarkPushdown(b *testing.B) {
	levels := []struct {
		name string
		odl  string
	}{
		{"get", `w0 := Wrapper("sql", ops="get");`},
		{"get-select", `w0 := Wrapper("sql", ops="get,select");`},
		{"get-select-project", `w0 := Wrapper("sql", ops="get,select,project");`},
	}
	const query = `select x.name from x in person0 where x.salary < 100`
	for _, level := range levels {
		b.Run(level.name, func(b *testing.B) {
			f, err := harness.NewPersonFleet(harness.FleetConfig{
				Sources: 1, RowsPerSource: 2000, TCP: true, WrapperODL: level.odl,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.M.Query(query); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if q := f.TotalQueries(); q > 0 {
				b.ReportMetric(float64(f.TotalBytesOut())/float64(q), "source-bytes/query")
			}
		})
	}
}

// BenchmarkCostLearning measures the cost model's record and estimate
// operations (E4's mechanism).
func BenchmarkCostLearning(b *testing.B) {
	h := costmodel.New()
	pred, err := oql.ParseQuery(`salary > 10`)
	if err != nil {
		b.Fatal(err)
	}
	expr := &algebra.Select{Pred: pred, Input: &algebra.Get{
		Ref: algebra.ExtentRef{Extent: "person0", Source: "person0", Attrs: []string{"id", "name", "salary"}},
	}}
	b.Run("record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Record("r0", expr, time.Millisecond, 10)
		}
	})
	b.Run("estimate-exact", func(b *testing.B) {
		h.Record("r0", expr, time.Millisecond, 10)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if est := h.Estimate("r0", expr); est.Basis != costmodel.BasisExact {
				b.Fatal("expected exact basis")
			}
		}
	})
	b.Run("estimate-default", func(b *testing.B) {
		fresh := costmodel.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if est := fresh.Estimate("r0", expr); est.Basis != costmodel.BasisDefault {
				b.Fatal("expected default basis")
			}
		}
	})
}

// BenchmarkSourceScaling measures in-process query latency as the DBA adds
// same-type sources (E5).
func BenchmarkSourceScaling(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("sources=%d", n), func(b *testing.B) {
			f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: n, RowsPerSource: 50})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.M.Query(paperQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelingTools compares direct extents, mapped types and views
// over the same data (E6).
func BenchmarkModelingTools(b *testing.B) {
	f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: 2, RowsPerSource: 200})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := f.M.ExecODL(`
		interface PersonPrime {
		    attribute String n;
		    attribute Short s;
		}
		extent personprime0 of PersonPrime wrapper w0 repository r0
		    map ((person0=personprime0),(name=n),(salary=s));
		define wealthy as
		    select struct(name: x.name, salary: x.salary)
		    from x in person where x.salary > 500;
	`); err != nil {
		b.Fatal(err)
	}
	cases := []struct{ name, q string }{
		{"direct", `select x.name from x in person0 where x.salary > 500`},
		{"mapped", `select x.n from x in personprime0 where x.s > 500`},
		{"view", `select w.name from w in wealthy`},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.M.Query(c.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompiledEval compares the two expression evaluators on a
// select+project pipeline's per-tuple work: the tree-walking reference
// (oql.Eval over an Env chain rebuilt per tuple, the pre-PR4 hot path) vs
// the closure-compiled program (oql.Compile, tuples bound into a reusable
// flat slot environment). The acceptance bar is ≥2x time and ≥50% allocs.
func BenchmarkCompiledEval(b *testing.B) {
	const tuples = 1024
	rows := make([]*types.Struct, tuples)
	for i := range rows {
		rows[i] = types.NewStruct(types.Field{Name: "x", Value: types.NewStruct(
			types.Field{Name: "id", Value: types.Int(int64(i))},
			types.Field{Name: "name", Value: types.Str(fmt.Sprintf("p%d", i))},
			types.Field{Name: "salary", Value: types.Int(int64(i % 977))},
		)})
	}
	pred, err := oql.ParseQuery(`x.salary > 10 and x.name != "nobody"`)
	if err != nil {
		b.Fatal(err)
	}
	proj, err := oql.ParseQuery(`struct(name: x.name, pay: x.salary * 2)`)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("tree-walk", func(b *testing.B) {
		// evalWith as the pre-PR4 operators ran it: each operator rebuilt
		// the Env chain from the tuple's fields per expression evaluation
		// (MkSelect for the predicate, MkProj for the projection).
		evalWith := func(e oql.Expr, st *types.Struct) (types.Value, error) {
			var env *oql.Env
			for _, f := range st.Fields() {
				env = env.Bind(f.Name, f.Value)
			}
			return oql.Eval(e, env, oql.EmptyResolver)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kept := 0
			for _, st := range rows {
				cond, err := evalWith(pred, st)
				if err != nil {
					b.Fatal(err)
				}
				keep, err := types.Truthy(cond)
				if err != nil {
					b.Fatal(err)
				}
				if !keep {
					continue
				}
				if _, err := evalWith(proj, st); err != nil {
					b.Fatal(err)
				}
				kept++
			}
			if kept == 0 {
				b.Fatal("predicate filtered everything")
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		predProg, err := oql.Compile(pred)
		if err != nil {
			b.Fatal(err)
		}
		projProg, err := oql.Compile(proj)
		if err != nil {
			b.Fatal(err)
		}
		predEnv := predProg.NewEnv(oql.EmptyResolver)
		projEnv := projProg.NewEnv(oql.EmptyResolver)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kept := 0
			for _, st := range rows {
				predEnv.BindStruct(st)
				cond, err := predProg.Eval(predEnv)
				if err != nil {
					b.Fatal(err)
				}
				keep, err := types.Truthy(cond)
				if err != nil {
					b.Fatal(err)
				}
				if !keep {
					continue
				}
				projEnv.BindStruct(st)
				if _, err := projProg.Eval(projEnv); err != nil {
					b.Fatal(err)
				}
				kept++
			}
			if kept == 0 {
				b.Fatal("predicate filtered everything")
			}
		}
	})
}

// BenchmarkVolcano measures the Volcano layer's batch ablation: the same
// select+project operator pipeline over 8192 tuples driven with a
// capacity-1 output batch (tuple-at-a-time iteration, one operator-stack
// traversal per tuple) vs full types.BatchSize batches.
func BenchmarkVolcano(b *testing.B) {
	const n = 8192
	rows := make([]types.Value, n)
	for i := range rows {
		rows[i] = types.NewStruct(
			types.Field{Name: "id", Value: types.Int(int64(i))},
			types.Field{Name: "name", Value: types.Str(fmt.Sprintf("p%d", i))},
			types.Field{Name: "salary", Value: types.Int(int64(i % 977))},
		)
	}
	bag := types.NewBag(rows...)
	pred, err := oql.ParseQuery(`x.salary > 488`)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		cap  int
	}{{"tuple", 1}, {"batched", types.BatchSize}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op := &physical.MkProj{
					Cols: []algebra.Col{
						{Name: "name", Expr: &oql.Path{Base: &oql.Ident{Name: "x"}, Field: "name"}},
					},
					Input: &physical.MkSelect{
						Pred:  pred,
						Input: &physical.MkBind{Var: "x", Input: &physical.ConstScan{Bag: bag}},
					},
				}
				if err := op.Open(context.Background()); err != nil {
					b.Fatal(err)
				}
				batch := types.NewBatch(mode.cap)
				got := 0
				for {
					err := op.NextBatch(batch)
					if err != nil {
						break
					}
					got += batch.Len()
				}
				op.Close()
				if got == 0 {
					b.Fatal("pipeline produced nothing")
				}
			}
		})
	}
}

// --- ablations ---------------------------------------------------------------

// BenchmarkJoinAlgorithms compares the two join implementations on the same
// equi-join input (the implementation rule prefers hash).
func BenchmarkJoinAlgorithms(b *testing.B) {
	mkRows := func(n int, field string) *types.Bag {
		rows := make([]types.Value, n)
		for i := range rows {
			rows[i] = types.NewStruct(
				types.Field{Name: field, Value: types.NewStruct(
					types.Field{Name: "id", Value: types.Int(int64(i))},
				)},
			)
		}
		return types.NewBag(rows...)
	}
	const n = 300
	left, right := mkRows(n, "x"), mkRows(n, "y")
	pred, err := oql.ParseQuery(`x.id = y.id`)
	if err != nil {
		b.Fatal(err)
	}
	lk, _ := oql.ParseQuery(`x.id`)
	rk, _ := oql.ParseQuery(`y.id`)
	rt := &physical.Runtime{}

	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op := &physical.HashJoin{
				L: &physical.ConstScan{Bag: left}, R: &physical.ConstScan{Bag: right},
				LKey: lk, RKey: rk,
			}
			out, err := physical.Drain(context.Background(), op)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != n {
				b.Fatalf("rows = %d", len(out))
			}
		}
	})
	b.Run("nested-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op := &physical.NLJoin{
				L: &physical.ConstScan{Bag: left}, R: &physical.ConstScan{Bag: right},
				Pred: pred,
			}
			out, err := physical.Drain(context.Background(), op)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != n {
				b.Fatalf("rows = %d", len(out))
			}
		}
	})
	_ = rt
}

// BenchmarkEarleyRecognizer measures the wrapper grammar check the
// optimizer performs per candidate submit.
func BenchmarkEarleyRecognizer(b *testing.B) {
	g := capability.Standard(capability.FullOpSet())
	pred, err := oql.ParseQuery(`salary > 10 and name != "Bob"`)
	if err != nil {
		b.Fatal(err)
	}
	expr := &algebra.Project{
		Cols: []algebra.Col{{Name: "name", Expr: &oql.Ident{Name: "name"}}},
		Input: &algebra.Select{Pred: pred, Input: &algebra.Get{
			Ref: algebra.ExtentRef{Extent: "person0", Source: "person0"},
		}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.AcceptsExpr(expr) {
			b.Fatal("grammar should accept")
		}
	}
}

// BenchmarkWireValueCodec measures the tagged value encoding used on every
// source round trip.
func BenchmarkWireValueCodec(b *testing.B) {
	rows := make([]types.Value, 100)
	for i := range rows {
		rows[i] = types.NewStruct(
			types.Field{Name: "id", Value: types.Int(int64(i))},
			types.Field{Name: "name", Value: types.Str(fmt.Sprintf("person-%d", i))},
			types.Field{Name: "salary", Value: types.Float(float64(i) * 1.5)},
		)
	}
	bag := types.NewBag(rows...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := types.EncodeValue(bag)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := types.DecodeValue(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMediatorComposition measures the M-over-M round trip of
// Figure 1: an upper mediator reaching data through a lower mediator that
// federates two TCP sources.
func BenchmarkMediatorComposition(b *testing.B) {
	lower, err := harness.NewPersonFleet(harness.FleetConfig{Sources: 2, RowsPerSource: 50, TCP: true})
	if err != nil {
		b.Fatal(err)
	}
	defer lower.Close()
	lowerSrv, err := lower.M.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer lowerSrv.Close()

	upper := harnessUpper(b, lowerSrv.Addr())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := upper.Query(paperQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func harnessUpper(b *testing.B, lowerAddr string) *core.Mediator {
	b.Helper()
	upper := core.New(core.WithTimeout(5 * time.Second))
	if err := upper.ExecODL(`
		rlower := Repository(address="` + lowerAddr + `");
		wmed := Wrapper("mediator");
		interface Person (extent staff) {
		    attribute Short id;
		    attribute String name;
		    attribute Short salary;
		}
		extent person of Person wrapper wmed repository rlower;
	`); err != nil {
		b.Fatal(err)
	}
	return upper
}

// dropProxy forwards TCP bytes to a backend until drop flips, after which
// it silently discards everything — a source that served traffic (and so
// has cost history) and then went dark without closing anything, the
// §4 unavailability whose timeout the circuit breaker exists to skip.
type dropProxy struct {
	lis     net.Listener
	backend string
	drop    atomic.Bool
}

func newDropProxy(b *testing.B, backend string) *dropProxy {
	b.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	p := &dropProxy{lis: lis, backend: backend}
	go func() {
		for {
			client, err := lis.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", backend)
			if err != nil {
				client.Close()
				continue
			}
			forward := func(dst, src net.Conn) {
				buf := make([]byte, 4096)
				for {
					n, err := src.Read(buf)
					if n > 0 && !p.drop.Load() {
						if _, werr := dst.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}
			go forward(server, client)
			go forward(client, server)
		}
	}()
	b.Cleanup(func() { lis.Close() })
	return p
}

// BenchmarkFailover measures a point query over a replicated extent whose
// primary served traffic (so routing's cost history prefers it) and then
// went dark. The cold row has the circuit breaker effectively disabled:
// every query re-pays the dead primary's attempt share of the evaluation
// deadline before failing over to the replica. The warm row primed the
// breaker with one failed query, so routing skips the primary and goes
// straight to the live replica. The gap is the failover story's headline
// number.
func BenchmarkFailover(b *testing.B) {
	const timeout = 100 * time.Millisecond
	const q = `select x.name from x in people where x.id = 7`
	newMediator := func(b *testing.B, opts ...core.Option) (*core.Mediator, *dropProxy) {
		b.Helper()
		primary := source.NewRelStore()
		replica := source.NewRelStore()
		for _, s := range []*source.RelStore{primary, replica} {
			if err := source.GenPeople(s, "people", 50, 0); err != nil {
				b.Fatal(err)
			}
		}
		srv, err := wire.NewServer("127.0.0.1:0", core.EngineHandler{Engine: primary})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		proxy := newDropProxy(b, srv.Addr())
		// The replica is a touch slower than the primary, so the learned
		// cost history keeps preferring the (now dark) primary — the case
		// where only the breaker, not history, can stop the bleeding.
		repSrv, err := wire.NewServer("127.0.0.1:0", core.EngineHandler{Engine: replica})
		if err != nil {
			b.Fatal(err)
		}
		repSrv.SetLatency(2 * time.Millisecond)
		b.Cleanup(func() { repSrv.Close() })
		m := core.New(append([]core.Option{core.WithTimeout(timeout)}, opts...)...)
		b.Cleanup(m.Close)
		if err := m.ExecODL(`
			r0 := Repository(address="` + proxy.lis.Addr().String() + `");
			r0b := Repository(address="` + repSrv.Addr() + `");
			w0 := WrapperPostgres();
			interface Person (extent person) {
			    attribute Short id;
			    attribute String name;
			    attribute Short salary;
			}
			extent people of Person wrapper w0 at r0|r0b;
		`); err != nil {
			b.Fatal(err)
		}
		// The primary answers a few queries first: the learned cost
		// history now prefers it, as it would in any live deployment.
		for i := 0; i < 3; i++ {
			if _, err := m.Query(q); err != nil {
				b.Fatal(err)
			}
		}
		proxy.drop.Store(true)
		return m, proxy
	}

	b.Run("cold-timeout-path", func(b *testing.B) {
		// Threshold too high to ever open: every iteration waits out the
		// primary's share of the deadline, the pre-breaker behaviour.
		m, _ := newMediator(b, core.WithBreaker(1<<30, time.Hour))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("breaker-warm", func(b *testing.B) {
		m, _ := newMediator(b, core.WithBreaker(1, time.Hour))
		if _, err := m.Query(q); err != nil { // prime: opens r0's breaker
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// latQuantile reports the q-quantile of the recorded per-query latencies.
func latQuantile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// BenchmarkHedgedTail: one shard whose primary copy is consistently 20x
// slower than its replica, read under load balancing. The balancer's weight
// floor keeps ~5% of reads on the slow copy (it must stay measured to be
// trusted again), so the unhedged p99 tracks the slow copy's 40ms. With
// hedging, a read outlasting the healthy copies' p99 fires a backup submit
// to the fast copy and the tail collapses to about twice the fast copy's
// latency (one p99 trigger wait plus one fast service time). Compare the
// p99-ms metric across the two sub-benchmarks.
func BenchmarkHedgedTail(b *testing.B) {
	const q = `select x.name from x in people where x.id = 7`
	const fastLat = 2 * time.Millisecond
	const slowLat = 40 * time.Millisecond
	newMediator := func(b *testing.B, opts ...core.Option) *core.Mediator {
		b.Helper()
		odl := ""
		for repo, lat := range map[string]time.Duration{"r0": slowLat, "r0b": fastLat} {
			s := source.NewRelStore()
			if err := source.GenPeople(s, "people", 50, 0); err != nil {
				b.Fatal(err)
			}
			srv, err := wire.NewServer("127.0.0.1:0", core.EngineHandler{Engine: s})
			if err != nil {
				b.Fatal(err)
			}
			srv.SetLatency(lat)
			b.Cleanup(func() { srv.Close() })
			odl += repo + ` := Repository(address="` + srv.Addr() + `");` + "\n"
		}
		m := core.New(append([]core.Option{
			core.WithTimeout(2 * time.Second), core.WithLoadBalancing(),
		}, opts...)...)
		b.Cleanup(m.Close)
		if err := m.ExecODL(odl + `
			w0 := WrapperPostgres();
			interface Person (extent person) {
			    attribute Short id;
			    attribute String name;
			    attribute Short salary;
			}
			extent people of Person wrapper w0 at r0|r0b;
		`); err != nil {
			b.Fatal(err)
		}
		// Warm the latency windows: the balancer needs both copies measured
		// to weight them, and the hedge trigger needs the fast copy's p99 —
		// enough rounds that connection-setup noise rotates out of the
		// sliding window and the p99 settles at the steady service time.
		for i := 0; i < 80; i++ {
			if _, err := m.Query(q); err != nil {
				b.Fatal(err)
			}
		}
		return m
	}
	run := func(b *testing.B, m *core.Mediator) {
		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, err := m.Query(q); err != nil {
				b.Fatal(err)
			}
			lats = append(lats, time.Since(start))
		}
		b.ReportMetric(float64(latQuantile(lats, 0.50))/1e6, "p50-ms")
		b.ReportMetric(float64(latQuantile(lats, 0.99))/1e6, "p99-ms")
	}
	b.Run("unhedged", func(b *testing.B) {
		run(b, newMediator(b))
	})
	b.Run("hedged", func(b *testing.B) {
		run(b, newMediator(b, core.WithHedging(time.Millisecond)))
	})
}

// serialEngine models a copy with capacity one query per service time: the
// mutex serializes the sleep, so concurrent load queues behind it — unlike
// delayEngine, whose sleeps overlap freely.
type serialEngine struct {
	inner source.Engine
	mu    sync.Mutex
	d     time.Duration
}

func (e *serialEngine) Query(q string) (*types.Bag, error) {
	e.mu.Lock()
	time.Sleep(e.d)
	e.mu.Unlock()
	return e.inner.Query(q)
}

func (e *serialEngine) Collections() []string { return e.inner.Collections() }

// BenchmarkReplicaThroughput drives one extent with 16 concurrent readers
// while its replica group grows from 1 to 4 copies, each copy serving one
// query per 2ms. Load balancing spreads the reads, so ns/op should drop
// roughly in proportion to the copy count — the aggregate read capacity
// replication buys once reads stop pinning the primary.
func BenchmarkReplicaThroughput(b *testing.B) {
	const q = `select x.name from x in people where x.id = 7`
	const service = 2 * time.Millisecond
	const workers = 16
	names := []string{"r0", "r0b", "r0c", "r0d"}
	for _, copies := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("copies=%d", copies), func(b *testing.B) {
			m := core.New(core.WithTimeout(10*time.Second), core.WithLoadBalancing())
			b.Cleanup(m.Close)
			odl := ""
			group := ""
			for i := 0; i < copies; i++ {
				s := source.NewRelStore()
				if err := source.GenPeople(s, "people", 50, 0); err != nil {
					b.Fatal(err)
				}
				m.RegisterEngine(names[i], &serialEngine{inner: s, d: service})
				odl += names[i] + ` := Repository(address="mem:` + names[i] + `");` + "\n"
				if i > 0 {
					group += "|"
				}
				group += names[i]
			}
			if err := m.ExecODL(odl + `
				w0 := WrapperPostgres();
				interface Person (extent person) {
				    attribute Short id;
				    attribute String name;
				    attribute Short salary;
				}
				extent people of Person wrapper w0 at ` + group + `;
			`); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 8*copies; i++ { // let the balancer measure every copy
				if _, err := m.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := m.Query(q); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkOverload measures overload protection at 1x/2x/4x saturation:
// closed-loop clients at multiples of the admission gate's concurrency
// limit. The metrics that matter are the custom ones — goodput-q/s should
// hold near capacity as offered load grows, shed-% should absorb the
// excess, and p99-ms of admitted queries should stay bounded instead of
// climbing to the deadline (the collapse shedding prevents).
func BenchmarkOverload(b *testing.B) {
	const (
		maxConcurrent = 4
		slo           = 200 * time.Millisecond
	)
	for _, mult := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("load=%dx", mult), func(b *testing.B) {
			f, err := harness.NewPersonFleet(harness.FleetConfig{
				Sources: 2, RowsPerSource: 50, TCP: true,
				Latency:       5 * time.Millisecond,
				Timeout:       slo,
				MaxConcurrent: maxConcurrent,
				MaxQueued:     maxConcurrent,
				MaxQueueWait:  slo / 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			for i := 0; i < 4; i++ {
				if _, err := f.M.Query(paperQuery); err != nil {
					b.Fatal(err)
				}
			}
			clients := mult * maxConcurrent
			var (
				mu        sync.Mutex
				latencies []time.Duration
				shed      int64
				errs      int64
			)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						ctx, cancel := context.WithTimeout(context.Background(), slo)
						t0 := time.Now()
						_, err := f.M.QueryContext(ctx, paperQuery)
						elapsed := time.Since(t0)
						cancel()
						mu.Lock()
						switch {
						case err == nil:
							latencies = append(latencies, elapsed)
						case core.IsOverloadError(err):
							shed++
						default:
							errs++
						}
						mu.Unlock()
						if err != nil {
							// Back off after a shed, as OverloadError asks of
							// callers — without it the shed clients busy-spin
							// and the benchmark measures scheduler contention.
							time.Sleep(2 * time.Millisecond)
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start).Seconds()
			if errs > int64(b.N)/100+1 {
				b.Errorf("%d of %d queries failed with non-overload errors", errs, b.N)
			}
			b.ReportMetric(float64(len(latencies))/elapsed, "goodput-q/s")
			b.ReportMetric(100*float64(shed)/float64(b.N), "shed-%")
			if len(latencies) > 0 {
				sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
				p99 := latencies[int(0.99*float64(len(latencies)-1))]
				b.ReportMetric(float64(p99.Milliseconds()), "p99-ms")
			}
		})
	}
}

// BenchmarkOQLParse measures the front of the pipeline on a representative
// reconciliation view.
func BenchmarkOQLParse(b *testing.B) {
	const src = `select struct(name: x.name, salary: sum(select z.salary from z in person where x.id = z.id))
		from x in person* where x.salary > 10 and x.name != "nobody"`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oql.ParseQuery(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCancellation measures what end-to-end cancellation buys under a
// workload that abandons most of its requests — the hedge-loser / impatient-
// caller regime. One source with a small server-side in-flight cap and 20ms
// of injected latency serves two populations: "abandoner" clients whose 4ms
// deadlines lapse on every call, and "survivor" clients with generous
// deadlines that retry overload sheds until they succeed. Goodput is the
// survivors' completion rate.
//
// An abandoned request frees its server slot as soon as the cancel frame
// lands — the latency sleep aborts and the handler never runs — so zombies
// occupy a fraction of the cap and survivors get through. wasted-exec
// counts handler executions whose caller had already walked away (the work
// cancellation exists to avoid).
func BenchmarkCancellation(b *testing.B) {
	const (
		serverCap   = 4
		latency     = 20 * time.Millisecond
		abandoners  = 6
		abandonWait = 4 * time.Millisecond
		survivors   = 2
	)
	b.Run("propagate-cancel", func(b *testing.B) {
		store := source.NewRelStore()
		if err := source.GenPeople(store, "people", 20, 1); err != nil {
			b.Fatal(err)
		}
		srv, err := wire.NewServer("127.0.0.1:0", core.EngineHandler{Engine: store},
			wire.WithMaxServerInflight(serverCap))
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		srv.SetLatency(latency)

		abandonC := wire.NewClient(srv.Addr())
		defer abandonC.Close()
		surviveC := wire.NewClient(srv.Addr())
		defer surviveC.Close()

		// Offered zombie load: each abandoner issues a doomed request,
		// waits out its 4ms budget, pauses, repeats. The pacing fixes the
		// zombie arrival rate, so the only variable is how long each zombie
		// holds its server slot.
		stop := make(chan struct{})
		var awg sync.WaitGroup
		for w := 0; w < abandoners; w++ {
			awg.Add(1)
			go func() {
				defer awg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					ctx, cancel := context.WithTimeout(context.Background(), abandonWait)
					_, _ = abandonC.Query(ctx, wire.LangSQL, "SELECT id FROM people")
					cancel()
					time.Sleep(8 * time.Millisecond)
				}
			}()
		}

		handlerRunsBefore := srv.Stats().Queries.Load()
		var completed, sheds atomic.Int64
		var next atomic.Int64
		var swg sync.WaitGroup
		b.ResetTimer()
		start := time.Now()
		for w := 0; w < survivors; w++ {
			swg.Add(1)
			go func() {
				defer swg.Done()
				for next.Add(1) <= int64(b.N) {
					for {
						ctx, cancel := context.WithTimeout(context.Background(), time.Second)
						_, err := surviveC.Query(ctx, wire.LangSQL, "SELECT id FROM people")
						cancel()
						if err == nil {
							completed.Add(1)
							break
						}
						var oe *wire.OverloadedError
						if !errors.As(err, &oe) {
							b.Errorf("survivor query: %v", err)
							return
						}
						// Shed at the cap: back off briefly and retry, as
						// the overload frame asks. Time spent here is the
						// cost of the cap being full of zombies.
						sheds.Add(1)
						time.Sleep(time.Millisecond)
					}
				}
			}()
		}
		swg.Wait()
		elapsed := time.Since(start).Seconds()
		b.StopTimer()
		close(stop)
		awg.Wait()

		handlerRuns := srv.Stats().Queries.Load() - handlerRunsBefore
		wasted := handlerRuns - completed.Load()
		if wasted < 0 {
			wasted = 0
		}
		b.ReportMetric(float64(completed.Load())/elapsed, "goodput-q/s")
		b.ReportMetric(float64(sheds.Load())/float64(b.N), "sheds/op")
		b.ReportMetric(float64(wasted)/float64(b.N), "wasted-exec/op")
	})
}

// BenchmarkLiveMigration measures what a live shard move costs its readers.
// One range-partitioned extent serves a range query that lands inside the
// migrating shard; the sub-benchmarks sample read latency at the three
// resting states of the move — before it starts, parked at dual-read (the
// read is a distinct union over both placements), and after cutover — so
// the dual-read tax shows up as the p50/p99 delta against steady state.
// The cutover itself happens under concurrent readers; the cutover-errors
// metric counts their failures (the contract is zero: reads flip from old
// to new placement on a catalog version bump, never through an error).
func BenchmarkLiveMigration(b *testing.B) {
	const q = `select x.name from x in people where x.id >= 12 and x.id < 24`
	// The injected per-reply latency stands in for real source service time,
	// so the dual-read comparison measures the union of two *parallel*
	// placement reads rather than the fan-out's constant setup cost.
	f, err := harness.NewShardedFleet(harness.ShardedFleetConfig{
		Shards: 3, Spares: 1, Rows: 36,
		TCP: true, Latency: 2 * time.Millisecond, Timeout: 2 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	advanceTo := func(want string) {
		b.Helper()
		phase, _, err := f.M.AdvanceMigration(ctx, "people")
		if err != nil {
			b.Fatal(err)
		}
		if phase != want {
			b.Fatalf("advanced to %s, want %s", phase, want)
		}
	}
	measure := func(b *testing.B) {
		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, err := f.M.Query(q); err != nil {
				b.Fatal(err)
			}
			lats = append(lats, time.Since(start))
		}
		b.ReportMetric(float64(latQuantile(lats, 0.50))/1e6, "p50-ms")
		b.ReportMetric(float64(latQuantile(lats, 0.99))/1e6, "p99-ms")
	}

	b.Run("steady", measure)

	// Park the move at dual-read: declared -> copying -> dual-read (the
	// second advance runs the copy), a resting state queries see directly.
	if err := f.M.BeginShardMove("people", "r1", "r3"); err != nil {
		b.Fatal(err)
	}
	advanceTo(catalog.PhaseCopying)
	advanceTo(catalog.PhaseDualRead)
	b.Run("dual-read", measure)

	// Cut over while 8 readers hammer the migrating range, then count their
	// errors: the placement flip must be invisible to them.
	var cutoverErrs atomic.Int64
	var once sync.Once
	b.Run("after-cutover", func(b *testing.B) {
		once.Do(func() {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := f.M.Query(q); err != nil {
							cutoverErrs.Add(1)
						}
					}
				}()
			}
			advanceTo(catalog.PhaseCutover)
			if _, done, err := f.M.AdvanceMigration(ctx, "people"); err != nil {
				b.Fatal(err)
			} else if !done {
				b.Fatal("cutover -> done did not finish the migration")
			}
			close(stop)
			wg.Wait()
		})
		measure(b)
		b.ReportMetric(float64(cutoverErrs.Load()), "cutover-errors")
	})
}
