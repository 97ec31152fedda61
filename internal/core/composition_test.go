package core

import (
	"strings"
	"testing"
	"time"

	"disco/internal/types"
	"disco/internal/wire"
)

// composedFederation builds the three-level Figure 1 stack: two TCP data
// sources under a lower mediator, itself a source of an upper mediator.
func composedFederation(t *testing.T) (src0, src1 *wire.Server, lower, upper *Mediator) {
	t.Helper()
	r0, r1 := paperStores(t)
	var err error
	src0, err = wire.NewServer("127.0.0.1:0", EngineHandler{Engine: r0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src0.Close() })
	src1, err = wire.NewServer("127.0.0.1:0", EngineHandler{Engine: r1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src1.Close() })

	lower = New(WithTimeout(250 * time.Millisecond))
	if err := lower.ExecODL(`
		r0 := Repository(address="` + src0.Addr() + `");
		r1 := Repository(address="` + src1.Addr() + `");
		w0 := WrapperPostgres();
		interface Person (extent person) {
		    attribute Short id;
		    attribute String name;
		    attribute Short salary;
		}
		extent person0 of Person wrapper w0 repository r0;
		extent person1 of Person wrapper w0 repository r1;
	`); err != nil {
		t.Fatal(err)
	}
	lowerSrv, err := lower.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lowerSrv.Close() })

	upper = New(WithTimeout(2 * time.Second))
	if err := upper.ExecODL(`
		rlower := Repository(address="` + lowerSrv.Addr() + `");
		wmed := Wrapper("mediator");
		interface Person (extent staff) {
		    attribute Short id;
		    attribute String name;
		    attribute Short salary;
		}
		extent person of Person wrapper wmed repository rlower;
	`); err != nil {
		t.Fatal(err)
	}
	return src0, src1, lower, upper
}

// TestPartialAnswersComposeAcrossMediators: with a bottom-level source
// down, the lower mediator answers partially; the upper mediator classifies
// that as unavailability and emits its own resubmittable answer. After the
// bottom source recovers, resubmitting the upper answer yields the full
// result — partial evaluation composes through the M-over-M stack.
func TestPartialAnswersComposeAcrossMediators(t *testing.T) {
	src0, _, _, upper := composedFederation(t)
	const q = `select x.name from x in person where x.salary > 10`

	// Baseline through both levels.
	full, err := upper.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := types.NewBag(types.Str("Mary"), types.Str("Sam"))
	if !full.Equal(want) {
		t.Fatalf("baseline = %s", full)
	}

	// Bottom source dies. The lower mediator can only answer partially,
	// so the upper's partial answer references its own extent.
	src0.SetAvailable(false)
	ans, err := upper.QueryPartial(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Complete {
		t.Fatal("upper answer should be partial")
	}
	if !strings.Contains(ans.Residual.String(), "person") {
		t.Errorf("upper residual should reference the federated extent: %s", ans.Residual)
	}
	if len(ans.Unavailable) != 1 || ans.Unavailable[0] != "rlower" {
		t.Errorf("upper unavailable = %v, want the lower mediator's repo", ans.Unavailable)
	}

	// Recovery at the bottom; resubmission at the top.
	src0.SetAvailable(true)
	re, err := upper.QueryPartial(ans.Residual.String())
	if err != nil {
		t.Fatal(err)
	}
	if !re.Complete {
		t.Fatalf("resubmission should complete: %s", re.Residual)
	}
	if !re.Value.Equal(want) {
		t.Errorf("resubmitted = %s, want %s", re.Value, want)
	}
}

// TestLowerMediatorStillAnswersDirectly: the same outage produces the §1.3
// answer at the lower level, independent of the upper mediator.
func TestLowerMediatorStillAnswersDirectly(t *testing.T) {
	src0, _, lower, _ := composedFederation(t)
	src0.SetAvailable(false)
	ans, err := lower.QueryPartial(`select x.name from x in person where x.salary > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Complete {
		t.Fatal("expected partial")
	}
	want := `union(select x.name from x in person0 where x.salary > 10, bag("Sam"))`
	if ans.Residual.String() != want {
		t.Errorf("lower residual = %s, want %s", ans.Residual, want)
	}
}

// TestConcurrentQueriesOneMediator: the mediator is safe under parallel
// queries (shared catalog, prepared cache, cost history, wrappers).
func TestConcurrentQueriesOneMediator(t *testing.T) {
	m := paperMediator(t)
	queries := []string{
		`select x.name from x in person where x.salary > 10`,
		`count(person)`,
		`select struct(n: x.name) from x in person0`,
		`sum(select x.salary from x in person)`,
	}
	done := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func(i int) {
			_, err := m.Query(queries[i%len(queries)])
			done <- err
		}(i)
	}
	for i := 0; i < 32; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
