package core

import (
	"strings"
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/source"
	"disco/internal/types"
	"disco/internal/wire"
)

// paperStores builds the data of §1.2: r0 holds Mary (salary 200), r1
// holds Sam (salary 50).
func paperStores(t *testing.T) (*source.RelStore, *source.RelStore) {
	t.Helper()
	mk := func(rows ...[3]interface{}) *source.RelStore {
		s := source.NewRelStore()
		if err := s.CreateTable("person0", "id", "name", "salary"); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := s.Insert("person0", types.Int(int64(r[0].(int))), types.Str(r[1].(string)), types.Int(int64(r[2].(int)))); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	r0 := mk([3]interface{}{1, "Mary", 200})
	r1 := source.NewRelStore()
	if err := r1.CreateTable("person1", "id", "name", "salary"); err != nil {
		t.Fatal(err)
	}
	if err := r1.Insert("person1", types.Int(2), types.Str("Sam"), types.Int(50)); err != nil {
		t.Fatal(err)
	}
	return r0, r1
}

const paperSchema = `
r0 := Repository(host="rodin", name="db", address="mem:r0");
r1 := Repository(host="rodin", name="db2", address="mem:r1");
w0 := WrapperPostgres();

interface Person (extent person) {
    attribute Short id;
    attribute String name;
    attribute Short salary;
}

extent person0 of Person wrapper w0 repository r0;
extent person1 of Person wrapper w0 repository r1;
`

func paperMediator(t *testing.T) *Mediator {
	t.Helper()
	m := New(WithTimeout(500 * time.Millisecond))
	r0, r1 := paperStores(t)
	m.RegisterEngine("r0", r0)
	m.RegisterEngine("r1", r1)
	if err := m.ExecODL(paperSchema); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPaperIntroExample runs §1.2 end to end: the implicit person extent
// spans both sources.
func TestPaperIntroExample(t *testing.T) {
	m := paperMediator(t)
	got, err := m.Query(`select x.name from x in person where x.salary > 10`)
	if err != nil {
		t.Fatal(err)
	}
	want := types.NewBag(types.Str("Mary"), types.Str("Sam"))
	if !got.Equal(want) {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestExplicitExtents(t *testing.T) {
	m := paperMediator(t)
	got, err := m.Query(`select x.name from x in person0 where x.salary > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(types.NewBag(types.Str("Mary"))) {
		t.Errorf("person0 = %s", got)
	}
	got, err = m.Query(`select x.name from x in union(person0, person1) where x.salary > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(types.NewBag(types.Str("Mary"), types.Str("Sam"))) {
		t.Errorf("union = %s", got)
	}
}

// TestAddingSourceLeavesQueryUnchanged is the DBA scaling claim of §1.2:
// adding a data source is one extent declaration, and the same query then
// spans three sources.
func TestAddingSourceLeavesQueryUnchanged(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person where x.salary > 10`
	if v := m.MustQuery(q); v.(*types.Bag).Len() != 2 {
		t.Fatalf("before: %s", v)
	}
	// One new store, one repository object, one extent declaration.
	r2 := source.NewRelStore()
	if err := r2.CreateTable("person2", "id", "name", "salary"); err != nil {
		t.Fatal(err)
	}
	if err := r2.Insert("person2", types.Int(3), types.Str("Ann"), types.Int(75)); err != nil {
		t.Fatal(err)
	}
	m.RegisterEngine("r2", r2)
	if err := m.ExecODL(`
		r2 := Repository(host="rodin", name="db3", address="mem:r2");
		extent person2 of Person wrapper w0 repository r2;
	`); err != nil {
		t.Fatal(err)
	}
	got := m.MustQuery(q)
	want := types.NewBag(types.Str("Mary"), types.Str("Sam"), types.Str("Ann"))
	if !got.Equal(want) {
		t.Errorf("after adding source: %s, want %s", got, want)
	}
}

// TestMetaExtentQuery: the catalog is queryable as the metaextent
// collection (§2.1).
func TestMetaExtentQuery(t *testing.T) {
	m := paperMediator(t)
	got, err := m.Query(`select x.e from x in metaextent where x.interface = "Person"`)
	if err != nil {
		t.Fatal(err)
	}
	want := types.NewBag(types.Str("person0"), types.Str("person1"))
	if !got.Equal(want) {
		t.Errorf("metaextent = %s", got)
	}
}

// TestTypeMapping is §2.2.2: PersonPrime accesses the same source relation
// under renamed attributes via the local transformation map.
func TestTypeMapping(t *testing.T) {
	m := paperMediator(t)
	if err := m.ExecODL(`
		interface PersonPrime {
		    attribute String n;
		    attribute Short s;
		}
		extent personprime0 of PersonPrime wrapper w0 repository r0
		    map ((person0=personprime0),(name=n),(salary=s));
	`); err != nil {
		t.Fatal(err)
	}
	got, err := m.Query(`select x.n from x in personprime0 where x.s > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(types.NewBag(types.Str("Mary"))) {
		t.Errorf("mapped query = %s", got)
	}
}

// TestSubtypeStar is §2.2.1: person* closes over Student extents while
// person does not.
func TestSubtypeStar(t *testing.T) {
	m := paperMediator(t)
	r2 := source.NewRelStore()
	if err := r2.CreateTable("student0", "id", "name", "salary"); err != nil {
		t.Fatal(err)
	}
	if err := r2.Insert("student0", types.Int(9), types.Str("Stu"), types.Int(12)); err != nil {
		t.Fatal(err)
	}
	m.RegisterEngine("r2", r2)
	if err := m.ExecODL(`
		interface Student:Person { }
		r2 := Repository(address="mem:r2");
		extent student0 of Student wrapper w0 repository r2;
	`); err != nil {
		t.Fatal(err)
	}
	plain := m.MustQuery(`select x.name from x in person`)
	if plain.(*types.Bag).Len() != 2 {
		t.Errorf("person should not include subtype extents: %s", plain)
	}
	star := m.MustQuery(`select x.name from x in person* where x.salary > 10`)
	want := types.NewBag(types.Str("Mary"), types.Str("Sam"), types.Str("Stu"))
	if !star.Equal(want) {
		t.Errorf("person* = %s, want %s", star, want)
	}
}

// TestDoubleView is the §2.2.3 reconciliation view.
func TestDoubleView(t *testing.T) {
	m := paperMediator(t)
	// Give both sources a shared person (id 1) so the join is non-empty.
	r1 := source.NewRelStore()
	if err := r1.CreateTable("person1", "id", "name", "salary"); err != nil {
		t.Fatal(err)
	}
	if err := r1.Insert("person1", types.Int(1), types.Str("Mary"), types.Int(55)); err != nil {
		t.Fatal(err)
	}
	m.RegisterEngine("r1", r1) // replaces the fixture's r1

	if err := m.Define(`define double as
		select struct(name: x.name, salary: x.salary + y.salary)
		from x in person0 and y in person1
		where x.id = y.id`); err != nil {
		t.Fatal(err)
	}
	got := m.MustQuery(`select d.salary from d in double where d.name = "Mary"`)
	if !got.Equal(types.NewBag(types.Int(255))) {
		t.Errorf("double view = %s", got)
	}
}

// TestMultipleView is the §2.2.3 aggregate view over person*.
func TestMultipleView(t *testing.T) {
	m := paperMediator(t)
	if err := m.Define(`define multiple as
		select struct(name: x.name,
		              salary: sum(select z.salary from z in person where x.id = z.id))
		from x in person*`); err != nil {
		t.Fatal(err)
	}
	got := m.MustQuery(`select v.salary from v in multiple where v.name = "Mary"`)
	if !got.Equal(types.NewBag(types.Int(200))) {
		t.Errorf("multiple view = %s", got)
	}
}

// TestPersonNewView is the §2.3 dissimilar-structure view: PersonTwo splits
// salary into regular and consulting pay.
func TestPersonNewView(t *testing.T) {
	m := paperMediator(t)
	r5 := source.NewRelStore()
	if err := r5.CreateTable("persontwo0", "name", "regular", "consult"); err != nil {
		t.Fatal(err)
	}
	if err := r5.Insert("persontwo0", types.Str("Cal"), types.Int(30), types.Int(25)); err != nil {
		t.Fatal(err)
	}
	m.RegisterEngine("r5", r5)
	if err := m.ExecODL(`
		interface PersonTwo {
		    attribute String name;
		    attribute Short regular;
		    attribute Short consult;
		}
		r5 := Repository(address="mem:r5");
		extent persontwo0 of PersonTwo wrapper w0 repository r5;

		define personnew as
		    union(select struct(name: x.name, salary: x.salary) from x in person,
		          select struct(name: x.name, salary: x.regular + x.consult) from x in persontwo0);
	`); err != nil {
		t.Fatal(err)
	}
	got := m.MustQuery(`select p.salary from p in personnew where p.name = "Cal"`)
	if !got.Equal(types.NewBag(types.Int(55))) {
		t.Errorf("personnew = %s", got)
	}
	if got := m.MustQuery(`count(personnew)`); !got.Equal(types.Int(3)) {
		t.Errorf("personnew count = %s", got)
	}
}

// TestPartialAnswersOverTCP is §1.3/§4 on the real network substrate: a
// blocked server yields the paper's partial answer; recovery plus
// resubmission yields the full answer.
func TestPartialAnswersOverTCP(t *testing.T) {
	r0, r1 := paperStores(t)
	srv0, err := wire.NewServer("127.0.0.1:0", EngineHandler{Engine: r0})
	if err != nil {
		t.Fatal(err)
	}
	defer srv0.Close()
	srv1, err := wire.NewServer("127.0.0.1:0", EngineHandler{Engine: r1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()

	m := New(WithTimeout(300 * time.Millisecond))
	if err := m.ExecODL(`
		r0 := Repository(address="` + srv0.Addr() + `");
		r1 := Repository(address="` + srv1.Addr() + `");
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

	const q = `select x.name from x in person where x.salary > 10`

	// All up: complete answer.
	ans, err := m.QueryPartial(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Complete {
		t.Fatalf("expected complete answer, got %s", ans)
	}

	// r0 stops answering: the §1.3 partial answer appears.
	srv0.SetAvailable(false)
	ans, err = m.QueryPartial(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Complete {
		t.Fatal("expected partial answer")
	}
	got := ans.Residual.String()
	want := `union(select x.name from x in person0 where x.salary > 10, bag("Sam"))`
	if got != want {
		t.Errorf("partial answer:\n got  %s\n want %s", got, want)
	}
	if len(ans.Unavailable) != 1 || ans.Unavailable[0] != "r0" {
		t.Errorf("unavailable = %v", ans.Unavailable)
	}

	// r0 recovers; resubmitting the answer yields the original answer.
	srv0.SetAvailable(true)
	re, err := m.QueryPartial(got)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Complete {
		t.Fatalf("resubmission should complete: %s", re.Residual)
	}
	if !re.Value.Equal(types.NewBag(types.Str("Mary"), types.Str("Sam"))) {
		t.Errorf("resubmitted = %s", re.Value)
	}
}

// TestRunTimeTypeCheck is §2.1: objects that do not match the mediator type
// raise a run-time error.
func TestRunTimeTypeCheck(t *testing.T) {
	m := New(WithTimeout(300 * time.Millisecond))
	bad := source.NewRelStore()
	// salary is a string at the source but Short at the mediator.
	if err := bad.CreateTable("person0", "id", "name", "salary"); err != nil {
		t.Fatal(err)
	}
	if err := bad.Insert("person0", types.Int(1), types.Str("Mary"), types.Str("lots")); err != nil {
		t.Fatal(err)
	}
	m.RegisterEngine("r0", bad)
	if err := m.ExecODL(`
		r0 := Repository(address="mem:r0");
		w0 := WrapperPostgres();
		interface Person (extent person) {
		    attribute Short id;
		    attribute String name;
		    attribute Short salary;
		}
		extent person0 of Person wrapper w0 repository r0;
	`); err != nil {
		t.Fatal(err)
	}
	_, err := m.Query(`select x from x in person0`)
	if err == nil || !strings.Contains(err.Error(), "type mismatch") {
		t.Errorf("err = %v, want run-time type mismatch", err)
	}
}

// TestDocWrapperIntegration: a keyword source joins the federation with its
// weak capability set; equality selections push, ranges stay local.
func TestDocWrapperIntegration(t *testing.T) {
	m := New(WithTimeout(300 * time.Millisecond))
	docs := source.NewDocStore()
	docs.AddDocument("sites", types.NewStruct(
		types.Field{Name: "site", Value: types.Str("amont")},
		types.Field{Name: "quality", Value: types.Str("good")},
		types.Field{Name: "ph", Value: types.Float(7.1)},
	))
	docs.AddDocument("sites", types.NewStruct(
		types.Field{Name: "site", Value: types.Str("aval")},
		types.Field{Name: "quality", Value: types.Str("poor")},
		types.Field{Name: "ph", Value: types.Float(6.0)},
	))
	m.RegisterEngine("waisbox", docs)
	if err := m.ExecODL(`
		rw := Repository(address="mem:waisbox");
		wdoc := Wrapper("doc");
		interface Site (extent allsites) {
		    attribute String site;
		    attribute String quality;
		    attribute Float ph;
		}
		extent sites of Site wrapper wdoc repository rw;
	`); err != nil {
		t.Fatal(err)
	}
	// Equality predicate: pushable to the doc source.
	got := m.MustQuery(`select s.site from s in sites where s.quality = "good"`)
	if !got.Equal(types.NewBag(types.Str("amont"))) {
		t.Errorf("equality query = %s", got)
	}
	// Range predicate: must run at the mediator, same answer.
	got = m.MustQuery(`select s.site from s in sites where s.ph > 6.5`)
	if !got.Equal(types.NewBag(types.Str("amont"))) {
		t.Errorf("range query = %s", got)
	}
	// The pushed-down plan shows in EXPLAIN.
	explain, err := m.Explain(`select s.site from s in sites where s.quality = "good"`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, `submit(rw, select(quality = "good", get(sites)))`) {
		t.Errorf("explain should show the pushed plan:\n%s", explain)
	}
}

// TestMediatorComposition: a mediator is a data source of another mediator
// (Figure 1's stacked M boxes).
func TestMediatorComposition(t *testing.T) {
	// Lower mediator federates the two person sources and serves OQL.
	lower := paperMediator(t)
	srv, err := lower.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Upper mediator sees the lower one as a single data source whose
	// collection "person" is the federated extent.
	upper := New(WithTimeout(2 * time.Second))
	if err := upper.ExecODL(`
		rlower := Repository(address="` + srv.Addr() + `");
		wmed := Wrapper("mediator");
		interface Person (extent people) {
		    attribute Short id;
		    attribute String name;
		    attribute Short salary;
		}
		extent person of Person wrapper wmed repository rlower;
	`); err != nil {
		t.Fatal(err)
	}
	got, err := upper.Query(`select x.name from x in person where x.salary > 10`)
	if err != nil {
		t.Fatal(err)
	}
	want := types.NewBag(types.Str("Mary"), types.Str("Sam"))
	if !got.Equal(want) {
		t.Errorf("composed query = %s, want %s", got, want)
	}
}

func TestQueryErrors(t *testing.T) {
	m := paperMediator(t)
	cases := []struct{ src, frag string }{
		{`select x from y in person`, "unknown"},
		{`select x.name from x in ghost`, "unknown collection"},
		{`this is not oql`, "oql"},
		{`select x.ghost from x in person0`, "no attribute"},
	}
	for _, tt := range cases {
		_, err := m.Query(tt.src)
		if err == nil {
			t.Errorf("Query(%q) should fail", tt.src)
			continue
		}
		if !strings.Contains(err.Error(), tt.frag) {
			t.Errorf("Query(%q) error = %q, want fragment %q", tt.src, err, tt.frag)
		}
	}
}

func TestODLErrors(t *testing.T) {
	m := paperMediator(t)
	bad := []string{
		`extent e1 of Ghost wrapper w0 repository r0;`,
		`extent e1 of Person wrapper ghost repository r0;`,
		`extent e1 of Person wrapper w0 repository ghost;`,
		`w9 := Wrapper("hologram"); extent e1 of Person wrapper w9 repository r0;`,
	}
	for _, src := range bad {
		if err := m.ExecODL(src); err == nil {
			// Wrapper-kind errors surface at first use, not declaration.
			if _, qerr := m.Query(`select x from x in e1`); qerr == nil {
				t.Errorf("ExecODL(%q) should fail eventually", src)
			}
		}
	}
}

func TestScanWrapperForcesMediatorEvaluation(t *testing.T) {
	m := New(WithTimeout(300 * time.Millisecond))
	r0, _ := paperStores(t)
	m.RegisterEngine("r0", r0)
	if err := m.ExecODL(`
		r0 := Repository(address="mem:r0");
		wscan := Wrapper("scan");
		interface Person (extent person) {
		    attribute Short id;
		    attribute String name;
		    attribute Short salary;
		}
		extent person0 of Person wrapper wscan repository r0;
	`); err != nil {
		t.Fatal(err)
	}
	got := m.MustQuery(`select x.name from x in person0 where x.salary > 10`)
	if !got.Equal(types.NewBag(types.Str("Mary"))) {
		t.Errorf("scan-wrapped query = %s", got)
	}
	explain, err := m.Explain(`select x.name from x in person0 where x.salary > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(explain, "submit(r0, select") {
		t.Errorf("scan wrapper must not receive selections:\n%s", explain)
	}
}

func TestCostHistoryLearnsFromExecution(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person0`
	if _, err := m.Query(q); err != nil {
		t.Fatal(err)
	}
	// The submit expression that ran was project([name], get(person0)); the
	// history must now hold an exact observation for it.
	plan, _, err := m.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	subs := 0
	for _, s := range algebra.Submits(plan) {
		if m.History().Observations(s.Repo, s.Input) > 0 {
			subs++
		}
	}
	if subs == 0 {
		t.Error("execution should record exec costs for the submitted expressions")
	}
}
