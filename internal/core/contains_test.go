package core

import (
	"strings"
	"testing"
	"time"

	"disco/internal/source"
	"disco/internal/types"
	"disco/internal/wire"
)

// notesMediator federates a keyword-search document source with contains()
// pushdown available.
func notesMediator(t *testing.T) *Mediator {
	t.Helper()
	m := New(WithTimeout(300 * time.Millisecond))
	docs := source.NewDocStore()
	for _, n := range []struct{ station, note string }{
		{"amont", "upstream reference site"},
		{"aval", "downstream of the treatment plant"},
		{"marne", "confluence, reference quality"},
	} {
		docs.AddDocument("notes", types.NewStruct(
			types.Field{Name: "station", Value: types.Str(n.station)},
			types.Field{Name: "note", Value: types.Str(n.note)},
		))
	}
	m.RegisterEngine("waisbox", docs)
	if err := m.ExecODL(`
		rw := Repository(address="mem:waisbox");
		wdoc := Wrapper("doc");
		interface Note (extent allnotes) {
		    attribute String station;
		    attribute String note;
		}
		extent notes of Note wrapper wdoc repository rw;
	`); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestContainsPushesToDocSource: contains() predicates reach the keyword
// server as GREP operations.
func TestContainsPushesToDocSource(t *testing.T) {
	m := notesMediator(t)
	got := m.MustQuery(`select n.station from n in notes where contains(n.note, "reference")`)
	want := types.NewBag(types.Str("amont"), types.Str("marne"))
	if !got.Equal(want) {
		t.Errorf("contains query = %s, want %s", got, want)
	}
	explain, err := m.Explain(`select n.station from n in notes where contains(n.note, "reference")`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, `submit(rw, select(contains(note, "reference"), get(notes)))`) {
		t.Errorf("contains should push into the submit:\n%s", explain)
	}
}

// TestDocPredicateQuotes: a string value holding a single quote reaches
// the document source intact, for both pushed predicate shapes.
func TestDocPredicateQuotes(t *testing.T) {
	m := New(WithTimeout(300 * time.Millisecond))
	docs := source.NewDocStore()
	for i, name := range []string{"O'Brien", "'", "", "OBrien"} {
		docs.AddDocument("people", types.NewStruct(
			types.Field{Name: "id", Value: types.Int(int64(i + 1))},
			types.Field{Name: "name", Value: types.Str(name)},
		))
	}
	m.RegisterEngine("dbox", docs)
	if err := m.ExecODL(`
		rd := Repository(address="mem:dbox");
		wdoc := Wrapper("doc");
		interface Person (extent person) {
		    attribute Short id;
		    attribute String name;
		}
		extent people of Person wrapper wdoc repository rd;
	`); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q    string
		want *types.Bag
	}{
		{`select x.id from x in people where x.name = "O'Brien"`, types.NewBag(types.Int(1))},
		{`select x.id from x in people where x.name = "'"`, types.NewBag(types.Int(2))},
		{`select x.id from x in people where contains(x.name, "O'B")`, types.NewBag(types.Int(1))},
		{`select x.id from x in people where contains(x.name, "'")`, types.NewBag(types.Int(1), types.Int(2))},
	}
	for _, tc := range cases {
		got, err := m.Query(tc.q)
		if err != nil {
			t.Errorf("%s: %v", tc.q, err)
			continue
		}
		if !got.Equal(tc.want) {
			t.Errorf("%s = %s, want %s", tc.q, got, tc.want)
		}
	}
}

// TestContainsStaysLocalForSQLSources: relational wrappers do not advertise
// CONTAINS, so the predicate evaluates at the mediator with identical
// results.
func TestContainsStaysLocalForSQLSources(t *testing.T) {
	m := New(WithTimeout(300 * time.Millisecond))
	store := source.NewRelStore()
	if err := store.CreateTable("person0", "id", "name", "salary"); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"Mary Curie", "Sam Weiss", "Maryam M"} {
		if err := store.Insert("person0", types.Int(int64(i)), types.Str(name), types.Int(50)); err != nil {
			t.Fatal(err)
		}
	}
	m.RegisterEngine("r0", store)
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
	const q = `select x.name from x in person0 where contains(x.name, "Mary")`
	got := m.MustQuery(q)
	want := types.NewBag(types.Str("Mary Curie"), types.Str("Maryam M"))
	if !got.Equal(want) {
		t.Errorf("contains query = %s, want %s", got, want)
	}
	explain, err := m.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(explain, "submit(r0, select(contains") {
		t.Errorf("SQL wrappers must not receive contains predicates:\n%s", explain)
	}
}

// TestContainsPartialAnswerRoundTrips: a residual query carrying a
// contains() predicate parses and re-evaluates.
func TestContainsInResidualQuery(t *testing.T) {
	docs := source.NewDocStore()
	docs.AddDocument("notes", types.NewStruct(
		types.Field{Name: "station", Value: types.Str("amont")},
		types.Field{Name: "note", Value: types.Str("reference site")},
	))
	srv, err := wire.NewServer("127.0.0.1:0", EngineHandler{Engine: docs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := New(WithTimeout(200 * time.Millisecond))
	if err := m.ExecODL(`
		rw := Repository(address="` + srv.Addr() + `");
		wdoc := Wrapper("doc");
		interface Note (extent allnotes) {
		    attribute String station;
		    attribute String note;
		}
		extent notes of Note wrapper wdoc repository rw;
	`); err != nil {
		t.Fatal(err)
	}
	srv.SetAvailable(false)
	ans, err := m.QueryPartial(`select n.station from n in notes where contains(n.note, "reference")`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Complete {
		t.Fatal("expected partial answer")
	}
	if !strings.Contains(ans.Residual.String(), "contains(") {
		t.Errorf("residual should carry the contains predicate: %s", ans.Residual)
	}
	srv.SetAvailable(true)
	re, err := m.QueryPartial(ans.Residual.String())
	if err != nil {
		t.Fatal(err)
	}
	if !re.Complete || !re.Value.Equal(types.NewBag(types.Str("amont"))) {
		t.Errorf("resubmitted = %v (complete=%v)", re.Value, re.Complete)
	}
}
