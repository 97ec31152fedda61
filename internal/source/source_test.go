package source

import (
	"slices"
	"strings"
	"testing"

	"disco/internal/types"
)

func paperStore(t *testing.T) *RelStore {
	t.Helper()
	s := NewRelStore()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.CreateTable("person0", "id", "name", "salary"))
	must(s.Insert("person0", types.Int(1), types.Str("Mary"), types.Int(200)))
	must(s.Insert("person0", types.Int(3), types.Str("Ann"), types.Int(5)))
	must(s.CreateTable("employee0", "ename", "dept"))
	must(s.Insert("employee0", types.Str("Bob"), types.Str("db")))
	must(s.Insert("employee0", types.Str("Eve"), types.Str("os")))
	must(s.CreateTable("manager0", "mname", "mdept"))
	must(s.Insert("manager0", types.Str("Kim"), types.Str("db")))
	return s
}

func query(t *testing.T, s *RelStore, q string) *types.Bag {
	t.Helper()
	b, err := s.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return b
}

func TestSelectStar(t *testing.T) {
	s := paperStore(t)
	b := query(t, s, `SELECT * FROM person0`)
	if b.Len() != 2 {
		t.Errorf("rows = %d", b.Len())
	}
}

func TestSelectProjection(t *testing.T) {
	s := paperStore(t)
	b := query(t, s, `SELECT name FROM person0 WHERE salary > 10`)
	want := types.NewBag(types.NewStruct(types.Field{Name: "name", Value: types.Str("Mary")}))
	if !b.Equal(want) {
		t.Errorf("got %s, want %s", b, want)
	}
}

func TestSelectMultiColumn(t *testing.T) {
	s := paperStore(t)
	b := query(t, s, `SELECT name, salary FROM person0 WHERE id = 1`)
	if b.Len() != 1 {
		t.Fatalf("rows = %d", b.Len())
	}
	row := b.At(0).(*types.Struct)
	if len(row.FieldNames()) != 2 {
		t.Errorf("row = %s", row)
	}
}

func TestWherePredicates(t *testing.T) {
	s := paperStore(t)
	tests := []struct {
		q    string
		rows int
	}{
		{`SELECT * FROM person0 WHERE salary > 10`, 1},
		{`SELECT * FROM person0 WHERE salary >= 5`, 2},
		{`SELECT * FROM person0 WHERE salary < 10`, 1},
		{`SELECT * FROM person0 WHERE name = 'Mary'`, 1},
		{`SELECT * FROM person0 WHERE name <> 'Mary'`, 1},
		{`SELECT * FROM person0 WHERE name != 'Mary'`, 1},
		{`SELECT * FROM person0 WHERE salary > 10 AND name = 'Mary'`, 1},
		{`SELECT * FROM person0 WHERE salary > 10 OR salary < 6`, 2},
		{`SELECT * FROM person0 WHERE NOT salary > 10`, 1},
		{`SELECT * FROM person0 WHERE (salary > 10 OR id = 3) AND name = 'Ann'`, 1},
		{`SELECT * FROM person0 WHERE id IN (1, 3)`, 2},
		{`SELECT * FROM person0 WHERE id IN (9)`, 0},
		{`SELECT * FROM person0 WHERE TRUE = TRUE`, 2},
		{`SELECT * FROM person0 WHERE salary > -3`, 2},
		{`SELECT * FROM person0 WHERE salary < -3`, 0},
	}
	for _, tt := range tests {
		if got := query(t, s, tt.q).Len(); got != tt.rows {
			t.Errorf("%q: rows = %d, want %d", tt.q, got, tt.rows)
		}
	}
}

func TestJoin(t *testing.T) {
	s := paperStore(t)
	b := query(t, s, `SELECT ename, mname FROM employee0 JOIN manager0 ON dept = mdept`)
	want := types.NewBag(types.NewStruct(
		types.Field{Name: "ename", Value: types.Str("Bob")},
		types.Field{Name: "mname", Value: types.Str("Kim")},
	))
	if !b.Equal(want) {
		t.Errorf("join = %s, want %s", b, want)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	s := paperStore(t)
	b := query(t, s, `SELECT name FROM (SELECT name, salary FROM person0 WHERE salary > 10)`)
	if b.Len() != 1 {
		t.Errorf("rows = %d", b.Len())
	}
}

func TestDistinct(t *testing.T) {
	s := NewRelStore()
	if err := s.CreateTable("t", "a"); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{1, 1, 2} {
		if err := s.Insert("t", types.Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	b := query(t, s, `SELECT DISTINCT a FROM t`)
	if b.Len() != 2 {
		t.Errorf("distinct rows = %d", b.Len())
	}
}

func TestStringEscapes(t *testing.T) {
	s := NewRelStore()
	if err := s.CreateTable("t", "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("t", types.Str("it's")); err != nil {
		t.Fatal(err)
	}
	b := query(t, s, `SELECT * FROM t WHERE a = 'it''s'`)
	if b.Len() != 1 {
		t.Errorf("rows = %d", b.Len())
	}
}

func TestSQLErrors(t *testing.T) {
	s := paperStore(t)
	bad := []string{
		``,
		`SELECT`,
		`SELECT FROM t`,
		`SELECT * FROM`,
		`SELECT * FROM nosuch`,
		`SELECT * FROM person0 WHERE`,
		`SELECT * FROM person0 WHERE salary ~ 3`,
		`SELECT * FROM person0 WHERE id IN (name)`,
		`SELECT * FROM person0 extra`,
		`SELECT * FROM (SELECT * FROM person0`,
		`SELECT nosuchcol FROM person0`,
		`DELETE FROM person0`,
		`SELECT * FROM person0 WHERE 'unterminated`,
	}
	for _, q := range bad {
		if _, err := s.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	s := NewRelStore()
	if err := s.CreateTable("t", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("t", types.Int(1)); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := s.Insert("nosuch", types.Int(1)); err == nil {
		t.Error("unknown table should fail")
	}
	if err := s.CreateTable("t", "a"); err == nil {
		t.Error("duplicate table should fail")
	}
	if err := s.CreateTable("", "a"); err == nil {
		t.Error("empty name should fail")
	}
}

func TestCollections(t *testing.T) {
	s := paperStore(t)
	got := s.Collections()
	want := []string{"employee0", "manager0", "person0"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Collections = %v", got)
	}
	cols, err := s.Columns("person0")
	if err != nil || len(cols) != 3 {
		t.Errorf("Columns = %v, %v", cols, err)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	s := paperStore(t)
	b := query(t, s, `select name from person0 where salary > 10`)
	if b.Len() != 1 {
		t.Errorf("rows = %d", b.Len())
	}
}

// --- DocStore ---------------------------------------------------------------

func paperDocs(t *testing.T) *DocStore {
	t.Helper()
	d := NewDocStore()
	d.AddDocument("sites", types.NewStruct(
		types.Field{Name: "site", Value: types.Str("seine-amont")},
		types.Field{Name: "quality", Value: types.Str("good")},
		types.Field{Name: "ph", Value: types.Float(7.1)},
	))
	d.AddDocument("sites", types.NewStruct(
		types.Field{Name: "site", Value: types.Str("seine-aval")},
		types.Field{Name: "quality", Value: types.Str("poor")},
		types.Field{Name: "ph", Value: types.Float(6.2)},
	))
	return d
}

func TestDocScan(t *testing.T) {
	d := paperDocs(t)
	b, err := d.Query(`SCAN sites`)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Errorf("docs = %d", b.Len())
	}
}

func TestDocMatch(t *testing.T) {
	d := paperDocs(t)
	b, err := d.Query(`MATCH sites quality 'good'`)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("docs = %d", b.Len())
	}
	doc := b.At(0).(*types.Struct)
	if v, _ := doc.Get("site"); !v.Equal(types.Str("seine-amont")) {
		t.Errorf("doc = %s", doc)
	}
}

func TestDocMatchNonString(t *testing.T) {
	d := paperDocs(t)
	b, err := d.Query(`MATCH sites ph '7.1'`)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Errorf("docs = %d", b.Len())
	}
}

func TestSplitDocQuery(t *testing.T) {
	cases := []struct {
		q    string
		want []string
	}{
		{`SCAN sites`, []string{"SCAN", "sites"}},
		{`MATCH sites site 'seine amont'`, []string{"MATCH", "sites", "site", "seine amont"}},
		{`MATCH sites site ''`, []string{"MATCH", "sites", "site", ""}},
		{`MATCH sites name 'O''Brien'`, []string{"MATCH", "sites", "name", "O'Brien"}},
		{`MATCH sites name ''''`, []string{"MATCH", "sites", "name", "'"}},
		{`GREP sites name 'a''''b'`, []string{"GREP", "sites", "name", "a''b"}},
	}
	for _, tc := range cases {
		if got := splitDocQuery(tc.q); !slices.Equal(got, tc.want) {
			t.Errorf("splitDocQuery(%q) = %q, want %q", tc.q, got, tc.want)
		}
	}
}

func TestDocGrep(t *testing.T) {
	d := paperDocs(t)
	b, err := d.Query(`GREP sites site 'seine'`)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Errorf("docs = %d", b.Len())
	}
}

func TestDocQuotedValueWithSpaces(t *testing.T) {
	d := NewDocStore()
	d.AddDocument("notes", types.NewStruct(types.Field{Name: "text", Value: types.Str("hello world")}))
	b, err := d.Query(`MATCH notes text 'hello world'`)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Errorf("docs = %d", b.Len())
	}
}

func TestDocErrors(t *testing.T) {
	d := paperDocs(t)
	for _, q := range []string{
		``,
		`SCAN`,
		`SCAN nosuch`,
		`MATCH sites quality`,
		`EXPLODE sites`,
	} {
		if _, err := d.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestDocCollections(t *testing.T) {
	d := paperDocs(t)
	if got := d.Collections(); len(got) != 1 || got[0] != "sites" {
		t.Errorf("Collections = %v", got)
	}
}

func TestSQLLex(t *testing.T) {
	tests := []struct {
		src  string
		want []string // kind:text per token, EOF omitted
	}{
		{`salary > 3`, []string{"ident:salary", "punct:>", "number:3"}},
		{`salary > -3`, []string{"ident:salary", "punct:>", "number:-3"}},
		{`salary >= -2.5`, []string{"ident:salary", "punct:>=", "number:-2.5"}},
		{`id IN (-1, 2)`, []string{"ident:id", "ident:IN", "punct:(", "number:-1", "punct:,", "number:2", "punct:)"}},
		{"salary -- note -3\n> 1", []string{"ident:salary", "punct:>", "number:1"}},
		{`salary > --3`, []string{"ident:salary", "punct:>"}},
	}
	kinds := map[sqlKind]string{sqlIdent: "ident", sqlNumber: "number", sqlString: "string", sqlPunct: "punct"}
	for _, tt := range tests {
		toks, err := sqlLex(tt.src)
		if err != nil {
			t.Errorf("%q: %v", tt.src, err)
			continue
		}
		var got []string
		for _, tok := range toks[:len(toks)-1] {
			got = append(got, kinds[tok.kind]+":"+tok.text)
		}
		if strings.Join(got, " ") != strings.Join(tt.want, " ") {
			t.Errorf("%q: tokens = %v, want %v", tt.src, got, tt.want)
		}
	}
	if _, err := sqlLex(`salary > - 3`); err == nil {
		t.Error(`"- 3" lexed: a lone '-' is not a sign`)
	}
}
