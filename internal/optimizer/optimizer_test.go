package optimizer

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/costmodel"
	"disco/internal/oql"
)

func personRef(extent, repo string) algebra.ExtentRef {
	return algebra.ExtentRef{
		Extent: extent, Repo: repo, Source: extent, Iface: "Person",
		Attrs: []string{"id", "name", "salary"},
	}
}

type resolver struct{}

func (resolver) ResolvePlan(name string, star bool) (algebra.Node, error) {
	switch name {
	case "person0":
		return &algebra.Submit{Repo: "r0", Input: &algebra.Get{Ref: personRef("person0", "r0")}}, nil
	case "person1":
		return &algebra.Submit{Repo: "r1", Input: &algebra.Get{Ref: personRef("person1", "r1")}}, nil
	case "person":
		p0, _ := resolver{}.ResolvePlan("person0", false)
		p1, _ := resolver{}.ResolvePlan("person1", false)
		return &algebra.Union{Inputs: []algebra.Node{p0, p1}}, nil
	case "employee0":
		return &algebra.Submit{Repo: "r0", Input: &algebra.Get{Ref: algebra.ExtentRef{
			Extent: "employee0", Repo: "r0", Source: "employee0", Attrs: []string{"ename", "dept"},
		}}}, nil
	case "manager0":
		return &algebra.Submit{Repo: "r0", Input: &algebra.Get{Ref: algebra.ExtentRef{
			Extent: "manager0", Repo: "r0", Source: "manager0", Attrs: []string{"mname", "mdept"},
		}}}, nil
	default:
		return nil, fmt.Errorf("unknown extent %q", name)
	}
}

// grammarMap is a CapabilitySource backed by a map.
type grammarMap map[string]*capability.Grammar

func (m grammarMap) GrammarFor(repo string) (*capability.Grammar, error) {
	g, ok := m[repo]
	if !ok {
		return nil, fmt.Errorf("no wrapper for %q", repo)
	}
	return g, nil
}

func fullCaps() grammarMap {
	g := capability.Standard(capability.FullOpSet())
	return grammarMap{"r0": g, "r1": g}
}

func scanCaps() grammarMap {
	g := capability.Standard(capability.ScanOpSet())
	return grammarMap{"r0": g, "r1": g}
}

func compile(t *testing.T, src string) algebra.Node {
	t.Helper()
	e, err := oql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := algebra.Compile(e, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

const paperQuery = `select x.name from x in person where x.salary > 10`

// TestDefaultCostPushesMaximally verifies the §3.3 claim: with no cost
// information, "the optimizer will choose plans where the maximum amount of
// computation is done at the data source".
func TestDefaultCostPushesMaximally(t *testing.T) {
	o := New(fullCaps(), costmodel.New())
	plan, report := o.Optimize(compile(t, paperQuery))
	s := plan.String()
	// Both select and project must have moved into the submits.
	if !strings.Contains(s, "submit(r0, project([name], select(salary > 10, get(person0))))") {
		t.Errorf("chosen plan does not push maximally:\n%s\n%s", s, report)
	}
}

// TestScanWrappersForceMediatorPlan: with get-only wrappers every candidate
// collapses to the unpushed plan.
func TestScanWrappersForceMediatorPlan(t *testing.T) {
	o := New(scanCaps(), costmodel.New())
	plan, report := o.Optimize(compile(t, paperQuery))
	if strings.Contains(plan.String(), "submit(r0, select") || strings.Contains(plan.String(), "submit(r0, project") {
		t.Errorf("nothing should push to scan wrappers:\n%s", plan)
	}
	if len(report.Candidates) != 1 {
		t.Errorf("all combos should dedup to one candidate, got %d", len(report.Candidates))
	}
}

// TestHistoryCanOverridePushdown: when observed costs say the pushed-down
// call is slower (e.g. a source with a terrible selection path), the
// optimizer keeps the selection at the mediator.
func TestHistoryCanOverridePushdown(t *testing.T) {
	h := costmodel.New()
	// Teach the model: plain scans are fast and small...
	scan0 := &algebra.Get{Ref: personRef("person0", "r0")}
	scan1 := &algebra.Get{Ref: personRef("person1", "r1")}
	h.Record("r0", scan0, 1*time.Millisecond, 10)
	h.Record("r1", scan1, 1*time.Millisecond, 10)
	// ... while pushed selections at these sources are pathologically slow.
	pred, err := oql.ParseQuery(`salary > 10`)
	if err != nil {
		t.Fatal(err)
	}
	slow0 := &algebra.Select{Pred: pred, Input: scan0}
	slow1 := &algebra.Select{Pred: pred, Input: scan1}
	projSlow0 := &algebra.Project{Cols: []algebra.Col{{Name: "name", Expr: &oql.Ident{Name: "name"}}}, Input: slow0}
	projSlow1 := &algebra.Project{Cols: []algebra.Col{{Name: "name", Expr: &oql.Ident{Name: "name"}}}, Input: slow1}
	for _, rec := range []struct {
		repo string
		expr algebra.Node
	}{{"r0", slow0}, {"r1", slow1}, {"r0", projSlow0}, {"r1", projSlow1}} {
		h.Record(rec.repo, rec.expr, 10*time.Second, 8)
	}

	o := New(fullCaps(), h)
	plan, report := o.Optimize(compile(t, paperQuery))
	if strings.Contains(plan.String(), "submit(r0, select") {
		t.Errorf("optimizer ignored the recorded slowness:\n%s\n%s", plan, report)
	}
}

func TestJoinPushdownChosenForSameRepo(t *testing.T) {
	o := New(fullCaps(), costmodel.New())
	q := compile(t, `select struct(e: x.ename, m: y.mname) from x in employee0, y in manager0 where x.dept = y.mdept`)
	plan, report := o.Optimize(q)
	found := false
	algebra.Walk(plan, func(n algebra.Node) {
		if s, ok := n.(*algebra.Submit); ok {
			if _, isJoin := s.Input.(*algebra.Join); isJoin {
				found = true
			}
		}
	})
	if !found {
		t.Errorf("same-repo equi-join should push under default costs:\n%s\n%s", plan, report)
	}
}

func TestHeterogeneousCapabilities(t *testing.T) {
	// r0 is a full SQL source, r1 is scan-only: the select pushes to r0's
	// branch of the union but stays at the mediator for r1's.
	caps := grammarMap{
		"r0": capability.Standard(capability.FullOpSet()),
		"r1": capability.Standard(capability.ScanOpSet()),
	}
	o := New(caps, costmodel.New())
	plan, _ := o.Optimize(compile(t, paperQuery))
	s := plan.String()
	if !strings.Contains(s, "submit(r0, project([name], select(salary > 10, get(person0))))") {
		t.Errorf("r0 branch should be fully pushed: %s", s)
	}
	if strings.Contains(s, "submit(r1, select") || strings.Contains(s, "submit(r1, project") {
		t.Errorf("r1 branch must stay unpushed: %s", s)
	}
}

func TestReportListsAlternatives(t *testing.T) {
	o := New(fullCaps(), costmodel.New())
	_, report := o.Optimize(compile(t, paperQuery))
	if len(report.Candidates) < 2 {
		t.Fatalf("candidates = %d, want several distinct plans", len(report.Candidates))
	}
	// Costs are sorted ascending.
	for i := 1; i < len(report.Candidates); i++ {
		if report.Candidates[i].Cost.Total < report.Candidates[i-1].Cost.Total {
			t.Errorf("candidates not sorted by cost")
		}
	}
	if !strings.Contains(report.String(), "=>") {
		t.Error("report should mark the chosen plan")
	}
}

func TestMissingWrapperMeansNoPushdown(t *testing.T) {
	o := New(grammarMap{}, costmodel.New())
	plan, _ := o.Optimize(compile(t, paperQuery))
	if strings.Contains(plan.String(), "select(salary") {
		t.Errorf("unknown wrappers must not receive pushdown: %s", plan)
	}
}

func TestChosenCandidate(t *testing.T) {
	o := New(fullCaps(), costmodel.New())
	plan, report := o.Optimize(compile(t, paperQuery))
	chosen := report.ChosenCandidate()
	if !algebra.Equal(chosen.Plan, plan) {
		t.Error("ChosenCandidate should return the selected plan")
	}
	if chosen.Cost.Total > report.Candidates[len(report.Candidates)-1].Cost.Total {
		t.Error("chosen plan should not cost more than the worst candidate")
	}
}
