package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"disco/internal/algebra"
	"disco/internal/costmodel"
	"disco/internal/oql"
	"disco/internal/types"
)

// partResolver resolves two extents hash-partitioned by id over the same
// two repositories (co-partitioned), plus a third partitioned by a
// different attribute.
type partResolver struct{}

func (partResolver) ResolvePlan(name string, star bool) (algebra.Node, error) {
	hashID := &algebra.PartitionSpec{Kind: algebra.PartHash, Attr: "id"}
	hashDept := &algebra.PartitionSpec{Kind: algebra.PartHash, Attr: "dept"}
	mk := func(extent string, attrs []string, spec *algebra.PartitionSpec) algebra.Node {
		inputs := make([]algebra.Node, 2)
		for i, repo := range []string{"r0", "r1"} {
			inputs[i] = &algebra.Submit{Repo: repo, Input: &algebra.Get{Ref: algebra.ExtentRef{
				Extent: extent, Repo: repo, Source: extent, Attrs: attrs,
				Partition: repo, PartSpec: spec, PartIndex: i, PartCount: 2,
			}}}
		}
		return &algebra.Union{Inputs: inputs, Par: true}
	}
	switch name {
	case "orders":
		return mk("orders", []string{"id", "total"}, hashID), nil
	case "invoices":
		return mk("invoices", []string{"id", "ref"}, hashID), nil
	case "depts":
		return mk("depts", []string{"id", "dept"}, hashDept), nil
	default:
		return nil, fmt.Errorf("unknown extent %q", name)
	}
}

func compilePart(t *testing.T, src string) algebra.Node {
	t.Helper()
	e, err := oql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := algebra.Compile(e, partResolver{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// joinShape classifies the joins of a plan: how many there are and how
// many read their two sides from different repositories (cross-shard).
func joinShape(plan algebra.Node) (joins, crossShard int) {
	algebra.Walk(plan, func(n algebra.Node) {
		j, ok := n.(*algebra.Join)
		if !ok {
			return
		}
		joins++
		repos := map[string]bool{}
		for _, side := range []algebra.Node{j.L, j.R} {
			for _, s := range algebra.Submits(side) {
				repos[s.Repo] = true
			}
		}
		if len(repos) > 1 {
			crossShard++
		}
	})
	return joins, crossShard
}

// TestCoPartitionedJoinCompilesPartitionWise is the plan-shape acceptance
// test: a co-partitioned equi-join on the partition attribute becomes a
// parallel union of per-shard joins with no cross-shard pairs.
func TestCoPartitionedJoinCompilesPartitionWise(t *testing.T) {
	o := New(scanCaps(), costmodel.New())
	q := compilePart(t, `select struct(a: x.total, b: y.ref) from x in orders, y in invoices where x.id = y.id`)
	plan, report := o.Optimize(q)
	joins, crossShard := joinShape(plan)
	if joins != 2 || crossShard != 0 {
		t.Errorf("joins = %d (want one per shard, 2), cross-shard = %d (want 0):\n%s\n%s",
			joins, crossShard, plan, report)
	}
	u, ok := plan.(*algebra.Union)
	if !ok || !u.Par {
		t.Errorf("per-shard joins should sit under a parallel union:\n%s", plan)
	}
}

// TestDifferentPartitionAttrsStayGeneric: extents partitioned by different
// attributes are not co-partitioned, so the join keeps the generic shape.
func TestDifferentPartitionAttrsStayGeneric(t *testing.T) {
	o := New(scanCaps(), costmodel.New())
	q := compilePart(t, `select struct(a: x.total, b: y.dept) from x in orders, y in depts where x.id = y.id`)
	plan, _ := o.Optimize(q)
	if joins, crossShard := joinShape(plan); joins != 1 || crossShard != 1 {
		t.Errorf("non-co-partitioned extents must keep the single all-shards join (joins=%d cross=%d):\n%s",
			joins, crossShard, plan)
	}
}

// TestJoinOffPartitionAttrStaysGeneric: co-partitioned extents joined on a
// non-partition attribute cannot be joined partition-wise (equal join keys
// may live at different shards).
func TestJoinOffPartitionAttrStaysGeneric(t *testing.T) {
	o := New(scanCaps(), costmodel.New())
	q := compilePart(t, `select struct(a: x.id, b: y.id) from x in orders, y in invoices where x.total = y.ref`)
	plan, _ := o.Optimize(q)
	if joins, crossShard := joinShape(plan); joins != 1 || crossShard != 1 {
		t.Errorf("a join off the partition attribute must stay generic (joins=%d cross=%d):\n%s",
			joins, crossShard, plan)
	}
}

// TestPointQueryPrunesToOneSubmit: the optimizer turns a punion over hash
// shards plus an equality predicate into a single-shard plan and reports
// the pruned shard.
func TestPointQueryPrunesToOneSubmit(t *testing.T) {
	o := New(scanCaps(), costmodel.New())
	home := int(algebra.HashValue(types.Int(7)) % 2)
	q := compilePart(t, `select x.total from x in orders where x.id = 7`)
	plan, report := o.Optimize(q)
	subs := algebra.Submits(plan)
	if len(subs) != 1 {
		t.Fatalf("point query plan has %d submits, want 1:\n%s", len(subs), plan)
	}
	if want := fmt.Sprintf("r%d", home); subs[0].Repo != want {
		t.Errorf("plan reads %s, want the hash slot %s", subs[0].Repo, want)
	}
	other := fmt.Sprintf("orders@r%d", 1-home)
	if len(report.Pruned) != 1 || report.Pruned[0] != other {
		t.Errorf("Pruned = %v, want [%s]", report.Pruned, other)
	}
	if !strings.Contains(report.String(), "pruned shards: "+other) {
		t.Errorf("report should print pruned shards:\n%s", report)
	}
}

// TestPartitionWiseCandidateWinsOnCost: both variants are enumerated, and
// the cost model's output-tuple charge makes the per-shard join cheaper.
func TestPartitionWiseCandidateWinsOnCost(t *testing.T) {
	o := New(scanCaps(), costmodel.New())
	q := compilePart(t, `select struct(a: x.total, b: y.ref) from x in orders, y in invoices where x.id = y.id`)
	_, report := o.Optimize(q)
	var generic, partitionWise *Candidate
	for i := range report.Candidates {
		c := &report.Candidates[i]
		switch joins, crossShard := joinShape(c.Plan); {
		case joins == 2 && crossShard == 0:
			partitionWise = c
		case joins == 1 && crossShard == 1:
			generic = c
		}
	}
	if partitionWise == nil || generic == nil {
		t.Fatalf("both join shapes should be enumerated:\n%s", report)
	}
	if partitionWise.Cost.Total >= generic.Cost.Total {
		t.Errorf("partition-wise cost %.4f should undercut generic %.4f",
			partitionWise.Cost.Total, generic.Cost.Total)
	}
}
