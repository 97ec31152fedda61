package core

import (
	"context"
	"fmt"
	"strings"

	"disco/internal/algebra"
	"disco/internal/catalog"
	"disco/internal/oql"
	"disco/internal/types"
)

// MetaExtentName is the reserved collection of extent metadata (§2.1).
const MetaExtentName = "metaextent"

// planResolver implements algebra.NameResolver over the catalog: extents
// resolve to submit(get(...)) plans, implicit type extents to unions over
// their declared extents, and T* to the subtype closure.
type planResolver struct {
	m *Mediator
}

// ResolvePlan implements algebra.NameResolver.
func (r planResolver) ResolvePlan(name string, star bool) (algebra.Node, error) {
	cat := r.m.catalog
	// extent@repo names one shard of a partitioned extent — the form
	// residual queries use so resubmission touches only the missing
	// partitions.
	if ext, repo, ok := strings.Cut(name, "@"); ok {
		if star {
			return nil, fmt.Errorf("mediator: %s* applies to type extents, not partitions", name)
		}
		me, err := cat.Extent(ext)
		if err != nil {
			return nil, err
		}
		// A replica name canonicalizes to its shard's primary, so residuals
		// written against any copy route (and fail over) like the original.
		primary, ok := me.PrimaryFor(repo)
		if !ok {
			return nil, fmt.Errorf("mediator: extent %s has no partition at %q", ext, repo)
		}
		return r.shardBranch(me, primary), nil
	}
	if name == MetaExtentName {
		if star {
			return nil, fmt.Errorf("mediator: metaextent has no subtype closure")
		}
		return &algebra.Const{Data: cat.MetaExtentBag()}, nil
	}
	// An explicit extent (person0).
	if me, err := cat.Extent(name); err == nil {
		if star {
			return nil, fmt.Errorf("mediator: %s* applies to type extents, not data-source extents", name)
		}
		return r.extentPlan(me), nil
	}
	// The implicit extent of an interface (person, person*): realize the
	// §2.1 definition flatten(select x.e from x in metaextent where
	// x.interface = T) natively as a union over the registered extents.
	if iface, ok := cat.InterfaceByExtentName(name); ok {
		var extents []*catalog.MetaExtent
		if star {
			extents = cat.ExtentsOfStar(iface.Name)
		} else {
			extents = cat.ExtentsOf(iface.Name)
		}
		inputs := make([]algebra.Node, 0, len(extents))
		for _, me := range extents {
			inputs = append(inputs, r.extentPlan(me))
		}
		switch len(inputs) {
		case 0:
			// A type with no extents yet: the collection is empty.
			return &algebra.Const{Data: types.NewBag()}, nil
		case 1:
			return inputs[0], nil
		default:
			return &algebra.Union{Inputs: inputs}, nil
		}
	}
	return nil, fmt.Errorf("mediator: unknown collection %q", name)
}

// extentPlan produces the access plan for one extent: a single submit, or —
// for a horizontally partitioned extent — a parallel union of per-partition
// submits that the physical layer executes with scatter-gather.
func (r planResolver) extentPlan(me *catalog.MetaExtent) algebra.Node {
	parts := me.Partitions()
	if len(parts) == 1 {
		return r.shardBranch(me, parts[0])
	}
	inputs := make([]algebra.Node, len(parts))
	for i, repo := range parts {
		inputs[i] = r.shardBranch(me, repo)
	}
	return &algebra.Union{Inputs: inputs, Par: true}
}

// shardBranch returns the access plan for one shard, rewriting it when a
// live migration of the extent is in flight:
//
//   - dual-read (move/split): the shard reads a distinct-fused parallel
//     union of its old and new placement. The new-placement branch is marked
//     Standby, so its unavailability degrades to the old placement alone
//     (empty answer, no residual), and it carries the old shard's partition
//     metadata, so pruning that skips the shard dials neither placement.
//   - split at cutover: placement has swapped but the old shard's collection
//     still holds the moved-away rows until cleanup; a mediator-side range
//     guard (attr < split point) keeps them out of answers.
//   - merge before cutover: the surviving shard's collection accumulates the
//     absorbed shard's rows while the absorbed shard is still authoritative;
//     a guard restricted to the survivor's own declared range prevents
//     double counting. Aborted merges keep the guard until cleanup clears
//     the copied rows (ClearMigration removes the record only then).
//
// Every phase transition bumps the catalog version, so the prepared-plan
// cache never serves a plan from a different phase.
func (r planResolver) shardBranch(me *catalog.MetaExtent, repo string) algebra.Node {
	cat := r.m.catalog
	var ref algebra.ExtentRef
	if me.Partitioned() {
		ref = cat.PartitionRef(me, repo)
	} else {
		ref = cat.ExtentRef(me)
	}
	sub := &algebra.Submit{Repo: repo, Input: &algebra.Get{Ref: ref}}
	mig, ok := cat.MigrationOf(me.Name)
	if !ok {
		return sub
	}
	switch {
	case mig.DualRead() && mig.From == repo:
		aux := ref
		aux.Repo = mig.To
		aux.Partition = mig.To
		aux.Replicas = nil
		aux.Standby = true
		standby := &algebra.Submit{Repo: mig.To, Input: &algebra.Get{Ref: aux}}
		return &algebra.Distinct{Input: &algebra.Union{Inputs: []algebra.Node{sub, standby}, Par: true}}
	case mig.Kind == catalog.MigrateSplit && mig.Phase == catalog.PhaseCutover && mig.From == repo:
		// Rows >= SplitAt now live (and are read) at To; the copies still
		// sitting in From's collection are filtered out until cleanup.
		pred := &oql.Binary{Op: oql.OpLt, L: &oql.Ident{Name: me.Scheme.Attr}, R: &oql.Literal{Val: mig.SplitAt}}
		return &algebra.Select{Pred: pred, Input: sub}
	case mig.Kind == catalog.MigrateMerge && mig.Phase != catalog.PhaseCutover && mig.To == repo && me.Scheme != nil:
		if pred := rangeGuard(me, repo); pred != nil {
			return &algebra.Select{Pred: pred, Input: sub}
		}
	}
	return sub
}

// rangeGuard builds the predicate confining a shard's answer to its own
// declared range (Lo <= attr < Hi, open bounds omitted); nil when the range
// is unbounded on both sides or unknown.
func rangeGuard(me *catalog.MetaExtent, repo string) oql.Expr {
	if me.Scheme == nil || me.Scheme.Kind != algebra.PartRange {
		return nil
	}
	parts := me.Partitions()
	idx := -1
	for i, p := range parts {
		if p == repo {
			idx = i
			break
		}
	}
	if idx < 0 || idx >= len(me.Scheme.Ranges) {
		return nil
	}
	rng := me.Scheme.Ranges[idx]
	attr := &oql.Ident{Name: me.Scheme.Attr}
	var pred oql.Expr
	if rng.Lo != nil {
		pred = &oql.Binary{Op: oql.OpGe, L: attr, R: &oql.Literal{Val: rng.Lo}}
	}
	if rng.Hi != nil {
		hi := &oql.Binary{Op: oql.OpLt, L: attr, R: &oql.Literal{Val: rng.Hi}}
		if pred == nil {
			pred = hi
		} else {
			pred = &oql.Binary{Op: oql.OpAnd, L: pred, R: hi}
		}
	}
	return pred
}

// valueResolver implements oql.Resolver for the reference evaluation of
// correlated subqueries: names materialize by planning and running them.
// ctx is the evaluation context of the query the subqueries belong to.
type valueResolver struct {
	m   *Mediator
	ctx context.Context
}

// Resolve implements oql.Resolver.
func (r valueResolver) Resolve(name string, star bool) (types.Value, error) {
	// Views materialize by evaluating their expanded body.
	if body, ok := r.m.catalog.View(name); ok && !star {
		expanded, err := r.m.expandViews(body)
		if err != nil {
			return nil, err
		}
		return oql.Eval(expanded, nil, r)
	}
	plan, err := planResolver{m: r.m}.ResolvePlan(name, star)
	if err != nil {
		return nil, err
	}
	// The oql.Resolver interface carries no context: this path drops the
	// query's cancellation for the mediator's own §4 evaluation deadline,
	// but keeps its values, so its reads record against the query.
	ctx, cancel := withEvalDeadline(context.WithoutCancel(r.ctx), r.m.timeout)
	defer cancel()
	// Ad-hoc resolver plans are built per evaluation (their expression
	// nodes are fresh each time), so there is no program cache to share.
	p, err := r.m.buildPhysical(ctx, plan, nil)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}

// expandViews substitutes view bodies for view references, recursively.
// The catalog guarantees acyclicity, so expansion terminates.
func (m *Mediator) expandViews(e oql.Expr) (oql.Expr, error) {
	return m.expandViewsBound(e, map[string]bool{})
}

func (m *Mediator) expandViewsBound(e oql.Expr, bound map[string]bool) (oql.Expr, error) {
	switch x := e.(type) {
	case *oql.Ident:
		if x.Star || bound[x.Name] {
			return x, nil
		}
		body, ok := m.catalog.View(x.Name)
		if !ok {
			return x, nil
		}
		return m.expandViewsBound(body, map[string]bool{})
	case *oql.Literal:
		return x, nil
	case *oql.Path:
		base, err := m.expandViewsBound(x.Base, bound)
		if err != nil {
			return nil, err
		}
		return &oql.Path{Base: base, Field: x.Field}, nil
	case *oql.Unary:
		inner, err := m.expandViewsBound(x.X, bound)
		if err != nil {
			return nil, err
		}
		return &oql.Unary{Op: x.Op, X: inner}, nil
	case *oql.Binary:
		l, err := m.expandViewsBound(x.L, bound)
		if err != nil {
			return nil, err
		}
		r, err := m.expandViewsBound(x.R, bound)
		if err != nil {
			return nil, err
		}
		return &oql.Binary{Op: x.Op, L: l, R: r}, nil
	case *oql.StructCtor:
		fields := make([]oql.StructField, len(x.Fields))
		for i, f := range x.Fields {
			fe, err := m.expandViewsBound(f.Expr, bound)
			if err != nil {
				return nil, err
			}
			fields[i] = oql.StructField{Name: f.Name, Expr: fe}
		}
		return &oql.StructCtor{Fields: fields}, nil
	case *oql.Call:
		args := make([]oql.Expr, len(x.Args))
		for i, a := range x.Args {
			ae, err := m.expandViewsBound(a, bound)
			if err != nil {
				return nil, err
			}
			args[i] = ae
		}
		return &oql.Call{Fn: x.Fn, Args: args}, nil
	case *oql.Select:
		inner := make(map[string]bool, len(bound)+len(x.From))
		for k := range bound {
			inner[k] = true
		}
		from := make([]oql.Binding, len(x.From))
		for i, b := range x.From {
			dom, err := m.expandViewsBound(b.Domain, inner)
			if err != nil {
				return nil, err
			}
			from[i] = oql.Binding{Var: b.Var, Domain: dom}
			inner[b.Var] = true
		}
		proj, err := m.expandViewsBound(x.Proj, inner)
		if err != nil {
			return nil, err
		}
		out := &oql.Select{Distinct: x.Distinct, Proj: proj, From: from}
		if x.Where != nil {
			w, err := m.expandViewsBound(x.Where, inner)
			if err != nil {
				return nil, err
			}
			out.Where = w
		}
		return out, nil
	default:
		return e, nil
	}
}

// mediatorCaps implements algebra.Capabilities: a submit expression is
// acceptable when every extent it reads is served by the same wrapper and
// that wrapper's grammar derives the expression.
type mediatorCaps struct {
	m *Mediator
}

// Accepts implements algebra.Capabilities.
func (c *mediatorCaps) Accepts(repo string, expr algebra.Node) bool {
	w, err := c.m.wrapperForExpr(repo, expr)
	if err != nil {
		return false
	}
	return w.Grammar().AcceptsExpr(expr)
}
