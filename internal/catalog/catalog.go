// Package catalog implements the mediator's internal database (paper §3):
// the schema of mediator interfaces, the Repository and Wrapper objects that
// model data sources as first-class values (§2.1), the MetaExtent registry
// that records which extents belong to which interface, and named views.
//
// The catalog is the DBA's surface: adding a data source is one AddExtent
// call (or one ODL extent declaration), after which existing queries over
// the interface's implicit extent automatically range over the new source —
// the scaling property §1.2 claims.
package catalog

import (
	"fmt"
	"sync"

	"disco/internal/algebra"
	"disco/internal/oql"
	"disco/internal/types"
)

// Repository models the paper's Repository type: the address of a database
// or other repository, created in ODL as
// r0 := Repository(host="rodin", name="db", address="123.45.6.7").
type Repository struct {
	// Name is the repository object name (r0).
	Name string
	// Host and Address locate the server; Address is host:port for TCP
	// repositories and a scheme like "mem:" for in-process ones.
	Host    string
	Address string
	// DB is the database name within the server.
	DB string
	// Props holds the open-ended attributes the paper mentions
	// (maintainer, cost of access, ...).
	Props map[string]string
}

// Wrapper models a registered wrapper object (w0 := WrapperPostgres()).
type Wrapper struct {
	// Name is the wrapper object name (w0).
	Name string
	// Kind selects the wrapper implementation: "sql", "scan", "doc",
	// "csv" or "mediator".
	Kind string
	// Props holds implementation-specific settings.
	Props map[string]string
}

// MetaExtent is the paper's meta-data type (§2.1): one extent of one
// mediator interface, mapped onto one data source through a wrapper.
type MetaExtent struct {
	// Name is the extent name (person0).
	Name string
	// Iface is the mediator interface whose extent this is.
	Iface string
	// Wrapper and Repository name the catalog objects used to reach the
	// data source. For a horizontally partitioned extent Repository is the
	// first partition; Repositories carries the full list.
	Wrapper    string
	Repository string
	// Repositories lists every repository holding a horizontal partition of
	// the extent, in declaration order (extent e of T wrapper w at r0, r1).
	// Empty or single-element for unpartitioned extents. Each entry is the
	// primary of its partition.
	Repositories []string
	// Replicas is the per-partition replica group, primary first, from the
	// ODL "at r0|r0b, r1|r1b" form: Replicas[i] lists every repository
	// holding a copy of partition i's rows. Nil when no partition declares
	// replicas; single-element groups mark unreplicated partitions. The
	// declaration is a contract: every repository of a group must hold the
	// same rows, and the mediator reads a replica only when repositories
	// earlier in the group do not answer.
	Replicas [][]string
	// Scheme is the declared placement of rows over Repositories (ODL
	// "partition by hash(attr)" / "partition by range(attr) (...)"); nil
	// when the extent declares none. With a scheme the optimizer prunes
	// shards that cannot answer a predicate and builds partition-wise
	// joins between co-partitioned extents. The declaration is a contract:
	// rows must actually be placed where the scheme says.
	Scheme *algebra.PartitionSpec
	// SourceName is the collection name at the data source; it defaults to
	// Name and is overridden by the local transformation map's
	// (source=extent) entry (§2.2.2).
	SourceName string
	// AttrMap maps mediator attribute names to source attribute names for
	// attributes renamed by the local transformation map.
	AttrMap map[string]string
}

// Partitions returns the repositories holding the extent's data: the
// declared partition list, or the single repository for unpartitioned
// extents.
func (m *MetaExtent) Partitions() []string {
	if len(m.Repositories) > 0 {
		return m.Repositories
	}
	return []string{m.Repository}
}

// Partitioned reports whether the extent is split across more than one
// partition (replicas of one partition do not count).
func (m *MetaExtent) Partitioned() bool { return len(m.Repositories) > 1 }

// Replicated reports whether any partition declares a replica.
func (m *MetaExtent) Replicated() bool {
	for _, g := range m.Replicas {
		if len(g) > 1 {
			return true
		}
	}
	return false
}

// ReplicaGroup returns every repository holding a copy of the partition
// whose primary (or replica) is repo, primary first. Unreplicated
// partitions return a single-element group; an unknown repository returns
// nil.
func (m *MetaExtent) ReplicaGroup(repo string) []string {
	parts := m.Partitions()
	for i, p := range parts {
		if i < len(m.Replicas) {
			for _, r := range m.Replicas[i] {
				if r == repo {
					return m.Replicas[i]
				}
			}
			continue
		}
		if p == repo {
			return []string{p}
		}
	}
	return nil
}

// PrimaryFor canonicalizes a repository holding extent data to the primary
// of its partition (a replica name maps to its shard's primary; a primary
// maps to itself).
func (m *MetaExtent) PrimaryFor(repo string) (string, bool) {
	if g := m.ReplicaGroup(repo); g != nil {
		return g[0], true
	}
	return "", false
}

// HasPartition reports whether the extent stores data at the repository —
// as a partition primary or as one of its replicas.
func (m *MetaExtent) HasPartition(repo string) bool {
	_, ok := m.PrimaryFor(repo)
	return ok
}

// ErrNotFound reports a missing catalog object.
type ErrNotFound struct {
	Kind string
	Name string
}

// Error implements the error interface.
func (e *ErrNotFound) Error() string {
	return fmt.Sprintf("catalog: %s %q not found", e.Kind, e.Name)
}

// Catalog is the mediator's internal database. It is safe for concurrent
// use.
type Catalog struct {
	mu       sync.RWMutex
	schema   *types.Schema
	repos    map[string]*Repository
	wrappers map[string]*Wrapper
	extents  map[string]*MetaExtent
	extOrder []string
	views    map[string]oql.Expr
	vOrder   []string
	// migrations holds the in-flight live-migration record per extent (at
	// most one each); migOrder preserves begin order for listing and dump.
	migrations map[string]*Migration
	migOrder   []string
	version    int64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		schema:     types.NewSchema(),
		repos:      make(map[string]*Repository),
		wrappers:   make(map[string]*Wrapper),
		extents:    make(map[string]*MetaExtent),
		views:      make(map[string]oql.Expr),
		migrations: make(map[string]*Migration),
	}
}

// Version returns a counter that increases on every catalog change. The
// mediator's prepared-statement cache keys on it, implementing the §3.3
// requirement that cached plans be invalidated when extents change.
func (c *Catalog) Version() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// Schema exposes the interface schema for type checking. Callers must not
// mutate it except through DefineInterface.
func (c *Catalog) Schema() *types.Schema {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.schema
}

// DefineInterface adds a mediator interface.
func (c *Catalog) DefineInterface(i *types.Interface) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.views[i.ExtentName] != nil {
		return fmt.Errorf("catalog: extent name %q collides with a view", i.ExtentName)
	}
	if err := c.schema.Define(i); err != nil {
		return err
	}
	c.version++
	return nil
}

// AddRepository registers a repository object.
func (c *Catalog) AddRepository(r *Repository) error {
	if r.Name == "" {
		return fmt.Errorf("catalog: repository with empty name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.repos[r.Name]; dup {
		return fmt.Errorf("catalog: repository %q already defined", r.Name)
	}
	c.repos[r.Name] = r
	c.version++
	return nil
}

// Repository looks up a repository object by name.
func (c *Catalog) Repository(name string) (*Repository, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.repos[name]
	if !ok {
		return nil, &ErrNotFound{Kind: "repository", Name: name}
	}
	return r, nil
}

// AddWrapper registers a wrapper object.
func (c *Catalog) AddWrapper(w *Wrapper) error {
	if w.Name == "" {
		return fmt.Errorf("catalog: wrapper with empty name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.wrappers[w.Name]; dup {
		return fmt.Errorf("catalog: wrapper %q already defined", w.Name)
	}
	c.wrappers[w.Name] = w
	c.version++
	return nil
}

// Wrapper looks up a wrapper object by name.
func (c *Catalog) Wrapper(name string) (*Wrapper, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	w, ok := c.wrappers[name]
	if !ok {
		return nil, &ErrNotFound{Kind: "wrapper", Name: name}
	}
	return w, nil
}

// AddExtent registers an extent declaration:
// extent NAME of IFACE wrapper W repository R [map ...].
// The interface, wrapper and repository must already exist.
func (c *Catalog) AddExtent(m *MetaExtent) error {
	if m.Name == "" {
		return fmt.Errorf("catalog: extent with empty name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.extents[m.Name]; dup {
		return fmt.Errorf("catalog: extent %q already defined", m.Name)
	}
	if _, ok := c.schema.Lookup(m.Iface); !ok {
		return &ErrNotFound{Kind: "interface", Name: m.Iface}
	}
	if _, ok := c.wrappers[m.Wrapper]; !ok {
		return &ErrNotFound{Kind: "wrapper", Name: m.Wrapper}
	}
	if len(m.Repositories) > 0 {
		seen := map[string]bool{}
		for _, r := range m.Repositories {
			if _, ok := c.repos[r]; !ok {
				return &ErrNotFound{Kind: "repository", Name: r}
			}
			if seen[r] {
				return fmt.Errorf("catalog: extent %q lists partition %q twice", m.Name, r)
			}
			seen[r] = true
		}
		m.Repository = m.Repositories[0]
	}
	if _, ok := c.repos[m.Repository]; !ok {
		return &ErrNotFound{Kind: "repository", Name: m.Repository}
	}
	if len(m.Replicas) > 0 {
		parts := m.Partitions()
		if len(m.Replicas) != len(parts) {
			return fmt.Errorf("catalog: extent %q declares %d replica groups for %d partitions", m.Name, len(m.Replicas), len(parts))
		}
		seen := map[string]bool{}
		for i, group := range m.Replicas {
			if len(group) == 0 || group[0] != parts[i] {
				return fmt.Errorf("catalog: extent %q replica group %d must start with its partition primary %q", m.Name, i, parts[i])
			}
			for _, r := range group {
				if _, ok := c.repos[r]; !ok {
					return &ErrNotFound{Kind: "repository", Name: r}
				}
				if seen[r] {
					return fmt.Errorf("catalog: extent %q lists replica %q twice", m.Name, r)
				}
				seen[r] = true
			}
		}
	}
	if m.SourceName == "" {
		m.SourceName = m.Name
	}
	for med := range m.AttrMap {
		if _, ok := c.schema.AttrOf(m.Iface, med); !ok {
			return fmt.Errorf("catalog: map names unknown attribute %q of %s", med, m.Iface)
		}
	}
	if m.Scheme != nil {
		if !m.Partitioned() {
			// A scheme on a single repository would prune nothing and would
			// not survive a DumpODL round trip (the clause belongs to the
			// "at r0, r1, ..." form); reject rather than silently drop it.
			return fmt.Errorf("catalog: extent %q declares a partitioning scheme over a single repository", m.Name)
		}
		if _, ok := c.schema.AttrOf(m.Iface, m.Scheme.Attr); !ok {
			return fmt.Errorf("catalog: extent %q partitions by unknown attribute %q of %s", m.Name, m.Scheme.Attr, m.Iface)
		}
		if err := m.Scheme.Validate(len(m.Partitions())); err != nil {
			return fmt.Errorf("catalog: extent %q: %v", m.Name, err)
		}
	}
	c.extents[m.Name] = m
	c.extOrder = append(c.extOrder, m.Name)
	c.version++
	return nil
}

// DropExtent removes an extent declaration (extents "can be added and
// deleted directly", §2.1).
func (c *Catalog) DropExtent(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.extents[name]; !ok {
		return &ErrNotFound{Kind: "extent", Name: name}
	}
	if _, ok := c.migrations[name]; ok {
		// An in-flight migration dies with its extent.
		c.removeMigrationLocked(name)
	}
	delete(c.extents, name)
	for i, n := range c.extOrder {
		if n == name {
			c.extOrder = append(c.extOrder[:i], c.extOrder[i+1:]...)
			break
		}
	}
	c.version++
	return nil
}

// Extent looks up one extent by name.
func (c *Catalog) Extent(name string) (*MetaExtent, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.extents[name]
	if !ok {
		return nil, &ErrNotFound{Kind: "extent", Name: name}
	}
	return m, nil
}

// Extents returns all extents in declaration order.
func (c *Catalog) Extents() []*MetaExtent {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*MetaExtent, 0, len(c.extOrder))
	for _, n := range c.extOrder {
		out = append(out, c.extents[n])
	}
	return out
}

// ExtentsOf returns the extents declared for exactly the given interface.
// Subtype extents are not included: "the extent of a type does not
// automatically reference the extents of the sub-types" (§2.2.1).
func (c *Catalog) ExtentsOf(iface string) []*MetaExtent {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*MetaExtent
	for _, n := range c.extOrder {
		if c.extents[n].Iface == iface {
			out = append(out, c.extents[n])
		}
	}
	return out
}

// ExtentsOfStar returns the extents of the interface and all its subtypes —
// the paper's person* syntax (§2.2.1).
func (c *Catalog) ExtentsOfStar(iface string) []*MetaExtent {
	c.mu.RLock()
	defer c.mu.RUnlock()
	subs := map[string]bool{}
	for _, s := range c.schema.Subtypes(iface) {
		subs[s] = true
	}
	var out []*MetaExtent
	for _, n := range c.extOrder {
		if subs[c.extents[n].Iface] {
			out = append(out, c.extents[n])
		}
	}
	return out
}

// InterfaceByExtentName finds the interface whose implicit extent has the
// given name (interface Person (extent person) {...}).
func (c *Catalog) InterfaceByExtentName(extent string) (*types.Interface, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, i := range c.schema.Interfaces() {
		if i.ExtentName == extent && extent != "" {
			return i, true
		}
	}
	return nil, false
}

// DefineView records a named view (define name as query, §2.2.3). Views may
// reference other views as long as the references are acyclic.
func (c *Catalog) DefineView(name string, query oql.Expr) error {
	if name == "" {
		return fmt.Errorf("catalog: view with empty name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.views[name]; dup {
		return fmt.Errorf("catalog: view %q already defined", name)
	}
	if _, dup := c.extents[name]; dup {
		return fmt.Errorf("catalog: view %q collides with an extent", name)
	}
	// Cycle check: walk view references from the new body.
	if err := c.checkAcyclic(name, query, map[string]bool{name: true}); err != nil {
		return err
	}
	c.views[name] = query
	c.vOrder = append(c.vOrder, name)
	c.version++
	return nil
}

func (c *Catalog) checkAcyclic(root string, body oql.Expr, onPath map[string]bool) error {
	for _, name := range oql.FreeNames(body) {
		// onPath includes the view being defined, which is not yet in
		// c.views; hitting any on-path name closes a cycle.
		if onPath[name] {
			return fmt.Errorf("catalog: view %q is cyclic through %q", root, name)
		}
		next, ok := c.views[name]
		if !ok {
			continue
		}
		onPath[name] = true
		if err := c.checkAcyclic(root, next, onPath); err != nil {
			return err
		}
		delete(onPath, name)
	}
	return nil
}

// View returns a view body by name.
func (c *Catalog) View(name string) (oql.Expr, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[name]
	return v, ok
}

// Views returns view names in definition order.
func (c *Catalog) Views() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.vOrder...)
}

// ExtentRef converts a MetaExtent into the algebra's extent reference,
// resolving the interface's attribute list.
func (c *Catalog) ExtentRef(m *MetaExtent) algebra.ExtentRef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	attrs := c.schema.AllAttrs(m.Iface)
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
	}
	ref := algebra.ExtentRef{
		Extent:  m.Name,
		Repo:    m.Repository,
		Source:  m.SourceName,
		Iface:   m.Iface,
		Attrs:   names,
		AttrMap: m.AttrMap,
	}
	if g := m.ReplicaGroup(m.Repository); len(g) > 1 {
		ref.Replicas = g
	}
	return ref
}

// PartitionRef is ExtentRef for one shard of a partitioned extent: the ref
// reads the shard at the given repository and renders as extent@repo. When
// the extent declares a partitioning scheme, the ref carries the scheme and
// the shard's index so the optimizer can prune it.
func (c *Catalog) PartitionRef(m *MetaExtent, repo string) algebra.ExtentRef {
	ref := c.ExtentRef(m)
	ref.Repo = repo
	if m.Partitioned() {
		ref.Partition = repo
	}
	if g := m.ReplicaGroup(repo); len(g) > 1 {
		ref.Replicas = g
	} else {
		ref.Replicas = nil
	}
	if m.Scheme != nil {
		parts := m.Partitions()
		for i, p := range parts {
			if p == repo {
				ref.PartSpec = m.Scheme
				ref.PartIndex = i
				ref.PartCount = len(parts)
				break
			}
		}
	}
	return ref
}

// MetaExtentBag materializes the metaextent collection (§2.1): one struct
// per extent with attributes name, e, interface, wrapper, repository and
// map. The e attribute carries the extent name; the mediator's resolver
// interprets references to it (the implicit-extent definition
// "flatten(select x.e from x in metaextent ...)" is realized natively).
func (c *Catalog) MetaExtentBag() *types.Bag {
	c.mu.RLock()
	defer c.mu.RUnlock()
	elems := make([]types.Value, 0, len(c.extOrder))
	for _, n := range c.extOrder {
		m := c.extents[n]
		var mapPairs []types.Value
		for med, src := range m.AttrMap {
			mapPairs = append(mapPairs, types.Str(src+"="+med))
		}
		elems = append(elems, types.NewStruct(
			types.Field{Name: "name", Value: types.Str(m.Name)},
			types.Field{Name: "e", Value: types.Str(m.Name)},
			types.Field{Name: "interface", Value: types.Str(m.Iface)},
			types.Field{Name: "wrapper", Value: types.Str(m.Wrapper)},
			types.Field{Name: "repository", Value: types.Str(placementList(m, ","))},
			types.Field{Name: "map", Value: types.NewSet(mapPairs...)},
		))
	}
	return types.NewBag(elems...)
}
