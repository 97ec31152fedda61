package core

import (
	"strings"

	"disco/internal/algebra"
	"disco/internal/optimizer"
	"disco/internal/oql"
	"disco/internal/wire"
	"disco/internal/wrapper"
)

// maxPreparedPlans bounds the prepared-statement cache; beyond it the
// oldest entries are evicted first.
const maxPreparedPlans = 256

// preparedPlan is one cached Prepare result: the optimized plan for a query
// text, valid for the catalog version the cache was built against, the
// optimizer's report on it (what Explain renders), plus the compiled
// expression programs of the plan's operators. The programs cache rides the
// plan entry, so re-executing a prepared query skips expression compilation
// along with parse/expand/compile/optimize, and is evicted and invalidated
// with it.
type preparedPlan struct {
	plan   algebra.Node
	str    string
	report *optimizer.Report
	progs  *oql.ProgramCache
}

// preparedLookup returns the cached plan and its program cache for a query
// text if the cache is still valid for the given catalog version. A version
// change flushes the whole cache — the §3.3 invalidation rule applied to
// the full pipeline, not just the optimize stage.
func (m *Mediator) preparedLookup(src string, version int64) (preparedPlan, bool) {
	m.prepMu.Lock()
	defer m.prepMu.Unlock()
	if version < m.preparedAt {
		// The caller read the catalog version just before a concurrent
		// change that the cache has already seen: a plain miss, without
		// winding the cache back and flushing entries valid at the newer
		// version (versions only grow).
		return preparedPlan{}, false
	}
	if m.preparedAt != version {
		m.prepared = nil
		m.prepOrder = m.prepOrder[:0]
		m.preparedAt = version
		return preparedPlan{}, false
	}
	p, ok := m.prepared[src]
	return p, ok
}

// preparedStore caches a successful Prepare result under the catalog
// version it was compiled against and returns the entry that ended up in
// the cache (the already-stored one when racing Prepares tie). A result
// whose version the cache has already moved past — a Prepare that started
// before a catalog change and finished after it — is dropped rather than
// stored: storing it would flush every entry valid at the newer version
// for a plan nobody can ever look up again.
func (m *Mediator) preparedStore(src string, version int64, entry preparedPlan) preparedPlan {
	m.prepMu.Lock()
	defer m.prepMu.Unlock()
	if version < m.preparedAt {
		return entry
	}
	if m.preparedAt != version {
		m.prepared = nil
		m.prepOrder = m.prepOrder[:0]
		m.preparedAt = version
	}
	if m.prepared == nil {
		m.prepared = make(map[string]preparedPlan)
	}
	if prev, ok := m.prepared[src]; ok {
		return prev
	}
	for len(m.prepOrder) >= maxPreparedPlans {
		delete(m.prepared, m.prepOrder[0])
		m.prepOrder = m.prepOrder[1:]
	}
	m.prepared[src] = entry
	m.prepOrder = append(m.prepOrder, src)
	return entry
}

// flushPrepared drops every prepared plan while keeping the cache's
// version watermark. Breaker transitions use it: a plan optimized while a
// source was believed dead (availability-penalized costs) must not keep
// serving from the prepared cache after the source's state changes.
func (m *Mediator) flushPrepared() {
	m.prepMu.Lock()
	m.prepared = nil
	m.prepOrder = m.prepOrder[:0]
	m.prepMu.Unlock()
}

// clientFor returns the mediator's pooled wire client for a repository
// address, creating it on first use. Every wrapper instance bound to the
// same address — and the freshness checker — shares one client, so source
// connections persist across queries instead of being dialed per submit.
func (m *Mediator) clientFor(addr string) *wire.Client {
	addr = strings.TrimPrefix(addr, "tcp://")
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.clients[addr]
	if !ok {
		c = wire.NewClient(addr)
		m.clients[addr] = c
	}
	return c
}

// wireCancelsSent sums the cancel frames written across the mediator's
// pooled wire clients — the "abandoned work reported to sources" gauge the
// query trace windows over. Close drops the clients (and their counters),
// so a window straddling Close undercounts rather than erring.
func (m *Mediator) wireCancelsSent() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, c := range m.clients {
		n += c.Stats().CancelsSent.Load()
	}
	return n
}

// Close releases the mediator's pooled source connections and drops the
// wrapper instances holding them. Background half-open probes are refused
// from here on, and the in-flight ones are waited out before the clients
// are released, so no probe ever dials through a released pool. The
// mediator stays usable for queries: a later query redials lazily.
func (m *Mediator) Close() {
	if m.admit != nil {
		// Queued queries are shed promptly with an OverloadError instead of
		// waiting out their queue bound against a mediator releasing its
		// clients; admitted queries run to completion — drain waits for them
		// (bounded by the evaluation deadline) before the clients go away —
		// and the gate stays usable for later queries.
		m.admit.shedAll()
		m.admit.drain()
	}
	m.probeMu.Lock()
	m.probeClosed = true
	m.probeMu.Unlock()
	m.probeWG.Wait()
	m.mu.Lock()
	clients := m.clients
	m.clients = make(map[string]*wire.Client)
	m.wrappers = make(map[string]wrapper.Wrapper)
	m.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}
