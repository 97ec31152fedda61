package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/source"
	"disco/internal/types"
	"disco/internal/wire"
)

// shards is the fleet width: one unreplicated RelStore per shard, each
// behind its own loopback wire.Server.
const shards = 4

// salaryCeil bounds the generated salary domain [salaryFloor, salaryCeil);
// adhoc-cold's unique second literal sits above it so it always holds.
const (
	salaryFloor = 1000
	salaryCeil  = 100000
)

// person is one generated row of people(id, name, salary); bonus is the
// co-partitioned bonus(id, amount) row, present for some ids only.
type person struct {
	id, salary int64
	name       string
	hasBonus   bool
	bonus      int64
}

// genPeople derives n people from the seed. Ids are 0..n-1; every value
// is non-negative so no workload text carries a negative literal.
func genPeople(seed int64, n int) []person {
	r := rand.New(rand.NewSource(seed))
	rows := make([]person, n)
	for i := range rows {
		p := person{
			id:     int64(i),
			salary: salaryFloor + r.Int63n(salaryCeil-salaryFloor),
			name:   fmt.Sprintf("n%08x", r.Uint32()),
		}
		if r.Intn(2) == 0 {
			p.hasBonus = true
			p.bonus = 1 + r.Int63n(5000)
		}
		rows[i] = p
	}
	return rows
}

// shardOf places a row where the optimizer's hash pruning will look.
func shardOf(id int64) int {
	return int(algebra.HashValue(types.Int(id)) % shards)
}

// fleet is one running federation: four servers and the mediator over
// them. rec is non-nil only on the traced fleet.
type fleet struct {
	m       *core.Mediator
	servers []*wire.Server
	rec     *recorder
}

const fleetODL = `
w0 := WrapperPostgres();
interface Person (extent person) {
    attribute Short id;
    attribute String name;
    attribute Short salary;
}
interface Bonus (extent allbonus) {
    attribute Short id;
    attribute Short amount;
}
extent people of Person wrapper w0 at r0, r1, r2, r3
    partition by hash(id);
extent bonus of Bonus wrapper w0 at r0, r1, r2, r3
    partition by hash(id);
`

// startFleet loads rows into four stores, serves each on loopback through
// core.EngineHandler (wrapped for timing when rec is non-nil) and declares
// the partitioned extents to a fresh mediator with default options.
func startFleet(rows []person, rec *recorder) (_ *fleet, err error) {
	f := &fleet{m: core.New(), rec: rec}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	var odl strings.Builder
	for i := 0; i < shards; i++ {
		store, err := shardStore(rows, i)
		if err != nil {
			return nil, err
		}
		var h wire.Handler = core.EngineHandler{Engine: store}
		if rec != nil {
			h = tracedHandler{
				EngineHandler: core.EngineHandler{Engine: tracedEngine{store: store}},
				rec:           rec,
				server:        i,
			}
		}
		srv, err := wire.NewServer("127.0.0.1:0", h)
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, srv)
		fmt.Fprintf(&odl, "r%d := Repository(address=%q);\n", i, srv.Addr())
	}
	odl.WriteString(fleetODL)
	if err := f.m.ExecODL(odl.String()); err != nil {
		return nil, err
	}
	return f, nil
}

// shardStore holds the people and bonus rows that hash to shard i.
func shardStore(rows []person, i int) (*source.RelStore, error) {
	store := source.NewRelStore()
	if err := store.CreateTable("people", "id", "name", "salary"); err != nil {
		return nil, err
	}
	if err := store.CreateTable("bonus", "id", "amount"); err != nil {
		return nil, err
	}
	for _, p := range rows {
		if shardOf(p.id) != i {
			continue
		}
		if err := store.Insert("people", types.Int(p.id), types.Str(p.name), types.Int(p.salary)); err != nil {
			return nil, err
		}
		if p.hasBonus {
			if err := store.Insert("bonus", types.Int(p.id), types.Int(p.bonus)); err != nil {
				return nil, err
			}
		}
	}
	return store, nil
}

// close stops the mediator's client pools, then the servers, and waits
// for both.
func (f *fleet) close() {
	f.m.Close()
	for _, s := range f.servers {
		s.Close()
	}
}

// wireTotals sums the servers' traffic counters.
func (f *fleet) wireTotals() (requests, bytesIn, bytesOut int64) {
	for _, s := range f.servers {
		st := s.Stats()
		requests += st.Queries.Load()
		bytesIn += st.BytesIn.Load()
		bytesOut += st.BytesOut.Load()
	}
	return
}

// tracedEngine times each source evaluation and keeps the bag it returns,
// on the request record its handler put in the context. It sits between
// core.EngineHandler and the RelStore.
type tracedEngine struct {
	store *source.RelStore
}

func (e tracedEngine) Query(q string) (*types.Bag, error) {
	return e.QueryContext(context.Background(), q)
}

func (e tracedEngine) QueryContext(ctx context.Context, q string) (*types.Bag, error) {
	t0 := time.Now()
	b, err := e.store.QueryContext(ctx, q)
	if r, ok := ctx.Value(requestKey{}).(*request); ok {
		r.evalStart, r.evalEnd = t0, time.Now()
		r.bag = b
	}
	return b, err
}

func (e tracedEngine) Collections() []string { return e.store.Collections() }

// requestKey carries the traced handler's request record down to the
// engine wrapper, so an engine span is tied to exactly its handler span.
type requestKey struct{}

// tracedHandler times each HandleQuery and keeps the request text and
// payload for the off-path replays.
type tracedHandler struct {
	core.EngineHandler
	rec    *recorder
	server int
}

func (h tracedHandler) HandleQuery(ctx context.Context, lang, text string) (json.RawMessage, error) {
	r := &request{server: h.server, lang: lang, text: text}
	t0 := time.Now()
	payload, err := h.EngineHandler.HandleQuery(context.WithValue(ctx, requestKey{}, r), lang, text)
	r.start, r.end = t0, time.Now()
	r.payload = payload
	h.rec.add(r)
	return payload, err
}
