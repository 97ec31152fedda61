package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"disco/internal/types"
)

// query is one OQL text with the answer the benchmark expects for it.
type query struct {
	text string
	want answer
}

// workload is one traffic mix over the fleet. warm lists the texts set-up
// touches once each, in seeded order, from one client; newDraw returns a
// per-client generator of the measured queries.
type workload struct {
	rows    []person
	warm    []query
	newDraw func(r *rand.Rand) func() query
}

// workloadNames lists the workloads in the order the notes describe them.
var workloadNames = []string{"point-hot", "adhoc-cold", "scan-fanout"}

// defaultRows is each workload's total people row count; hash placement
// spreads it evenly over the four shards.
var defaultRows = map[string]int{
	"point-hot":   8000,
	"adhoc-cold":  8000,
	"scan-fanout": 2000,
}

// hotSet is point-hot's number of distinct texts: well inside the
// mediator's 256-entry prepared-statement cache.
const hotSet = 64

// adhocWarm is how many fresh texts adhoc-cold's set-up runs.
const adhocWarm = 64

// scanTexts is scan-fanout's number of distinct texts, a third each of
// range scans, aggregates and joins.
const scanTexts = 48

// adhocSeq numbers adhoc-cold texts: its value is the second literal, so
// no text repeats within the process, across set-ups included.
var adhocSeq atomic.Int64

// newWorkload builds the named workload over rows people from the seed.
func newWorkload(name string, seed int64, rows int) (*workload, error) {
	if _, ok := defaultRows[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	w := &workload{rows: genPeople(seed, rows)}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch name {
	case "point-hot":
		var hot []query
		for _, i := range r.Perm(len(w.rows))[:min(hotSet, len(w.rows))] {
			hot = append(hot, pointQuery(w.rows[i], ""))
		}
		w.warm = shuffled(r, hot)
		w.newDraw = deck(hot)
	case "adhoc-cold":
		for i := 0; i < adhocWarm; i++ {
			w.warm = append(w.warm, w.adhoc(r))
		}
		w.newDraw = func(r *rand.Rand) func() query {
			return func() query { return w.adhoc(r) }
		}
	case "scan-fanout":
		// Warm-up keeps generation order: the kinds cycle in the same
		// pattern for every seed (only thresholds differ), so which
		// kinds end up with a bare-get plan repeats across seeds.
		w.warm = w.scanMix(r)
		w.newDraw = deck(w.warm)
	}
	return w, nil
}

// pointQuery looks one person up by id; extra is appended to the
// predicate.
func pointQuery(p person, extra string) query {
	return query{
		text: fmt.Sprintf("select x.name from x in people where x.id = %d%s", p.id, extra),
		want: bagAnswer(types.Str(p.name)),
	}
}

// adhoc is a point lookup whose second literal is a salary bound above
// the salary domain that no other text in the process carries.
func (w *workload) adhoc(r *rand.Rand) query {
	p := w.rows[r.Intn(len(w.rows))]
	return pointQuery(p, fmt.Sprintf(" and x.salary < %d", salaryCeil+adhocSeq.Add(1)))
}

// scanMix builds scan-fanout's texts: range scans, count/sum/max over the
// same scans, and the co-partitioned join, each at its own threshold
// returning about a tenth of the rows.
func (w *workload) scanMix(r *rand.Rand) []query {
	salaries := make([]int64, len(w.rows))
	for i, p := range w.rows {
		salaries[i] = p.salary
	}
	sort.Slice(salaries, func(i, j int) bool { return salaries[i] < salaries[j] })
	// Thresholds at distinct ranks around the 90th percentile, so each
	// text returns about a tenth of the rows.
	window := max(len(salaries)*4/100, 4*scanTexts)
	lo := max(0, len(salaries)*90/100-window/2)
	used := map[int64]bool{}
	var out []query
	for _, i := range r.Perm(min(window, len(salaries)-lo)) {
		t := salaries[lo+i]
		if used[t] || len(out) == scanTexts {
			continue
		}
		used[t] = true
		switch k := len(out); k % 3 {
		case 0:
			out = append(out, w.rangeScan(t))
		case 1:
			out = append(out, w.aggregate([]string{"count", "sum", "max"}[k/3%3], t))
		case 2:
			out = append(out, w.join(t))
		}
	}
	return out
}

func (w *workload) rangeScan(t int64) query {
	var names []types.Value
	for _, p := range w.rows {
		if p.salary >= t {
			names = append(names, types.Str(p.name))
		}
	}
	return query{
		text: fmt.Sprintf("select x.name from x in people where x.salary >= %d", t),
		want: bagAnswer(names...),
	}
}

func (w *workload) aggregate(fn string, t int64) query {
	var count, sum, max int64
	for _, p := range w.rows {
		if p.salary >= t {
			count++
			sum += p.salary
			if p.salary > max {
				max = p.salary
			}
		}
	}
	want := map[string]int64{"count": count, "sum": sum, "max": max}[fn]
	return query{
		text: fmt.Sprintf("%s(select x.salary from x in people where x.salary >= %d)", fn, t),
		want: answer{scalar: types.Int(want)},
	}
}

func (w *workload) join(t int64) query {
	var pairs []types.Value
	for _, p := range w.rows {
		if p.salary >= t && p.hasBonus {
			pairs = append(pairs, types.NewStruct(
				types.Field{Name: "n", Value: types.Str(p.name)},
				types.Field{Name: "a", Value: types.Int(p.bonus)},
			))
		}
	}
	return query{
		text: fmt.Sprintf("select struct(n: x.name, a: y.amount) from x in people, y in bonus where x.id = y.id and x.salary >= %d", t),
		want: bagAnswer(pairs...),
	}
}

// shuffled returns a seeded permutation of qs.
func shuffled(r *rand.Rand, qs []query) []query {
	out := make([]query, len(qs))
	for i, j := range r.Perm(len(qs)) {
		out[i] = qs[j]
	}
	return out
}

// deck draws uniformly from qs without replacement, reshuffling after
// every pass, so each run sends every text the same number of times (to
// within one pass) and the mix itself adds no run-to-run noise.
func deck(qs []query) func(r *rand.Rand) func() query {
	return func(r *rand.Rand) func() query {
		var order []int
		return func() query {
			if len(order) == 0 {
				order = r.Perm(len(qs))
			}
			q := qs[order[0]]
			order = order[1:]
			return q
		}
	}
}
