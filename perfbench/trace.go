package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/types"
	"disco/internal/wire"
)

// reconcileTolerance is how far the traced layers may fall short of, or
// overshoot, the traced mean latency: |core.other_us| as a share of it.
const reconcileTolerance = 0.10

// request is one source call the traced fleet served: its handler span, the
// engine span inside it, and what the off-path replays need and measure.
type request struct {
	server             int
	lang, text         string
	start, end         time.Time
	evalStart, evalEnd time.Time
	rows               int
	bag                *types.Bag
	payload            json.RawMessage

	encode, decode, transport time.Duration
}

// recorder collects the traced fleet's requests. With one client, every
// request that arrives between begin and end belongs to that query; one
// that arrives outside is a replay, whose handler time it keeps.
type recorder struct {
	mu     sync.Mutex
	live   bool
	reqs   []*request
	replay time.Duration
}

func (r *recorder) add(q *request) {
	if q.bag != nil {
		q.rows = q.bag.Len()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live {
		r.reqs = append(r.reqs, q)
	} else {
		r.replay = q.end.Sub(q.start)
	}
}

func (r *recorder) begin() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.live, r.reqs = true, nil
}

func (r *recorder) end() []*request {
	r.mu.Lock()
	defer r.mu.Unlock()
	reqs := r.reqs
	r.live, r.reqs = false, nil
	return reqs
}

func (r *recorder) lastReplay() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replay
}

// tracedQuery is one query of the traced run with its layer timings.
type tracedQuery struct {
	text                                      string
	start, end                                time.Time
	parse, expand, compile, optimize, execute time.Duration
	accepts                                   time.Duration
	hit, ok                                   bool
	submits, pushed                           int
	reqs                                      []*request
}

// submits lists the submit nodes of a plan.
func submits(n algebra.Node) []*algebra.Submit {
	var out []*algebra.Submit
	var walk func(algebra.Node)
	walk = func(n algebra.Node) {
		if s, ok := n.(*algebra.Submit); ok {
			out = append(out, s)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// bareGet reports whether a submit ships a whole shard unfiltered.
func bareGet(s *algebra.Submit) bool {
	_, ok := s.Input.(*algebra.Get)
	return ok
}

// reportPinned prints how many warmed texts hold a bare-get submit in
// their cached plan. Every text was just run, so Prepare answers from the
// prepared cache and changes no plan choice.
func reportPinned(out io.Writer, cfg config, f *fleet, wl *workload) error {
	n := 0
	for _, q := range wl.warm {
		plan, _, err := f.m.Prepare(q.text)
		if err != nil {
			return fmt.Errorf("prepare %q: %w", q.text, err)
		}
		for _, s := range submits(plan) {
			if bareGet(s) {
				n++
				break
			}
		}
	}
	fmt.Fprintf(out, "workload %s seed %d rows %d: %d of %d warmed texts pinned to a bare-get plan\n",
		cfg.workload, cfg.seed, len(wl.rows), n, len(wl.warm))
	return nil
}

// runTraced is the per-layer run. On one fresh fleet it runs one untraced
// client, as the overhead baseline, and then one more untraced client
// under the CPU profiler. On a second fleet, whose handlers and engines
// are wrapped for timing, it runs one traced client with the same ramp and
// length as the baseline, replaying each query's requests off the live
// path. A reconciliation residual beyond the stated tolerance makes the
// run incorrect: the layers would not explain the latency.
func runTraced(cfg config, out io.Writer) (*result, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base, err := baseline(cfg, filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}

	rec := &recorder{}
	f, wl, _, err := setUp(cfg, rec)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := reportPinned(out, cfg, f, wl); err != nil {
		return nil, err
	}
	tl, err := traceLoop(f, wl, cfg)
	if err != nil {
		return nil, err
	}
	qs := tl.qs
	if len(qs) == 0 {
		return nil, fmt.Errorf("traced run measured no query")
	}
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), qs); err != nil {
		return nil, err
	}
	m, rows := layerMetrics(qs, tl.traffic)
	lat := m["core.latency_us"].Value
	baseMean := meanLatency(base.lat)
	m["trace.overhead_ratio"] = metric{(lat - baseMean) / baseMean, "ratio"}

	fmt.Fprintf(out, "traced %s seed %d, 1 client, %.1fs ramp + %.1fs: %d attempted (%d failed), %d measured; spans and cpu.pprof in %s\n",
		cfg.workload, cfg.seed, cfg.ramp.Seconds(), cfg.duration.Seconds(), tl.attempted, tl.failed, len(qs), dir)
	fmt.Fprintf(out, "untraced 1-client baseline, same ramp and length: %d measured, mean %.1fus; traced mean %.1fus (overhead %+.1f%%)\n",
		len(base.lat), baseMean, lat, 100*m["trace.overhead_ratio"].Value)
	printMetrics(out, m)
	fmt.Fprintf(out, "reconciliation (us per query, wall-clock attributed):\n")
	sum := 0.0
	for _, r := range rows {
		fmt.Fprintf(out, "  %-32s %10.1f %6.1f%%\n", r.name, r.us, 100*r.us/lat)
		sum += r.us
	}
	other := m["core.other_us"].Value
	reconciled := math.Abs(other) <= reconcileTolerance*lat
	verdict := "within"
	if !reconciled {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(out, "  %-32s %10.1f\n  %-32s %10.1f %6.1f%% (%s the %.0f%% tolerance)\n  %-32s %10.1f\n",
		"sum of layers", sum, "core.other_us", other, 100*other/lat, verdict, 100*reconcileTolerance, "traced mean latency", lat)
	if tl.firstErr != "" {
		fmt.Fprintf(out, "first failure: %s\n", tl.firstErr)
	}
	if !reconciled {
		fmt.Fprintf(out, "incorrect: the layers do not add up to the traced mean latency\n")
	}
	return &result{Correct: tl.failed == 0 && reconciled, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}, nil
}

// baseline runs one untraced client on a fresh fleet for the ramp and
// length of the traced loop and returns its load. Then, outside that
// measurement, it drives the same fleet for a quarter of the run under the
// CPU profiler and writes the profile.
func baseline(cfg config, profile string) (*load, error) {
	f, wl, _, err := setUp(cfg, nil)
	if err != nil {
		return nil, err
	}
	defer f.close()
	ld := drive(f, wl, cfg.seed, 1, cfg.ramp, cfg.duration)
	if ld.failed > 0 {
		return nil, fmt.Errorf("baseline run: %d of %d queries failed; first: %s", ld.failed, ld.attempted, ld.firstErr)
	}
	if len(ld.lat) == 0 {
		return nil, fmt.Errorf("baseline run measured no query")
	}

	pf, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	prof := drive(f, wl, cfg.seed, 1, 0, cfg.duration/4)
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, err
	}
	if prof.failed > 0 {
		return nil, fmt.Errorf("profiled run: %d of %d queries failed; first: %s", prof.failed, prof.attempted, prof.firstErr)
	}
	return ld, nil
}

// tracedLoad is the outcome of the traced loop: the queries measured after
// the ramp, the servers' request, bytes-in and bytes-out counts of those
// queries alone, and the counts of every query run, ramp included.
type tracedLoad struct {
	qs                []*tracedQuery
	traffic           [3]int64
	attempted, failed int
	firstErr          string
}

// traceLoop runs the traced client for cfg.ramp unmeasured, then for
// cfg.duration measured. Parse, expand, compile, optimize and execute are
// the stage timings of the Trace that QueryTraced returns. After each
// query, off the live path, it replays: the capability check of each
// submit in the chosen plan when the optimizer searched (its plan cache
// missed), and for each request the payload decode, the bag encode, and
// the request text through the benchmark's own wire client (its time
// minus the handler's is the transport).
func traceLoop(f *fleet, wl *workload, cfg config) (*tracedLoad, error) {
	tl := &tracedLoad{}
	replayers := make([]*wire.Client, len(f.servers))
	for i, s := range f.servers {
		replayers[i] = wire.NewClient(s.Addr())
		defer replayers[i].Close()
		if err := replayers[i].Ping(context.Background()); err != nil {
			return nil, err
		}
	}
	grammar := capability.Standard(capability.FullOpSet())
	next := wl.newDraw(rand.New(rand.NewSource(cfg.seed*1000 + 1)))
	measure := time.Now().Add(cfg.ramp)
	deadline := measure.Add(cfg.duration)
	for {
		q := next()
		if !time.Now().Before(deadline) {
			break
		}
		r0, i0, o0 := f.wireTotals()
		f.rec.begin()
		t0 := time.Now()
		v, tr, err := f.m.QueryTraced(q.text)
		t1 := time.Now()
		tq := &tracedQuery{text: q.text, start: t0, end: t1, reqs: f.rec.end()}
		r1, i1, o1 := f.wireTotals()
		tl.attempted++
		tq.ok = err == nil && q.want.matches(v)
		if !tq.ok {
			tl.failed++
			if tl.firstErr == "" {
				tl.firstErr = fmt.Sprintf("%q: err=%v got=%s", q.text, err, brief(v))
			}
		}
		searched := false
		if tr != nil {
			tq.parse, tq.expand, tq.compile = tr.Parse, tr.Expand, tr.Compile
			tq.optimize, tq.execute = tr.Optimize, tr.Execute
			// A prepared-cache hit skips the front half and reports every
			// stage at zero; CacheHit alone is also set when only the
			// optimizer's plan cache hit.
			tq.hit = tr.CacheHit && tr.Parse+tr.Expand+tr.Compile+tr.Optimize == 0
			searched = !tr.CacheHit
		}
		if plan, _, err := f.m.Prepare(q.text); err == nil {
			for _, s := range submits(plan) {
				tq.submits++
				if !bareGet(s) {
					tq.pushed++
				}
				if searched {
					a0 := time.Now()
					grammar.AcceptsExpr(s.Input)
					tq.accepts += time.Since(a0)
				}
			}
		}
		for _, r := range tq.reqs {
			if err := replay(r, replayers[r.server], f.rec); err != nil {
				return nil, err
			}
		}
		if t0.Before(measure) {
			continue
		}
		tl.qs = append(tl.qs, tq)
		tl.traffic[0] += r1 - r0
		tl.traffic[1] += i1 - i0
		tl.traffic[2] += o1 - o0
	}
	return tl, nil
}

// replays is how often each off-path replay repeats; the minimum is kept,
// so a GC pause landing in one repetition does not count as layer time.
const replays = 3

func replay(r *request, c *wire.Client, rec *recorder) error {
	if r.payload == nil {
		return nil // the request failed; its query counts as failed
	}
	for i := 0; i < replays; i++ {
		t0 := time.Now()
		if _, err := types.DecodeValue(r.payload); err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		r.decode = minTime(i, r.decode, time.Since(t0))
		if r.bag != nil {
			t0 = time.Now()
			if _, err := types.EncodeValue(r.bag); err != nil {
				return fmt.Errorf("replay encode: %w", err)
			}
			r.encode = minTime(i, r.encode, time.Since(t0))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		t0 = time.Now()
		_, err := c.Query(ctx, r.lang, r.text)
		d := time.Since(t0)
		cancel()
		if err != nil {
			return fmt.Errorf("replay %q: %w", r.text, err)
		}
		r.transport = minTime(i, r.transport, max(0, d-rec.lastReplay()))
	}
	r.payload, r.bag = nil, nil
	return nil
}

// minTime is d on the first repetition and the smaller of cur and d after.
func minTime(i int, cur, d time.Duration) time.Duration {
	if i == 0 {
		return d
	}
	return min(cur, d)
}

// layerRow is one line of the reconciliation: a layer's wall-clock time
// per query.
type layerRow struct {
	name string
	us   float64
}

// layerMetrics turns the traced queries into the per-layer metrics and
// the reconciliation rows. wireTraffic is the servers' request, bytes-in
// and bytes-out counts of the traced queries.
//
// Within a query, each request's handler span is widened by its replayed
// transport (half before, half after) and decode (after); the union of
// those intervals is the wire-covered part of execution, and its length is
// split over transport, decode, handler, encode and source time in
// proportion to their sums, so parallel shard calls are not counted twice.
// physical.self_us is execution minus that union.
func layerMetrics(qs []*tracedQuery, wireTraffic [3]int64) (map[string]metric, []layerRow) {
	var lat, parse, expand, compile, optimize, execute, accepts, self float64
	var transport, decode, encode, eval, handlerSelf float64  // attributed
	var sumHandler, sumEval, sumEnc, sumDec, sumTrans float64 // raw
	var hits, subs, pushed, rows, nreq, nEval int
	for _, q := range qs {
		lat += us(q.end.Sub(q.start))
		parse += us(q.parse)
		expand += us(q.expand)
		compile += us(q.compile)
		optimize += us(q.optimize)
		execute += us(q.execute)
		accepts += us(q.accepts)
		if q.hit {
			hits++
		}
		subs += q.submits
		pushed += q.pushed
		var spans [][2]time.Time
		var qt, qd, qe, qc, qh float64
		for _, r := range q.reqs {
			nreq++
			rows += r.rows
			h := r.end.Sub(r.start)
			e := r.evalEnd.Sub(r.evalStart)
			if !r.evalEnd.IsZero() {
				nEval++
			}
			c := min(r.encode, h-e)
			sumHandler += us(h)
			sumEval += us(e)
			sumEnc += us(r.encode)
			sumDec += us(r.decode)
			sumTrans += us(r.transport)
			qt += us(r.transport)
			qd += us(r.decode)
			qe += us(e)
			qc += us(c)
			qh += us(h - e - c)
			spans = append(spans, [2]time.Time{
				r.start.Add(-r.transport / 2),
				r.end.Add(r.transport/2 + r.decode),
			})
		}
		u := us(unionLength(spans))
		if total := qt + qd + qe + qc + qh; total > 0 {
			k := u / total
			transport += k * qt
			decode += k * qd
			eval += k * qe
			encode += k * qc
			handlerSelf += k * qh
		}
		self += max(0, us(q.execute)-u)
	}
	n := float64(len(qs))
	perReq := func(x float64) float64 {
		if nreq == 0 {
			return 0
		}
		return x / float64(nreq)
	}
	pushedRatio := 1.0
	if subs > 0 {
		pushedRatio = float64(pushed) / float64(subs)
	}
	evalPerCall := 0.0
	if nEval > 0 {
		evalPerCall = sumEval / float64(nEval)
	}
	rowsOut := []layerRow{
		{"oql.parse_us", parse / n},
		{"core.expand_us", expand / n},
		{"algebra.compile_us", compile / n},
		{"optimizer.optimize_us", optimize / n},
		{"physical.self_us", self / n},
		{"wire.transport_us", transport / n},
		{"types.decode_us", decode / n},
		{"wire.handler_us (self)", handlerSelf / n},
		{"types.encode_us", encode / n},
		{"source.eval_us", eval / n},
	}
	layered := 0.0
	for _, r := range rowsOut {
		layered += r.us
	}
	m := map[string]metric{
		"oql.parse_us":                  {parse / n, "us"},
		"core.expand_us":                {expand / n, "us"},
		"algebra.compile_us":            {compile / n, "us"},
		"optimizer.optimize_us":         {optimize / n, "us"},
		"capability.accepts_us":         {accepts / n, "us"},
		"core.prepare_hit_ratio":        {float64(hits) / n, "ratio"},
		"optimizer.pushed_submit_ratio": {pushedRatio, "ratio"},
		"source.rows_out_per_q":         {float64(rows) / n, "rows"},
		"source.eval_us":                {evalPerCall, "us"},
		"wire.handler_us":               {perReq(sumHandler), "us"},
		"types.encode_us":               {perReq(sumEnc), "us"},
		"types.decode_us":               {perReq(sumDec), "us"},
		"wire.transport_us":             {perReq(sumTrans), "us"},
		"wire.requests_per_q":           {float64(wireTraffic[0]) / n, "requests"},
		"wire.bytes_in_per_q":           {float64(wireTraffic[1]) / n, "bytes"},
		"wire.bytes_out_per_q":          {float64(wireTraffic[2]) / n, "bytes"},
		"core.execute_us":               {execute / n, "us"},
		"physical.self_us":              {self / n, "us"},
		"core.latency_us":               {lat / n, "us"},
		"core.other_us":                 {lat/n - layered, "us"},
	}
	return m, rowsOut
}

// unionLength is the total length the intervals cover.
func unionLength(spans [][2]time.Time) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, s := range spans {
		switch {
		case i == 0:
			cur = s
		case s[0].After(cur[1]):
			total += cur[1].Sub(cur[0])
			cur = s
		case s[1].After(cur[1]):
			cur[1] = s[1]
		}
	}
	if len(spans) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

// span is one line of spans.jsonl; times are microseconds from the first
// query's start.
type span struct {
	Kind        string  `json:"kind"`
	Query       int     `json:"q"`
	Server      *int    `json:"server,omitempty"`
	Start       float64 `json:"start_us"`
	End         float64 `json:"end_us"`
	Text        string  `json:"text,omitempty"`
	CacheHit    *bool   `json:"cache_hit,omitempty"`
	OK          *bool   `json:"ok,omitempty"`
	Parse       float64 `json:"parse_us,omitempty"`
	Expand      float64 `json:"expand_us,omitempty"`
	Compile     float64 `json:"compile_us,omitempty"`
	Optimize    float64 `json:"optimize_us,omitempty"`
	Execute     float64 `json:"execute_us,omitempty"`
	Rows        *int    `json:"rows,omitempty"`
	Transport   float64 `json:"transport_us,omitempty"`
	Decode      float64 `json:"decode_us,omitempty"`
	Encode      float64 `json:"encode_us,omitempty"`
	SubmitCount int     `json:"submits,omitempty"`
	Pushed      int     `json:"pushed,omitempty"`
}

// writeSpans writes the query, handler and engine spans, one JSON object
// a line.
func writeSpans(path string, qs []*tracedQuery) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	w := bufio.NewWriter(fh)
	enc := json.NewEncoder(w)
	base := qs[0].start
	at := func(t time.Time) float64 { return us(t.Sub(base)) }
	for i, q := range qs {
		hit, ok := q.hit, q.ok
		if err := enc.Encode(span{Kind: "query", Query: i, Start: at(q.start), End: at(q.end), Text: q.text,
			CacheHit: &hit, OK: &ok, Parse: us(q.parse), Expand: us(q.expand), Compile: us(q.compile),
			Optimize: us(q.optimize), Execute: us(q.execute), SubmitCount: q.submits, Pushed: q.pushed}); err != nil {
			return err
		}
		for _, r := range q.reqs {
			server, rows := r.server, r.rows
			if err := enc.Encode(span{Kind: "handler", Query: i, Server: &server, Start: at(r.start), End: at(r.end),
				Transport: us(r.transport), Decode: us(r.decode), Encode: us(r.encode)}); err != nil {
				return err
			}
			if !r.evalEnd.IsZero() {
				if err := enc.Encode(span{Kind: "engine", Query: i, Server: &server, Start: at(r.evalStart),
					End: at(r.evalEnd), Rows: &rows}); err != nil {
					return err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return fh.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func meanLatency(lat []time.Duration) float64 {
	var s time.Duration
	for _, d := range lat {
		s += d
	}
	return us(s) / float64(len(lat))
}
