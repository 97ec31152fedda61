// Command perfbench is the repository benchmark: a seeded closed-loop load
// generator driving an in-process fleet — four RelStore shards, each behind
// its own loopback wire.Server — through the public core.Mediator API.
//
//	perfbench --workload point-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with two clients; with
// --trace 1 it runs one client, times calls into each layer from outside
// and reports the per-layer breakdown. Either way it checks every answer
// and prints, as its last line, one JSON object with the metrics. See
// README.md for the workloads and what each shows.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"disco/internal/types"
)

// clients is the closed-loop client count of the end-to-end run: one per
// core of the 2-core machines the benchmark is sized for.
const clients = 2

// setups is how many full set-ups an end-to-end run makes; setup_s is
// their median.
const setups = 5

// maxRamp caps the unmeasured load before each measured window; shorter
// runs ramp for a quarter of their length.
const maxRamp = 2 * time.Second

// config is one run. rows is the workload's people row count and setups
// the end-to-end run's set-up count; the flags leave both at their
// defaults, and only the in-package smoke test shrinks them.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	ramp     time.Duration
	trace    bool
	rows     int
	setups   int
	out      string
}

func parseFlags(args []string) (config, error) {
	var c config
	var seconds float64
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload name: point-hot, adhoc-cold or scan-fanout")
	fs.Int64Var(&c.seed, "seed", 1, "seed the rows and query texts derive from")
	fs.Float64Var(&seconds, "seconds", 10, "measured duration of the run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	fs.StringVar(&c.out, "out", ".bench_build/perfbench", "directory the traced run writes spans and CPU profiles to")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	rows, ok := defaultRows[c.workload]
	if !ok {
		return c, fmt.Errorf("--workload must be one of %v", workloadNames)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return c, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	c.duration = time.Duration(seconds * float64(time.Second))
	c.ramp = min(maxRamp, c.duration/4)
	c.trace = trace == 1
	c.rows, c.setups = rows, setups
	return c, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	return runConfig(cfg, stdout)
}

// runConfig runs one configured benchmark and prints its result line.
func runConfig(cfg config, stdout io.Writer) error {
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(cfg, stdout)
	} else {
		res, err = runEndToEnd(cfg, stdout)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// setUp generates the rows and texts, starts the fleet and warms it: each
// warm-up text once, from one client, in seeded order. It returns the
// fleet, the workload and the set-up's wall time.
func setUp(cfg config, rec *recorder) (*fleet, *workload, time.Duration, error) {
	t0 := time.Now()
	wl, err := newWorkload(cfg.workload, cfg.seed, cfg.rows)
	if err != nil {
		return nil, nil, 0, err
	}
	f, err := startFleet(wl.rows, rec)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, q := range wl.warm {
		v, err := f.m.QueryContext(context.Background(), q.text)
		if err == nil && !q.want.matches(v) {
			err = fmt.Errorf("wrong answer %s", brief(v))
		}
		if err != nil {
			f.close()
			return nil, nil, 0, fmt.Errorf("warm-up %q: %w", q.text, err)
		}
	}
	return f, wl, time.Since(t0), nil
}

// runEndToEnd measures the end-to-end metrics: the median of cfg.setups
// set-ups, then the closed-loop clients for cfg.duration on the last
// fleet.
func runEndToEnd(cfg config, out io.Writer) (*result, error) {
	var f *fleet
	var wl *workload
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if f != nil {
			f.close()
		}
		var d time.Duration
		var err error
		if f, wl, d, err = setUp(cfg, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer f.close()
	if err := reportPinned(out, cfg, f, wl); err != nil {
		return nil, err
	}

	ld := drive(f, wl, cfg.seed, clients, cfg.ramp, cfg.duration)
	if ld.completed == 0 {
		return nil, fmt.Errorf("no query completed correctly (%d attempted)", ld.attempted)
	}
	per := float64(ld.completed)
	m := map[string]metric{
		"qps":          {per / ld.elapsed.Seconds(), "queries/s"},
		"p50_ms":       {ms(quantile(ld.lat, 0.50)), "ms"},
		"p99_ms":       {ms(quantile(ld.lat, 0.99)), "ms"},
		"allocs_per_q": {float64(ld.mallocs) / per, "allocs"},
		"cpu_us_per_q": {float64(ld.cpu.Microseconds()) / per, "us"},
		"heap_mb":      {float64(ld.heap) / (1 << 20), "MB"},
		"setup_s":      {median(setups), "s"},
	}
	failRatio := float64(ld.failed) / float64(ld.attempted)
	fmt.Fprintf(out, "%d clients, %.1fs ramp + %.1fs measured: %d attempted, %d failed (%d errors, %d wrong answers), %d measured\n",
		clients, cfg.ramp.Seconds(), ld.elapsed.Seconds(), ld.attempted, ld.failed, ld.errors, ld.failed-ld.errors, len(ld.lat))
	if len(ld.lat) < 1000 {
		fmt.Fprintf(out, "warning: fewer than 1000 queries, so p99_ms has fewer than 10 samples beyond it\n")
	}
	shown := maps.Clone(m)
	shown["fail_ratio"] = metric{failRatio, "fraction"}
	printMetrics(out, shown)
	if ld.firstErr != "" {
		fmt.Fprintf(out, "first failure: %s\n", ld.firstErr)
	}
	return &result{Correct: ld.failed == 0, Attempted: ld.attempted, Failed: ld.failed, Metrics: m}, nil
}

// load is the outcome of one closed-loop run. The counts cover every
// query; the latencies, completions, CPU and allocations cover only the
// measured window after the ramp.
type load struct {
	attempted, failed, errors int
	firstErr                  string
	lat                       []time.Duration
	completed                 int
	elapsed, cpu              time.Duration
	mallocs                   uint64
	heap                      uint64
}

// drive runs clients closed-loop clients against the fleet for ramp
// unmeasured, then for d measured. Each client draws from its own seeded
// generator; the only sockets are the mediator's own pool.
func drive(f *fleet, wl *workload, seed int64, clients int, ramp, d time.Duration) *load {
	ld := &load{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	measure := time.Now().Add(ramp)
	deadline := measure.Add(d)
	for c := 0; c < clients; c++ {
		next := wl.newDraw(rand.New(rand.NewSource(seed*1000 + int64(c) + 1)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make([]time.Duration, 0, 4096)
			var attempted, failed, errs, completed int
			var firstErr string
			for {
				q := next()
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				v, err := f.m.QueryContext(context.Background(), q.text)
				took := time.Since(t0)
				attempted++
				ok := err == nil && q.want.matches(v)
				if !ok {
					failed++
					if err != nil {
						errs++
					}
					if firstErr == "" {
						firstErr = fmt.Sprintf("%q: err=%v got=%s", q.text, err, brief(v))
					}
				}
				if !t0.Before(measure) {
					lat = append(lat, took)
					if ok {
						completed++
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ld.lat = append(ld.lat, lat...)
			ld.attempted += attempted
			ld.failed += failed
			ld.errors += errs
			ld.completed += completed
			if ld.firstErr == "" {
				ld.firstErr = firstErr
			}
		}()
	}
	time.Sleep(time.Until(measure))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	wg.Wait()
	ld.elapsed = time.Since(t0)
	ld.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	ld.mallocs = ms1.Mallocs - ms0.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	ld.heap = ms1.HeapAlloc
	return ld
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the nearest-rank q-quantile; it sorts lat in place.
func quantile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	i := int(math.Ceil(q*float64(len(lat)))) - 1
	return lat[max(0, min(i, len(lat)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// brief renders a value for an error message, cut to 200 bytes.
func brief(v types.Value) string {
	if v == nil {
		return "nil"
	}
	s := v.String()
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printMetrics writes one "name value unit" line per metric, sorted by
// name.
func printMetrics(out io.Writer, m map[string]metric) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
