package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"disco/internal/types"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec reads the metric lists the benchmark promises in BENCHMARK.json.
func spec(t *testing.T) (endToEnd, perLayer []specMetric) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s.EndToEnd, s.PerLayer
}

// TestSmoke runs every workload at tiny size in both modes and checks that
// each promised metric is printed, by name and with its unit, that the
// last line is the result object, that every answer was right, and that
// the traced layers add up to the traced mean latency.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := spec(t)
	for _, wl := range workloadNames {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", wl, trace), func(t *testing.T) {
				cfg, err := parseFlags([]string{"--workload", wl, "--seed", "7", "--seconds", "0.4",
					"--trace", fmt.Sprint(trace), "--out", t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				cfg.rows, cfg.setups = 400, 2
				var out bytes.Buffer
				if err := runConfig(cfg, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				text := strings.TrimSpace(out.String())
				lines := strings.Split(text, "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, text)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, text)
				}
				want := perLayer
				if trace == 1 && !strings.Contains(text, "(within the 10% tolerance)") {
					t.Errorf("layers do not reconcile with the traced mean latency:\n%s", text)
				}
				if trace == 0 {
					want = endToEnd
					// fail_ratio is printed, not in the JSON (it is 0 on a
					// correct program, and the result carries attempted and
					// failed instead).
					assertPrinted(t, text, "fail_ratio", "fraction")
					if !regexp.MustCompile(`(?m)^\s+fail_ratio\s+0\.0000 fraction$`).MatchString(text) {
						t.Errorf("fail_ratio is not 0:\n%s", text)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					assertPrinted(t, text, m.Name, m.Unit)
				}
			})
		}
	}
}

func assertPrinted(t *testing.T, text, name, unit string) {
	t.Helper()
	re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(name) + `\s+-?[0-9.]+ ` + regexp.QuoteMeta(unit) + `$`)
	if !re.MatchString(text) {
		t.Errorf("no %q line with unit %q in output", name, unit)
	}
}

// TestAnswerCheck: the multiset fingerprint ignores order but catches a
// changed, missing or duplicated element, and scalars compare by value.
func TestAnswerCheck(t *testing.T) {
	a, b, c := types.Str("a"), types.Str("b"), types.Str("c")
	want := bagAnswer(a, b, b)
	cases := []struct {
		got  types.Value
		want bool
	}{
		{types.NewBag(b, a, b), true},
		{types.NewBag(a, b), false},
		{types.NewBag(a, b, b, b), false},
		{types.NewBag(a, b, c), false},
		{types.NewBag(a, a, b), false},
		{types.Int(3), false},
		{nil, false},
	}
	for _, tc := range cases {
		if got := want.matches(tc.got); got != tc.want {
			t.Errorf("matches(%v) = %v, want %v", tc.got, got, tc.want)
		}
	}
	scalar := answer{scalar: types.Int(7)}
	if !scalar.matches(types.Float(7)) || scalar.matches(types.Int(8)) || scalar.matches(nil) {
		t.Error("scalar answers compare by model value")
	}
}

// TestWorkloadsAreSeeded: the same seed gives the same rows and texts.
func TestWorkloadsAreSeeded(t *testing.T) {
	for _, name := range workloadNames {
		if name == "adhoc-cold" {
			continue // its texts carry a process-wide counter by design
		}
		a, err := newWorkload(name, 3, 400)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 3, 400)
		c, _ := newWorkload(name, 4, 400)
		if !sameTexts(a.warm, b.warm) {
			t.Errorf("%s: same seed gave different texts", name)
		}
		if sameTexts(a.warm, c.warm) {
			t.Errorf("%s: different seeds gave the same texts", name)
		}
	}
}

func sameTexts(a, b []query) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].text != b[i].text || a[i].want != b[i].want {
			return false
		}
	}
	return true
}
