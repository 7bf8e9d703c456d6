package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// Same seed, same inputs; another seed, other inputs: generator drift here
// or in internal/workload shows as a changed digest.
func TestInputDigest(t *testing.T) {
	z := smokeSizing()
	for _, spec := range workloads {
		w := z.resolve(spec)
		a, err := generate(w, z, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, z, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, z, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: seed 1 gave digests %016x and %016x", w.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1 and 2 share digest %016x", w.name, a.digest)
		}
		if w.live && (len(a.batches) != z.ops(w, false) || len(a.subs) != 4) {
			t.Errorf("live: %d batches, %d subscriptions", len(a.batches), len(a.subs))
		}
	}
}

// The spread must be the one the acceptance procedure computes with
// Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v; want 3.5, 160", q1, q3)
	}
	if got := median([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256}); got != 24 {
		t.Errorf("median = %v, want 24", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "op_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Spread: 0.02} }
	for _, tc := range []struct {
		def  metricDef
		a, b summary
		want string
	}{
		{lower, tight(10), tight(10.9), "ok"},
		{lower, tight(10), tight(11.1), "regressed"},
		{lower, tight(10), tight(5), "ok"},
		{higher, tight(100), tight(91), "ok"},
		{higher, tight(100), tight(89), "regressed"},
		{lower, summary{Median: 10, Spread: 0.2}, tight(20), "unresolved"},
	} {
		if _, got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.def.Name, tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
}

// BENCHMARK.json is what -manifest prints, and stays inside the contract's
// limits.
func TestManifestMatchesFile(t *testing.T) {
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildManifest()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("../BENCHMARK.json differs from `go run -C bench . -manifest`")
	}
	m := buildManifest()
	seen := map[string]bool{}
	hasSetup := false
	for _, w := range m.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (%s): duplicate or over the length limits", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, *d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// The smoke run is the whole benchmark at 1/50 size: all four workloads,
// untraced and traced, every metric present and finite, the audit green,
// and a span file in which every handler span hangs off a client span.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots eight servers")
	}
	files, err := runSmoke(1, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(workloads) {
		t.Fatalf("%d span files for %d workloads", len(files), len(workloads))
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			spans = append(spans, s)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := checkSpans(spans); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		handlers, stages := 0, 0
		for _, s := range spans {
			switch {
			case s.Name == spanHandler:
				handlers++
			case strings.HasPrefix(s.Name, spanStage):
				stages++
			}
			if s.End < s.Start || math.IsNaN(s.dur()) {
				t.Errorf("%s: span %d ends before it starts", path, s.ID)
			}
		}
		if handlers == 0 || stages == 0 {
			t.Errorf("%s: %d handler and %d stage spans", path, handlers, stages)
		}
	}
}
