package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObsCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

// TestObsHistogramBuckets pins the le semantics: an observation equal to
// a bound lands in that bound's bucket, and the per-bucket counts sum to
// the recorded observation count with the exact sum.
func TestObsHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4})
	obs := []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100}
	for _, v := range obs {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 2} // (<=1)=2, (<=2)=2, (<=4)=2, +Inf=2
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != uint64(len(obs)) {
		t.Errorf("count = %d, want %d", s.Count, len(obs))
	}
	var sum float64
	for _, v := range obs {
		sum += v
	}
	if math.Abs(s.Sum-sum) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, sum)
	}
}

func TestObsQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "", ExpBuckets(0.001, 2, 12))
	// 1000 observations at ~10ms: p50 and p99 should land inside the
	// bucket containing 0.010 (bounds 0.008..0.016).
	for i := 0; i < 1000; i++ {
		h.Observe(0.010)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := s.Quantile(q)
		if v < 0.008 || v > 0.016 {
			t.Errorf("q%.0f = %v, want within (0.008, 0.016]", q*100, v)
		}
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestObsExposition validates the text format through the independent
// parser: family types, cumulative bucket monotonicity, _count == +Inf
// bucket, and label escaping.
func TestObsExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a help").Add(3)
	r.GaugeFuncVec("g", "labeled gauge", []string{"kind"}, func() []Sample {
		return []Sample{{Labels: []string{`we"ird\`}, Value: -2}}
	})
	h := r.HistogramVec("h_seconds", "hist", []float64{0.1, 1}, "ep")
	h.With("/q").Observe(0.05)
	h.With("/q").Observe(0.5)
	h.With("/q").Observe(5)
	r.GaugeFunc("fn", "computed", func() float64 { return 42.5 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	values, types, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if types["a_total"] != "counter" || types["g"] != "gauge" || types["h_seconds"] != "histogram" {
		t.Errorf("types = %v", types)
	}
	if values["a_total"] != 3 {
		t.Errorf("a_total = %v", values["a_total"])
	}
	if values[`g{kind="we\"ird\\"}`] != -2 {
		t.Errorf("escaped gauge missing: %v", values)
	}
	if values["fn"] != 42.5 {
		t.Errorf("fn = %v", values["fn"])
	}
	b1 := values[`h_seconds_bucket{ep="/q",le="0.1"}`]
	b2 := values[`h_seconds_bucket{ep="/q",le="1"}`]
	binf := values[`h_seconds_bucket{ep="/q",le="+Inf"}`]
	cnt := values[`h_seconds_count{ep="/q"}`]
	if b1 != 1 || b2 != 2 || binf != 3 {
		t.Errorf("buckets = %v %v %v, want 1 2 3", b1, b2, binf)
	}
	if cnt != binf {
		t.Errorf("_count %v != +Inf bucket %v", cnt, binf)
	}
	if sum := values[`h_seconds_sum{ep="/q"}`]; math.Abs(sum-5.55) > 1e-9 {
		t.Errorf("sum = %v, want 5.55", sum)
	}
	// Two scrapes of a quiet registry are byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != text {
		t.Error("scrapes of a quiet registry differ")
	}
}

// TestObsGetOrCreate pins the idempotent-registration contract: same
// shape returns the same family, different shape panics.
func TestObsGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "x")
	c2 := r.Counter("x_total", "x")
	if c1 != c2 {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched re-registration did not panic")
		}
	}()
	r.Gauge("x_total", "now a gauge")
}

// TestObsConcurrentStorm hammers one registry from many goroutines while
// a scraper renders it, asserting every counter read is monotone and
// every histogram internally consistent. Run with -race.
func TestObsConcurrentStorm(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("storm_total", "", "worker")
	h := r.HistogramVec("storm_seconds", "", ExpBuckets(1e-6, 4, 8), "worker")
	stages := NewQueryStages(r)

	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.With(id).Inc()
				h.With(id).Observe(float64(i%1000) * 1e-6)
				stages.ObserveStage(Stage{Name: StageScan, Mode: ModeOneShot, Grouped: i%2 == 0}, time.Microsecond)
			}
		}(w)
	}
	prev := map[string]float64{}
	for scrape := 0; scrape < 20; scrape++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		values, types, err := ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for key, v := range values {
			name := key
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_count"), "_sum")
			if types[base] == "counter" || types[name] == "counter" || strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_count") {
				if v < prev[key] {
					t.Fatalf("scrape %d: %s went backwards (%v -> %v)", scrape, key, prev[key], v)
				}
			}
			prev[key] = v
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: _count must equal the +Inf bucket exactly, per child.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	values, _, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for key, v := range values {
		if !strings.Contains(key, `le="+Inf"`) {
			continue
		}
		countKey := strings.Replace(key, "_bucket", "_count", 1)
		countKey = strings.Replace(countKey, `le="+Inf"`, "", 1)
		countKey = strings.Replace(countKey, `,}`, "}", 1)
		countKey = strings.Replace(countKey, `{}`, "", 1)
		cv, ok := values[countKey]
		if !ok {
			t.Fatalf("no _count for %s (looked for %q)", key, countKey)
		}
		if cv != v {
			t.Errorf("%s: +Inf %v != count %v", key, v, cv)
		}
	}
}

func TestObsLoggerAndRequestID(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "k", "v")
	if !strings.Contains(buf.String(), `"k":"v"`) {
		t.Errorf("json log missing attr: %s", buf.String())
	}
	if _, err := NewLogger(&buf, "xml", "info"); err == nil {
		t.Error("bad format accepted")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Error("bad level accepted")
	}
	a, b := NewRequestID(), NewRequestID()
	if a == b || !strings.HasPrefix(a, "r-") {
		t.Errorf("request ids not unique/prefixed: %q %q", a, b)
	}
}
