package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(10)
	g.Add(-3)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "h", Label{"worker", "w1"})
	b := r.Counter("dup_total", "h", Label{"worker", "w1"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("dup_total", "h", Label{"worker", "w2"})
	if a == other {
		t.Fatal("different label value returned the same counter")
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("lbl_total", "h", Label{"b", "2"}, Label{"a", "1"})
	b := r.Counter("lbl_total", "h", Label{"a", "1"}, Label{"b", "2"})
	if a != b {
		t.Fatal("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("kind_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("kind_total", "h")
}

func TestKindMismatchAcrossLabelSetsPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("kind2_total", "h", Label{"x", "1"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: same name, different kind, different labels")
		}
	}()
	r.Gauge("kind2_total", "h", Label{"x", "2"})
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid metric name")
		}
	}()
	r.Counter("9bad-name", "h")
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "h", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.5+0.5+5+50; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "h", []float64{0.1, 1, 10})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
	// 10 observations in (0.1, 1]: the median interpolates to the
	// middle of that bucket, and every quantile stays inside it.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	if got := h.Quantile(0.5); got != 0.1+(1-0.1)*0.5 {
		t.Fatalf("p50 = %g, want mid-bucket 0.55", got)
	}
	if lo, hi := h.Quantile(0.01), h.Quantile(0.99); lo <= 0.1 || hi > 1 {
		t.Fatalf("quantiles escaped the occupied bucket: p1=%g p99=%g", lo, hi)
	}
	// Mass beyond the last finite bound reports that bound.
	h2 := r.Histogram("q2_seconds", "h", []float64{0.1, 1})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %g, want last finite bound 1", got)
	}
	// Clamping.
	if h.Quantile(-1) > h.Quantile(2) {
		t.Fatal("clamped quantiles out of order")
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("def_seconds", "h", nil)
	h.Observe(0.003)
	if h.Count() != 1 {
		t.Fatal("default-bucket histogram dropped an observation")
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-increasing bounds")
		}
	}()
	r.Histogram("bad_seconds", "h", []float64{1, 1})
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("uptime_seconds", "h", func() float64 { return 42.5 })
	snap := r.Snapshot()
	if snap["uptime_seconds"] != 42.5 {
		t.Fatalf("gauge func snapshot = %g, want 42.5", snap["uptime_seconds"])
	}
}

func TestWritePrometheusParsesWithCheckText(t *testing.T) {
	r := NewRegistry()
	r.Counter("scrape_total", "requests served", Label{"worker", "http://a:1"}).Add(3)
	r.Counter("scrape_total", "requests served", Label{"worker", "http://b:2"}).Add(7)
	r.Gauge("scrape_inflight", "in flight").Set(2)
	r.GaugeFunc("scrape_uptime_seconds", "uptime", func() float64 { return 1.25 })
	h := r.Histogram("scrape_seconds", "latency", nil, Label{"worker", "http://a:1"})
	h.Observe(0.2)
	h.Observe(3)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := CheckText(b.String())
	if err != nil {
		t.Fatalf("CheckText rejected our own exposition: %v\n%s", err, b.String())
	}
	if v, ok := parsed.Value(`scrape_total{worker="http://a:1"}`); !ok || v != 3 {
		t.Fatalf("parsed scrape_total{a} = %g ok=%v, want 3", v, ok)
	}
	if v, ok := parsed.Value(`scrape_seconds_count{worker="http://a:1"}`); !ok || v != 2 {
		t.Fatalf("parsed histogram count = %g ok=%v, want 2", v, ok)
	}
	if parsed.Types["scrape_total"] != "counter" || parsed.Types["scrape_seconds"] != "histogram" {
		t.Fatalf("TYPE lines wrong: %v", parsed.Types)
	}
}

func TestCheckTextRejectsMalformed(t *testing.T) {
	cases := []string{
		"metric_without_value\n",
		"9bad_name 1\n",
		"# TYPE x bogus\nx 1\n",
		"dup 1\ndup 2\n",
		"# TYPE h histogram\nh_sum 1\nh_count 2\n", // no +Inf bucket
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n", // Inf != count
	}
	for _, text := range cases {
		if _, err := CheckText(text); err == nil {
			t.Errorf("CheckText accepted malformed input %q", text)
		}
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("delta_total", "h")
	c.Add(2)
	pre := r.Snapshot()
	c.Add(5)
	r.Counter("born_total", "h").Add(1)
	d := SnapshotDelta(pre, r.Snapshot())
	if d["delta_total"] != 5 {
		t.Fatalf("delta = %g, want 5", d["delta_total"])
	}
	if d["born_total"] != 1 {
		t.Fatalf("born metric delta = %g, want 1", d["born_total"])
	}
}

func TestSumByPrefix(t *testing.T) {
	snap := map[string]float64{
		`batch_seconds_sum{worker="a"}`: 1.5,
		`batch_seconds_sum{worker="b"}`: 2.5,
		`batch_seconds_summary`:         100, // different family, must not match
		`batch_seconds_sum`:             4,
	}
	if got := SumByPrefix(snap, "batch_seconds_sum"); got != 8 {
		t.Fatalf("SumByPrefix = %g, want 8", got)
	}
}

func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("handler_total", "h").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if _, err := CheckText(rec.Body.String()); err != nil {
		t.Fatalf("handler output unparseable: %v", err)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "h")
	h := r.Histogram("race_seconds", "h", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001 * float64(j%10))
				// Registration races with observation — must be safe.
				r.Counter("race_total", "h")
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "h")
	g := r.Gauge("alloc_gauge", "h")
	h := r.Histogram("alloc_seconds", "h", nil)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(0.004)
	}); n != 0 {
		t.Fatalf("hot path allocates %.1f per op, want 0", n)
	}
}

func TestTracerSpansAndInstants(t *testing.T) {
	tr := NewTracer()
	start := tr.Now()
	time.Sleep(time.Millisecond)
	tr.Span("eval", "mc", TidLocalBase, start, map[string]any{"shard": 3})
	tr.Instant("retry", "dist", TidRemoteBase, nil)
	tr.NameThread(TidEngine, "engine")
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want 2", tr.Len())
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`"traceEvents"`, `"name":"eval"`, `"ph":"X"`, `"ph":"i"`,
		`"thread_name"`, `"shard":3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace JSON missing %q:\n%s", want, out)
		}
	}
}

func TestTracerCapDropsCounted(t *testing.T) {
	tr := NewTracerCap(2)
	for i := 0; i < 5; i++ {
		tr.Instant("x", "t", 1, nil)
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d, want 2/3", tr.Len(), tr.Dropped())
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"dropped_events":3`) {
		t.Fatalf("metadata missing dropped_events:\n%s", b.String())
	}
}

func TestGlobalTracerInstall(t *testing.T) {
	if CurrentTracer() != nil {
		t.Fatal("tracer installed at test start")
	}
	tr := NewTracer()
	SetTracer(tr)
	defer SetTracer(nil)
	if CurrentTracer() != tr {
		t.Fatal("SetTracer did not install")
	}
	SetTracer(nil)
	if CurrentTracer() != nil {
		t.Fatal("SetTracer(nil) did not uninstall")
	}
}

func TestDefaultRegistrySingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() not a singleton")
	}
}

// SnapshotDelta feeds per-variant manifest/metrics.json data while
// other goroutines keep the registry hot. Deltas taken mid-churn must
// be internally consistent: non-negative for monotone series, and the
// sum of deltas across disjoint snapshot windows must equal the total
// movement once the writers stop.
func TestSnapshotDeltaConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("churn_total", "h")
	h := r.Histogram("churn_seconds", "h", nil)
	const writers, increments = 8, 5000
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < increments; i++ {
				c.Inc()
				h.Observe(0.001)
				if i%1000 == 0 {
					// New series born mid-window: SnapshotDelta must treat
					// an absent pre-key as zero, never as negative.
					r.Counter("born_total", "h", Label{"writer", string(rune('a' + w))}).Inc()
				}
			}
		}(w)
	}
	pre := r.SnapshotFlows()
	close(start)
	var windows []map[string]float64
	for i := 0; i < 50; i++ {
		post := r.SnapshotFlows()
		windows = append(windows, SnapshotDelta(pre, post))
		pre = post
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	windows = append(windows, SnapshotDelta(pre, r.SnapshotFlows()))

	var counterSum, histCountSum float64
	for _, d := range windows {
		for k, v := range d {
			if v < 0 {
				t.Fatalf("negative delta %s = %g in a mid-churn window", k, v)
			}
			if v == 0 {
				t.Errorf("zero delta %s survived (SnapshotDelta must drop zeros)", k)
			}
		}
		counterSum += d["churn_total"]
		histCountSum += d["churn_seconds_count"]
	}
	if want := float64(writers * increments); counterSum != want {
		t.Fatalf("windowed counter deltas sum to %g, want %g", counterSum, want)
	}
	if want := float64(writers * increments); histCountSum != want {
		t.Fatalf("windowed histogram count deltas sum to %g, want %g", histCountSum, want)
	}
}
