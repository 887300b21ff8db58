package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"carriersense/internal/montecarlo"
	"carriersense/internal/obs"
)

// report gathers a run's passes and turns them into metrics.
type report struct {
	cfg        config
	w          workload
	setup      calibrated // set-up probes' CPU time, s
	setupWalls []float64  // their wall time from main, s
	tally      tally
	ref        *pass

	walls       []float64  // untraced timed passes, s
	cpu         calibrated // their CPU time (coordinator and fleet workers), s
	peakRSS     []float64  // their peak resident set, MiB
	peakAnon    []float64  // their peak less file-backed pages, MiB
	tracedWalls []float64
	samples     float64 // Monte Carlo samples over the untraced timed passes
	sampleWall  float64 // their wall, s

	agg      aggregate
	firstReq map[string]montecarlo.Request
	direct   map[string]float64
}

// aggregate sums the traced passes.
type aggregate struct {
	n             int
	wall, uEngine float64 // s
	reg, workers  scrape
	outer, inner  seamTotals
	groups        map[string]*group
	durs          map[string][]float64
	hitDurs       []float64
	bytes         int64
}

// seamTotals is one seam's totals over the traced passes.
type seamTotals struct {
	busy, sum, missSelf float64 // s
	shards, misses      int
	discarded           int64
}

func (t *seamTotals) add(s *seam) {
	if s == nil {
		return
	}
	t.busy += s.busy.Seconds()
	t.sum += s.sum.Seconds()
	t.missSelf += s.missSelf.Seconds()
	t.shards += s.shards
	t.discarded += s.discarded
	t.misses += s.misses
}

func (r *report) add(p *pass, traced bool) {
	if !traced {
		r.walls = append(r.walls, p.wall.Seconds())
		r.cpu.add(p.cpu.Seconds())
		r.peakRSS = append(r.peakRSS, p.mem.peakRSS)
		r.peakAnon = append(r.peakAnon, p.mem.peakAnon)
		r.samples += p.reg.sum("cs_mc_samples_evaluated_total")
		r.sampleWall += p.wall.Seconds()
		return
	}
	r.tracedWalls = append(r.tracedWalls, p.wall.Seconds())
	a := &r.agg
	if a.n == 0 {
		a.reg, a.workers = scrape{}, scrape{}
		a.groups, a.durs = map[string]*group{}, map[string][]float64{}
		r.firstReq = map[string]montecarlo.Request{}
	}
	a.n++
	a.wall += p.wall.Seconds()
	a.uEngine += engineUnion(p.spans)
	a.reg.add(p.reg)
	a.workers.add(p.workers)
	a.outer.add(p.c.outer)
	a.inner.add(p.c.inner)
	a.bytes += p.bytes
	for k, g := range p.c.outer.groups {
		if a.groups[k] == nil {
			a.groups[k] = &group{}
		}
		a.groups[k].calls += g.calls
		a.groups[k].samples += g.samples
		a.groups[k].dur += g.dur
	}
	for k, d := range p.c.outer.durs {
		a.durs[k] = append(a.durs[k], d...)
	}
	a.hitDurs = append(a.hitDurs, p.c.outer.hitDurs...)
	for k, req := range p.c.outer.firstReq {
		if _, ok := r.firstReq[k]; !ok {
			r.firstReq[k] = req
		}
	}
}

// engineUnion is the wall time covered by at least one engine-level
// estimation, from the tracer's "estimate" spans: the union, so
// estimations the testbed runs side by side count once. Spans are
// recorded in whole µs, so each is first moved to the midpoint of its
// truncation interval. The spans are timed apart from the engine's
// estimate histogram, so the decomposition that sets one against the
// other can disagree.
func engineUnion(spans []obs.TraceEvent) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, ev := range spans {
		if ev.Ph == "X" && ev.Cat == "engine" && ev.Name == "estimate" {
			a := float64(ev.Ts) + 0.5
			ivs = append(ivs, iv{a, a + float64(ev.Dur) + 0.5})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total float64
	end := math.Inf(-1)
	for _, v := range ivs {
		if v.b > end {
			total += v.b - math.Max(v.a, end)
			end = v.b
		}
	}
	return total / 1e6
}

// ledger sums the sampling ledger the program reports for the
// reference pass (every timed pass is byte-identical to it).
func (r *report) ledger(name string) float64 {
	var total float64
	for _, rs := range r.ref.results {
		for _, res := range rs {
			total += res.Metrics[name]
		}
	}
	return total
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd returns the metrics a user of the system sees. The first
// three go on the JSON line; the rest are printed in the table on the
// workloads where they exist (see README.md for why).
func (r *report) endToEnd() (gated, extra []namedMetric) {
	gated = []namedMetric{
		{"setup_s", metric{median(r.setup.scaled()), "s"}},
		{"cpu_s", metric{median(r.cpu.scaled()), "s"}},
		{"peak_anon_mb", metric{median(r.peakAnon), "MB"}},
	}
	samplesPerS := ratio(r.samples, r.sampleWall)
	extra = append(extra,
		namedMetric{"peak_rss_mb", metric{median(r.peakRSS), "MB"}},
		namedMetric{"setup_raw_s", metric{median(r.setup.values), "s"}},
		namedMetric{"setup_wall_s", metric{median(r.setupWalls), "s"}},
		namedMetric{"cpu_raw_s", metric{median(r.cpu.values), "s"}},
		namedMetric{"calib_s", metric{median(r.cpu.cals), "s"}},
		namedMetric{"wall_s", metric{median(r.walls), "s"}})
	if q, ok := tailQuantile(len(r.walls)); ok {
		extra = append(extra, namedMetric{fmt.Sprintf("wall_s_p%.0f", 100*q), metric{quantile(r.walls, q), "s"}})
	}
	extra = append(extra, namedMetric{"samples_per_s", metric{samplesPerS, "1/s"}})
	switch r.w.name {
	case "fleet-warm":
		extra = append(extra, namedMetric{"warm_wall_s", metric{median(r.walls), "s"}})
	case "converge":
		extra = append(extra,
			namedMetric{"samples_to_target", metric{r.ledger("sampling_spent"), "count"}},
			namedMetric{"capped_frac", metric{ratio(r.ledger("sampling_capped"), r.ledger("sampling_points")), "fraction"}})
	case "packet":
		extra = append(extra, namedMetric{"replications_per_s", metric{samplesPerS, "1/s"}})
	}
	extra = append(extra, namedMetric{"fail_frac", metric{ratio(float64(r.tally.failed), float64(r.tally.attempted)), "fraction"}})
	return gated, extra
}

// tailQuantile is the highest percentile (in whole percent) of n pass
// walls that still has at least ten passes beyond it; none below 20
// passes, where the median is the tail.
func tailQuantile(n int) (float64, bool) {
	if n < 20 {
		return 0, false
	}
	return math.Floor(100*(1-10/float64(n))) / 100, true
}

type namedMetric struct {
	name string
	m    metric
}

// perLayer computes the layer ledger from the traced passes.
func (r *report) perLayer() []namedMetric {
	a := &r.agg
	n := float64(a.n)
	per := func(x float64) float64 { return ratio(x, n) }
	reg, wk := a.reg, a.workers
	hEngine := reg.sum("cs_engine_estimate_seconds_sum")
	logic := a.wall - a.uEngine
	self := hEngine - a.outer.sum
	below := a.outer.busy
	onPool := r.w.mode == local

	out := []namedMetric{
		{"bench.wall_s", metric{median(r.walls), "s"}},
		{"bench.calib_s", metric{median(r.cpu.cals), "s"}},
		{"bench.traced_wall_s", metric{median(r.tracedWalls), "s"}},
		{"bench.tracing_overhead_frac", metric{ratio(median(r.tracedWalls), median(r.walls)) - 1, "fraction"}},
		{"bench.below_seam_s", metric{per(below), "s"}},
		{"bench.decomposition_error_frac", metric{ratio(abs(logic+self+below-a.wall), a.wall), "fraction"}},
		{"experiments.logic_s", metric{per(logic), "s"}},
		{"experiments.estimations", metric{per(reg.sum("cs_engine_estimate_seconds_count")), "count"}},
		{"engine.estimate_ms_p50", metric{1e3 * reg.quantile("cs_engine_estimate_seconds", 0.50), "ms"}},
		{"engine.estimate_ms_p99", metric{1e3 * reg.quantile("cs_engine_estimate_seconds", 0.99), "ms"}},
		{"sampling.self_s", metric{per(self), "s"}},
		{"sampling.points", metric{per(reg.sum("cs_sampling_points_total")), "count"}},
		{"sampling.rounds_per_point", metric{ratio(reg.sum("cs_sampling_rounds_total"), reg.sum("cs_sampling_points_total")), "count"}},
		{"sampling.useful_frac", metric{r.usefulFrac(), "fraction"}},
		{"sampling.samples_to_target", metric{r.ledger("sampling_spent"), "count"}},
		{"sampling.capped_frac", metric{ratio(r.ledger("sampling_capped"), r.ledger("sampling_points")), "fraction"}},
		{"sampling.cv_control_ms", metric{r.direct["sampling.cv_control_ms"], "ms"}},
		{"montecarlo.shards", metric{per(reg.sum("cs_mc_shards_evaluated_total")), "count"}},
		{"montecarlo.pool_busy_frac", metric{ratio(reg.sum("cs_mc_shard_eval_seconds_sum"), below*width), "fraction"}},
		{"montecarlo.shard_eval_ms_p50", metric{1e3 * reg.quantile("cs_mc_shard_eval_seconds", 0.50), "ms"}},
		{"montecarlo.shard_eval_ms_p99", metric{1e3 * reg.quantile("cs_mc_shard_eval_seconds", 0.99), "ms"}},
	}
	for _, pair := range kernelSamplerPairs {
		var v float64
		if g := a.groups[pair]; g != nil && onPool {
			v = ratio(float64(g.dur.Nanoseconds()), float64(g.samples))
		}
		out = append(out, namedMetric{"montecarlo.ns_per_sample." + pair, metric{v, "ns"}})
	}
	var coreSamples int64
	for k, g := range a.groups {
		if strings.HasPrefix(k, "core-") {
			coreSamples += g.samples
		}
	}
	out = append(out, namedMetric{"core.samples", metric{per(float64(coreSamples)), "count"}})
	for _, k := range coreKernels {
		name := coreMetric(k)
		out = append(out, namedMetric{name, metric{r.direct[name], "ns"}})
	}
	hits := reg.sum("cs_cache_hits_total") + reg.sum("cs_cache_disk_hits_total")
	misses := reg.sum("cs_cache_misses_total")
	wShards := wk.sum("cs_worker_shards_total")
	out = append(out,
		namedMetric{"cache.lookups", metric{per(hits + misses), "count"}},
		namedMetric{"cache.hit_frac", metric{ratio(hits, hits+misses), "fraction"}},
		namedMetric{"cache.lookup_us_p50", metric{quantile(a.hitDurs, 0.50), "us"}},
		namedMetric{"cache.lookup_us_p99", metric{quantile(a.hitDurs, 0.99), "us"}},
		namedMetric{"cache.miss_overhead_us", metric{1e6 * ratio(a.outer.missSelf, float64(a.outer.misses)), "us"}},
		namedMetric{"cache.bytes_written", metric{per(float64(a.bytes)), "bytes"}},
		namedMetric{"cache.write_fails", metric{per(reg.sum("cs_cache_write_fails_total")), "count"}},
		namedMetric{"dist.shards", metric{per(wShards), "count"}},
		namedMetric{"dist.batch_ms_p50", metric{1e3 * reg.quantile("cs_dist_batch_seconds", 0.50), "ms"}},
		namedMetric{"dist.batch_ms_p99", metric{1e3 * reg.quantile("cs_dist_batch_seconds", 0.99), "ms"}},
		namedMetric{"dist.overhead_us_per_shard", metric{1e6 * ratio(a.inner.busy*fleetWorkers-wk.sum("cs_worker_batch_eval_seconds_sum"), wShards), "us"}},
		namedMetric{"dist.wire_bytes_per_shard", metric{ratio(reg.sum("cs_dist_wire_bytes_total"), wShards), "bytes"}},
		namedMetric{"dist.useful_frac", metric{ratio(float64(a.inner.shards), wShards), "fraction"}},
		namedMetric{"dist.requeues", metric{per(reg.sum("cs_dist_requeues_total")), "count"}},
		namedMetric{"testbed.replications", metric{per(float64(len(a.durs[comboKernel]))), "count"}},
		namedMetric{"testbed.replication_ms_p50", metric{quantile(a.durs[comboKernel], 0.50), "ms"}},
		namedMetric{"testbed.replication_ms_p99", metric{quantile(a.durs[comboKernel], 0.99), "ms"}},
		namedMetric{"sim.ns_per_event", metric{r.direct["sim.ns_per_event"], "ns"}},
	)
	return out
}

// usefulFrac is the share of the samples a converge pass spends that
// end up in a final estimate: the ledger's spend minus the pilots
// (cv coefficient pilots, auto candidate pilots) and minus the probe
// rounds the driver discarded, over the whole spend.
func (r *report) usefulFrac() float64 {
	spent := r.ledger("sampling_spent")
	if spent == 0 || r.agg.n == 0 {
		return 0
	}
	discarded := float64(r.agg.outer.discarded) / float64(r.agg.n)
	return (spent - r.ledger("sampling_pilot") - discarded) / spent
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s: seed %d, %gs, trace %d; %d timed passes (%d traced); reference %.3fs\n",
		r.w.name, r.cfg.seed, r.cfg.seconds, r.cfg.trace, len(r.walls)+len(r.tracedWalls), len(r.tracedWalls), r.ref.wall.Seconds())
	fmt.Fprintf(w, "  pass walls (s): untraced %s", fmtList(r.walls))
	if len(r.tracedWalls) > 0 {
		fmt.Fprintf(w, "; traced %s", fmtList(r.tracedWalls))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  pass CPU (s): untraced %s\n", fmtList(r.cpu.values))
	fmt.Fprintf(w, "  calibrations (s): %s\n", fmtList(r.cpu.cals))
	if len(r.setup.values) > 0 {
		fmt.Fprintf(w, "  set-up CPU (s): %s; calibrations %s\n", fmtList(r.setup.values), fmtList(r.setup.cals))
	}
	var gated []namedMetric
	if r.cfg.trace == 0 {
		var extra []namedMetric
		gated, extra = r.endToEnd()
		for _, m := range append(append([]namedMetric(nil), gated...), extra...) {
			fmt.Fprintf(w, "  %-40s %16.10g %s\n", m.name, m.m.Value, m.m.Unit)
		}
	} else {
		gated = r.perLayer()
		for _, m := range gated {
			fmt.Fprintf(w, "  %-52s %16.10g %s\n", m.name, m.m.Value, m.m.Unit)
		}
		for _, k := range sortedKeys(r.agg.groups) {
			if !contains(kernelSamplerPairs, k) {
				fmt.Fprintf(w, "  (undeclared pair %s: %d calls)\n", k, r.agg.groups[k].calls)
			}
		}
	}
	metrics := map[string]metric{}
	for _, m := range gated {
		metrics[m.name] = m.m
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.tally.failed == 0, r.tally.attempted, r.tally.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// fmtList renders up to 15 values compactly.
func fmtList(xs []float64) string {
	parts := make([]string, 0, len(xs))
	for i, x := range xs {
		if i == 15 {
			parts = append(parts, fmt.Sprintf("... (%d)", len(xs)))
			break
		}
		parts = append(parts, fmt.Sprintf("%.4g", x))
	}
	return "[" + strings.Join(parts, " ") + "]"
}
