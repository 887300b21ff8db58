package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"carriersense/internal/montecarlo"
)

// seam is the benchmark's own timing decorator on the
// montecarlo.Executor seam. It sits where engine.Options.Executor
// plugs in, so it sees every estimation after the sampling decorators
// (driver, cv, auto) have shaped it and before the pool, the cache or
// the fleet evaluates it. It records:
//
//   - busy: the union of the intervals with at least one call in
//     flight — wall time spent below the seam, counted once even when
//     callers overlap (the testbed fans combos out 2 wide);
//   - sum: the per-call durations added up, which exceeds busy exactly
//     by the overlap;
//   - per (kernel, sampler) group: calls, samples and time;
//   - in detail mode, each call's duration per kernel, and the first
//     request seen per kernel (the direct layer calls reuse its
//     parameters).
//
// When below is set (a second seam further down the chain), every
// call also learns whether it reached below: for a cache above the
// fleet that splits calls into hits and misses.
type seam struct {
	inner  montecarlo.Executor
	below  *seam
	detail bool

	mu       sync.Mutex
	inflight int
	since    time.Time
	busy     time.Duration
	sum      time.Duration
	calls    int
	failed   int
	shards   int
	groups   map[string]*group
	durs     map[string][]float64 // ms per call, by kernel (detail only)
	firstReq map[string]montecarlo.Request

	// Calls that reached below (misses) and their time net of below.
	misses   int
	missSelf time.Duration
	hitDurs  []float64 // µs per call that did not reach below

	// The last call if it was a probe round (detail only), and the
	// probe samples the driver threw away.
	probe     *probeCall
	discarded int64
}

// probeCall is a sub-shard probe round seen at the seam.
type probeCall struct {
	id      string
	samples int
}

// group is one (kernel, sampler) row of the seam's ledger.
type group struct {
	calls   int
	samples int64
	dur     time.Duration
}

func newSeam(inner montecarlo.Executor, detail bool) *seam {
	if inner == nil {
		inner = localPool{}
	}
	return &seam{
		inner:    inner,
		detail:   detail,
		groups:   map[string]*group{},
		durs:     map[string][]float64{},
		firstReq: map[string]montecarlo.Request{},
	}
}

// localPool evaluates on the in-process pool, the same path the engine
// takes when no executor is configured.
type localPool struct{}

func (localPool) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	return montecarlo.RunRequest(ctx, req)
}

// samplerName is the request's sampling strategy, "" read as plain.
func samplerName(req montecarlo.Request) string {
	if req.Sampler == "" {
		return montecarlo.SamplerPlain
	}
	return req.Sampler
}

// groupKey names a (kernel, sampler) pair in metric form:
// "core/averages" under sobol becomes "core-averages.sobol".
func groupKey(kernel, sampler string) string {
	return strings.ReplaceAll(kernel, "/", "-") + "." + sampler
}

// EstimateVec implements montecarlo.Executor. The busy union and the
// per-call sum time the same window, so they agree exactly when calls
// do not overlap.
func (s *seam) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	t0 := time.Now()
	s.mu.Lock()
	if s.inflight == 0 {
		s.since = t0
	}
	s.inflight++
	s.mu.Unlock()

	var belowCalls int
	var belowSum time.Duration
	if s.below != nil {
		belowCalls, belowSum = s.below.totals()
	}
	accs, err := s.inner.EstimateVec(ctx, req)
	end := time.Now()
	d := end.Sub(t0)

	var missed bool
	var netOfBelow time.Duration
	if s.below != nil {
		c, sum := s.below.totals()
		missed = c > belowCalls
		netOfBelow = d - (sum - belowSum)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if s.inflight == 0 {
		s.busy += end.Sub(s.since)
	}
	s.sum += d
	s.calls++
	if err != nil {
		s.failed++
		return accs, err
	}
	span := int64(req.SampleSpan())
	s.shards += montecarlo.ShardCount(req.Samples) - req.FirstShard
	key := groupKey(req.Kernel, samplerName(req))
	g := s.groups[key]
	if g == nil {
		g = &group{}
		s.groups[key] = g
	}
	g.calls++
	g.samples += span
	g.dur += d
	if s.below != nil {
		if missed {
			s.misses++
			s.missSelf += netOfBelow
		} else {
			s.hitDurs = append(s.hitDurs, float64(d)/float64(time.Microsecond))
		}
	}
	if s.detail {
		s.durs[req.Kernel] = append(s.durs[req.Kernel], float64(d)/float64(time.Millisecond))
		if _, ok := s.firstReq[req.Kernel]; !ok {
			s.firstReq[req.Kernel] = req
		}
		s.trackProbe(req)
	}
	return accs, nil
}

// trackProbe counts samples the convergence driver throws away. A
// driven point may open with a sub-shard probe round; when the probe
// misses its target the driver restarts the same estimation at once,
// from shard 0 with whole shards, discarding the probe. The driven path
// is serial, so seen from the seam a discarded probe is a sub-shard
// request at shard 0 whose very next request is a whole-shard request
// at shard 0 with the same identity. Any other next request means the
// probe converged and was kept. Called with s.mu held.
func (s *seam) trackProbe(req montecarlo.Request) {
	prev := s.probe
	s.probe = nil
	if req.FirstShard != 0 {
		return
	}
	id := identity(req)
	if req.Samples < montecarlo.ShardSize {
		s.probe = &probeCall{id: id, samples: req.Samples}
		return
	}
	if prev != nil && prev.id == id {
		s.discarded += int64(prev.samples)
	}
}

// identity is an estimation's identity apart from its sample plan.
func identity(req montecarlo.Request) string {
	ctl := ""
	if req.Control != nil {
		ctl = fmt.Sprint(req.Control.Beta, req.Control.Mean)
	}
	return fmt.Sprintf("%s\x00%s\x00%s\x00%d\x00%s", req.Kernel, req.Params, samplerName(req), req.Seed, ctl)
}

func (s *seam) totals() (int, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls, s.sum
}
