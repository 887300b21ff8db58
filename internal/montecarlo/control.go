package montecarlo

// Control variates: the per-sample variance-reduction seam behind
// internal/sampling's `cv` strategy. A kernel's *control twin* is a
// reduced form of the same integrand whose exact per-component means
// are computable (for the shadowed two-pair kernels: the σ = 0 model,
// whose disc averages internal/core evaluates by deterministic
// quadrature). Each evaluated sample is adjusted to
//
//	y_j = f_j − β_j · (g_j − μ_j)
//
// where f is the real kernel, g the twin *evaluated on the same
// uniform draws* (record/replay through the rng.WithUniforms hook, so
// the twin sees the identical receiver placements), μ the twin's
// exact mean, and β the control coefficient. E[y] = E[f] for any β,
// so the estimate stays unbiased; β ≈ Cov(f,g)/Var(g) minimizes the
// variance, removing the ρ² fraction of it that g explains. For the
// σ = 0 lanes g ≡ f componentwise and the adjusted variable is a
// constant — convergence in one round.
//
// Determinism contract: (β, μ) travel in Request.Control — over the
// dist wire and into the cache key — so the adjustment is part of the
// estimation's identity, the per-sample math is a pure function of
// the shard stream, and a cv request reproduces bit-identically on
// any executor at any parallelism. β itself is estimated once per
// estimation by PilotControl, a serial in-process pass over a seed
// derived from the request's, so every coordinator derives the exact
// same coefficients.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"carriersense/internal/rng"
)

// ControlSpec is the serialized control-variate adjustment of one
// estimation: one (β, μ) pair per component. β_j = 0 disables the
// adjustment for component j (Mean_j is then ignored and stored as 0,
// keeping the spec JSON-marshalable). Part of the request identity.
type ControlSpec struct {
	Beta []float64 `json:"beta"`
	Mean []float64 `json:"mean"`
}

// validate checks the spec against the request's component count.
func (c *ControlSpec) validate(dim int) error {
	if len(c.Beta) != dim || len(c.Mean) != dim {
		return fmt.Errorf("montecarlo: control spec has %d beta / %d mean components, request wants %d",
			len(c.Beta), len(c.Mean), dim)
	}
	for j := range c.Beta {
		if math.IsNaN(c.Beta[j]) || math.IsInf(c.Beta[j], 0) ||
			math.IsNaN(c.Mean[j]) || math.IsInf(c.Mean[j], 0) {
			return fmt.Errorf("montecarlo: control spec component %d is not finite", j)
		}
	}
	return nil
}

// equal reports componentwise bitwise equality — the cache's disk
// layer verifies stored specs against the request's.
func (c *ControlSpec) Equal(o *ControlSpec) bool {
	if (c == nil) != (o == nil) {
		return false
	}
	if c == nil {
		return true
	}
	if len(c.Beta) != len(o.Beta) || len(c.Mean) != len(o.Mean) {
		return false
	}
	for j := range c.Beta {
		if c.Beta[j] != o.Beta[j] || c.Mean[j] != o.Mean[j] {
			return false
		}
	}
	return true
}

// ControlTwin is one kernel's registered control-variate twin.
type ControlTwin struct {
	// Eval rebuilds the twin integrand from the kernel's own params.
	// The twin must consume a prefix of the real kernel's per-sample
	// uniforms (same draw order, fewer or equal draws) so replaying the
	// recorded stream aligns the two on the same configuration.
	Eval KernelFactory
	// Means returns the twin's exact per-component means. A NaN marks
	// a component without a computable exact mean; the pilot forces
	// β = 0 there.
	Means func(params json.RawMessage) ([]float64, error)
}

var (
	controlMu    sync.RWMutex
	controlTwins = map[string]ControlTwin{}
)

// RegisterControlTwin adds a kernel's control twin to the global
// registry (internal/core registers the σ = 0 quadrature twins in its
// init). Both coordinator and workers link the registry, so a request
// carrying a ControlSpec rebuilds the identical twin on either side.
func RegisterControlTwin(kernel string, t ControlTwin) {
	if kernel == "" || t.Eval == nil || t.Means == nil {
		panic("montecarlo: invalid control twin registration")
	}
	controlMu.Lock()
	defer controlMu.Unlock()
	if _, dup := controlTwins[kernel]; dup {
		panic(fmt.Sprintf("montecarlo: duplicate control twin %q", kernel))
	}
	controlTwins[kernel] = t
}

// HasControlTwin reports whether a kernel has a registered twin.
func HasControlTwin(kernel string) bool {
	controlMu.RLock()
	defer controlMu.RUnlock()
	_, ok := controlTwins[kernel]
	return ok
}

// ControlTwinNames returns every kernel with a registered twin, sorted.
func ControlTwinNames() []string {
	controlMu.RLock()
	defer controlMu.RUnlock()
	out := make([]string, 0, len(controlTwins))
	for name := range controlTwins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ControlTwinMeans returns the exact μ vector a kernel's registered
// twin supplies for params — the means PilotControl regresses
// against and every cv request then carries in its ControlSpec.
func ControlTwinMeans(kernel string, params json.RawMessage) ([]float64, error) {
	t, err := lookupControlTwin(kernel)
	if err != nil {
		return nil, err
	}
	return t.Means(params)
}

func lookupControlTwin(kernel string) (ControlTwin, error) {
	controlMu.RLock()
	t, ok := controlTwins[kernel]
	controlMu.RUnlock()
	if !ok {
		return ControlTwin{}, fmt.Errorf("montecarlo: kernel %q has no control twin (registered: %v)", kernel, ControlTwinNames())
	}
	return t, nil
}

// controlEval is a built twin plus the request's adjustment, shared
// read-only by every shard of one estimation.
type controlEval struct {
	fn   EvalFunc
	beta []float64
	mean []float64
}

// buildControl resolves a request's control adjustment: nil when the
// request carries none, an error when it carries one that cannot be
// honored (no twin, bad spec).
func buildControl(req Request) (*controlEval, error) {
	if req.Control == nil {
		return nil, nil
	}
	if err := req.Control.validate(req.Dim); err != nil {
		return nil, err
	}
	t, err := lookupControlTwin(req.Kernel)
	if err != nil {
		return nil, err
	}
	fn, err := t.Eval(req.Params)
	if err != nil {
		return nil, fmt.Errorf("montecarlo: control twin %q: %w", req.Kernel, err)
	}
	return &controlEval{fn: fn, beta: req.Control.Beta, mean: req.Control.Mean}, nil
}

// pilotSeedSalt derives the pilot stream from the request seed: the
// pilot must be deterministic (every coordinator computes the same β)
// but must not reuse the main run's shard streams, or β would be
// fitted to the very samples it then adjusts.
const pilotSeedSalt = 0x9e3779b97f4a7c15

// maxControlBeta clamps the pilot's coefficient: a wild β from a
// noisy pilot variance ratio would amplify rather than cancel noise.
const maxControlBeta = 8

// PilotControl estimates a request's control coefficients from n
// serial in-process samples over a seed derived from the request's.
// The result is a pure function of (kernel, params, seed, n): every
// executor that computes it independently agrees bit-for-bit. Returns
// an error when the kernel has no registered twin.
func PilotControl(req Request, n int) (*ControlSpec, error) {
	if n < 2 {
		return nil, fmt.Errorf("montecarlo: control pilot needs >= 2 samples, got %d", n)
	}
	t, err := lookupControlTwin(req.Kernel)
	if err != nil {
		return nil, err
	}
	fn, err := BuildKernel(req.Kernel, req.Params)
	if err != nil {
		return nil, err
	}
	twin, err := t.Eval(req.Params)
	if err != nil {
		return nil, fmt.Errorf("montecarlo: control twin %q: %w", req.Kernel, err)
	}
	means, err := t.Means(req.Params)
	if err != nil {
		return nil, fmt.Errorf("montecarlo: control twin means %q: %w", req.Kernel, err)
	}
	if len(means) != req.Dim {
		return nil, fmt.Errorf("montecarlo: control twin %q has %d means, request wants %d", req.Kernel, len(means), req.Dim)
	}

	dim := req.Dim
	raw := rng.New(req.Seed ^ pilotSeedSalt)
	rp := newReplayPair(func() *rng.Source { return raw })
	f := make([]float64, dim)
	g := make([]float64, dim)
	// Online means and cross-moments (Welford form) per component.
	mf := make([]float64, dim)
	mg := make([]float64, dim)
	sgg := make([]float64, dim)
	sfg := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			f[j], g[j] = 0, 0
		}
		rp.beginSample()
		fn(rp.record, f)
		rp.beginReplay()
		twin(rp.replay, g)
		inv := 1 / float64(i+1)
		for j := 0; j < dim; j++ {
			df := f[j] - mf[j]
			dg := g[j] - mg[j]
			mf[j] += df * inv
			mg[j] += dg * inv
			sgg[j] += dg * (g[j] - mg[j])
			sfg[j] += dg * (f[j] - mf[j])
		}
	}
	addEvaluatedSamples(n)

	spec := &ControlSpec{Beta: make([]float64, dim), Mean: make([]float64, dim)}
	for j := 0; j < dim; j++ {
		if math.IsNaN(means[j]) || sgg[j] <= 0 {
			continue // no exact mean, or a degenerate twin: leave β = 0
		}
		b := sfg[j] / sgg[j]
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		if b > maxControlBeta {
			b = maxControlBeta
		} else if b < -maxControlBeta {
			b = -maxControlBeta
		}
		spec.Beta[j] = b
		spec.Mean[j] = means[j]
	}
	return spec, nil
}

// replayPair is the record/replay uniform plumbing shared by the
// pilot and the shard evaluator: the record source forwards uniforms
// from the current underlying sample source while logging them, the
// replay source feeds the log back to the twin so it evaluates the
// same configuration. A twin that consumes more uniforms than were
// recorded (impossible for a prefix-consuming twin, but kept
// deterministic regardless) continues on the underlying source.
type replayPair struct {
	cur    func() *rng.Source
	rec    []float64
	idx    int
	record *rng.Source
	replay *rng.Source
}

func newReplayPair(cur func() *rng.Source) *replayPair {
	rp := &replayPair{cur: cur}
	rp.record = rng.WithUniforms(func() float64 {
		u := rp.cur().Float64()
		rp.rec = append(rp.rec, u)
		return u
	})
	rp.replay = rng.WithUniforms(func() float64 {
		if rp.idx < len(rp.rec) {
			u := rp.rec[rp.idx]
			rp.idx++
			return u
		}
		return rp.cur().Float64()
	})
	return rp
}

func (rp *replayPair) beginSample() { rp.rec = rp.rec[:0] }
func (rp *replayPair) beginReplay() { rp.idx = 0 }
