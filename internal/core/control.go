package core

// Control-twin registration: every shadowed two-pair kernel whose
// σ = 0 means are computable by deterministic quadrature gets a
// montecarlo control twin — the same integrand evaluated on the
// σ = 0 model. The twin consumes exactly the prefix of the real
// kernel's per-sample uniforms (the two disc placements; σ = 0 draws
// no shadowing factors, matching rng.LognormalDB), so replaying a
// recorded sample into the twin evaluates the identical receiver
// configuration with the shadowing integrated out. That makes the
// twin the conditional-expectation-style control the cv sampler
// needs: it explains all placement variance (and, when the real
// environment is itself σ = 0, the whole integrand).
//
// Components whose σ = 0 mean has no accurate quadrature — the
// two-receiver max and the discontinuous starvation indicator — are
// marked NaN so the pilot leaves them unadjusted (β = 0); a quadrature
// value with a non-negligible error there would bias the estimate,
// not just inflate its variance.

import (
	"encoding/json"
	"math"

	"carriersense/internal/montecarlo"
	"carriersense/internal/numeric"
)

// sigma0Model rebuilds the kernel's model with shadowing disabled.
func sigma0Model(raw json.RawMessage) (*Model, pointParams, error) {
	var p pointParams
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, p, err
	}
	p.Env.SigmaDB = 0
	m, err := p.Env.build()
	return m, p, err
}

// sigma0Factory adapts a Model-level eval constructor into the twin's
// KernelFactory over the σ = 0 model.
func sigma0Factory(build func(m *Model, p pointParams) montecarlo.EvalFunc) montecarlo.KernelFactory {
	return func(raw json.RawMessage) (montecarlo.EvalFunc, error) {
		m, p, err := sigma0Model(raw)
		if err != nil {
			return nil, err
		}
		return build(m, p), nil
	}
}

// concUBMaxQuad computes ⟨C_conc⟩ and ⟨max(C_conc, C_mux)⟩ over
// receiver 1's disc for σ = 0 in one quadrature pass. Both depend on
// receiver 1's placement only; each node evaluates the serving power
// once and derives CConcurrent and CSingle from it with the exact
// expressions of model.go, so each mean has the bits of its own
// single-component pass.
func (m *Model) concUBMaxQuad(rmax, d float64) (conc, ubMax float64) {
	avg := numeric.DiscAverage(2, func(x, y float64, v []float64) {
		c := Config{D: d, X1: x, Y1: y, LSig1: 1, LInt1: 1}
		sig := m.SignalPower(c, 1)
		conc := m.cap.Throughput(sig / (m.noise + m.InterferencePower(c, 1)))
		v[0] = conc
		v[1] = math.Max(conc, m.cap.Throughput(sig/m.noise)/2)
	}, rmax, discRPanels, discThetaPanels)
	return avg[0], avg[1]
}

func init() {
	montecarlo.RegisterControlTwin(KernelAverages, montecarlo.ControlTwin{
		Eval: sigma0Factory(func(m *Model, p pointParams) montecarlo.EvalFunc {
			return m.averagesEval(p.Rmax, p.D, p.DThresh)
		}),
		Means: func(raw json.RawMessage) ([]float64, error) {
			m, p, err := sigma0Model(raw)
			if err != nil {
				return nil, err
			}
			means := make([]float64, nAverages)
			single := m.AvgSingleQuad(p.Rmax)
			conc, ubMax := m.concUBMaxQuad(p.Rmax, p.D)
			means[idxSingle] = single
			means[idxMux] = single / 2
			means[idxConc] = conc
			// With L″ pinned at 1 the deferral decision is a per-point
			// constant, so CS throughput is exactly the multiplexing or
			// the concurrency disc average.
			means[idxCS] = conc
			if 1 > m.ThresholdPower(p.DThresh)/m.pathGain(p.D) {
				means[idxCS] = single / 2
				means[idxDeferred] = 1
			}
			means[idxMax] = math.NaN() // depends on both placements: no 2-D quadrature
			means[idxUBMax] = ubMax
			means[idxStarved] = math.NaN() // discontinuous indicator: quadrature would bias
			return means, nil
		},
	})
	montecarlo.RegisterControlTwin(KernelSingle, montecarlo.ControlTwin{
		Eval: sigma0Factory(func(m *Model, p pointParams) montecarlo.EvalFunc {
			return m.singleEval(p.Rmax, p.D)
		}),
		Means: func(raw json.RawMessage) ([]float64, error) {
			m, p, err := sigma0Model(raw)
			if err != nil {
				return nil, err
			}
			return []float64{m.AvgSingleQuad(p.Rmax)}, nil
		},
	})
	montecarlo.RegisterControlTwin(KernelPolicyDiff, montecarlo.ControlTwin{
		Eval: sigma0Factory(func(m *Model, p pointParams) montecarlo.EvalFunc {
			return m.policyDiffEval(p.Rmax, p.D)
		}),
		Means: func(raw json.RawMessage) ([]float64, error) {
			m, p, err := sigma0Model(raw)
			if err != nil {
				return nil, err
			}
			return []float64{m.AvgConcQuad(p.Rmax, p.D), m.AvgSingleQuad(p.Rmax) / 2}, nil
		},
	})
}
