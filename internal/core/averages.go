package core

import (
	"math"

	"carriersense/internal/montecarlo"
	"carriersense/internal/numeric"
)

// Averages holds the expected per-pair throughput of every MAC policy
// for one (R_max, D) point, estimated over the receiver distribution
// and shadowing. All policies are evaluated on the *same* sampled
// configurations (common random numbers), so ratios such as
// CS/Max carry far less Monte Carlo noise than the individual values.
type Averages struct {
	Rmax, D          float64
	DThresh          float64 // threshold distance used for the CS policy
	Single           montecarlo.Estimate
	Mux              montecarlo.Estimate
	Conc             montecarlo.Estimate
	CS               montecarlo.Estimate
	Max              montecarlo.Estimate
	UBMax            montecarlo.Estimate
	Starved          montecarlo.Estimate // P[receiver 1 starved under concurrency] (<10% of UBMax)
	DeferredFraction montecarlo.Estimate // P[carrier sense defers]
}

// Efficiency returns carrier sense throughput as a fraction of
// optimal, the quantity the §3.2.5 tables report.
func (a Averages) Efficiency() float64 {
	if a.Max.Mean == 0 {
		return 0
	}
	return a.CS.Mean / a.Max.Mean
}

// indices into the MeanVec sample vector.
const (
	idxSingle = iota
	idxMux
	idxConc
	idxCS
	idxMax
	idxUBMax
	idxStarved
	idxDeferred
	nAverages
)

// averagesEval builds the per-policy throughput integrand behind
// EstimateAverages; the core/averages kernel rebuilds it on workers.
// The integrand is the fused pointEval sampler: each path gain and
// capacity evaluation happens exactly once per sample.
func (m *Model) averagesEval(rmax, d, dThresh float64) montecarlo.EvalFunc {
	return m.newPointEval(rmax, d, dThresh).averagesSample
}

// EstimateAverages estimates all policy averages at one (R_max, D)
// point with n Monte Carlo configurations. dThresh sets the carrier
// sense threshold distance. The estimation runs through the installed
// executor (in-process by default, a worker fleet under `cs run
// -workers`); results are bit-identical either way.
func (m *Model) EstimateAverages(seed uint64, n int, rmax, d, dThresh float64) Averages {
	est := m.estimatePoint(KernelAverages, rmax, d, dThresh, m.averagesEval(rmax, d, dThresh), seed, n, nAverages)
	return Averages{
		Rmax: rmax, D: d, DThresh: dThresh,
		Single:           est[idxSingle],
		Mux:              est[idxMux],
		Conc:             est[idxConc],
		CS:               est[idxCS],
		Max:              est[idxMax],
		UBMax:            est[idxUBMax],
		Starved:          est[idxStarved],
		DeferredFraction: est[idxDeferred],
	}
}

// AvgSingleQuad computes ⟨C_single⟩(R_max) for the σ = 0 model by
// deterministic quadrature over the receiver disc. Only valid when
// SigmaDB == 0 (it ignores shadowing draws); callers assert that.
func (m *Model) AvgSingleQuad(rmax float64) float64 {
	f := func(r float64) float64 {
		c := Config{X1: r, LSig1: 1}
		return m.CSingle(c, 1)
	}
	// The integrand depends on r only; average over the disc with the
	// 2r/R_max² radial density. Panels concentrate near the origin
	// where capacity has its logarithmic peak.
	g := func(r float64) float64 { return 2 * r * f(r) / (rmax * rmax) }
	return numeric.GaussLegendre20Panels(g, 0, rmax, 64)
}

// AvgMuxQuad computes ⟨C_multiplexing⟩(R_max) for σ = 0 by quadrature.
func (m *Model) AvgMuxQuad(rmax float64) float64 {
	return m.AvgSingleQuad(rmax) / 2
}

// AvgConcQuad computes ⟨C_concurrent⟩(R_max, D) for σ = 0 by nested
// quadrature over the receiver disc.
func (m *Model) AvgConcQuad(rmax, d float64) float64 {
	return numeric.DiscAverage(1, func(x, y float64, v []float64) {
		c := Config{D: d, X1: x, Y1: y, LSig1: 1, LInt1: 1}
		v[0] = m.CConcurrent(c, 1)
	}, rmax, discRPanels, discThetaPanels)[0]
}

// discRPanels × discThetaPanels is the disc quadrature grid behind
// every σ = 0 disc average; changing it changes every cv μ's bits.
const discRPanels, discThetaPanels = 48, 24

// CurvePoint is one D-sample of the Figure 4/5/9 throughput curves.
type CurvePoint struct {
	D     float64
	Mux   float64
	Conc  float64
	CS    float64
	Max   float64
	UBMax float64
}

// Curves computes the average-throughput-versus-D curves of Figures 4,
// 5 and 9 for one R_max: multiplexing, concurrency, carrier sense (for
// the given threshold) and optimal, across the given D grid, each
// estimated with n Monte Carlo samples. Values are normalized by
// dividing by norm if norm > 0 (the paper normalizes to the
// R_max = 20, D = ∞ throughput, i.e. ⟨C_single⟩(20)).
func (m *Model) Curves(seed uint64, n int, rmax, dThresh float64, dGrid []float64, norm float64) []CurvePoint {
	out := make([]CurvePoint, len(dGrid))
	scale := 1.0
	if norm > 0 {
		scale = 1 / norm
	}
	for i, d := range dGrid {
		a := m.EstimateAverages(seed+uint64(i)*7919, n, rmax, d, dThresh)
		out[i] = CurvePoint{
			D:     d,
			Mux:   a.Mux.Mean * scale,
			Conc:  a.Conc.Mean * scale,
			CS:    a.CS.Mean * scale,
			Max:   a.Max.Mean * scale,
			UBMax: a.UBMax.Mean * scale,
		}
	}
	return out
}

// NormalizationConstant returns the paper's Figure 4 normalizer:
// ⟨C_single⟩ at R_max = 20 (the D → ∞ throughput of a R_max = 20
// network), estimated with n samples (or by quadrature when σ = 0).
func (m *Model) NormalizationConstant(seed uint64, n int) float64 {
	if m.params.SigmaDB == 0 {
		return m.AvgSingleQuad(20)
	}
	est := m.estimatePoint(KernelSingle, 20, 1, 0, m.singleEval(20, 1), seed, n, 1)
	return est[0].Mean
}

// singleEval builds the no-competition throughput integrand; the
// core/single kernel rebuilds it on workers.
func (m *Model) singleEval(rmax, d float64) montecarlo.EvalFunc {
	return m.newPointEval(rmax, d, 0).singleSample
}

// ConcurrencySlope estimates d⟨C_conc⟩/dD at the given D by a central
// difference of the quadrature curve (σ = 0 only). Footnote 12 bounds
// this slope by 1.37/R_max (in R_max = 20 normalized capacity units)
// for α = 3 and all D > R_max.
func (m *Model) ConcurrencySlope(rmax, d float64) float64 {
	h := math.Max(d*0.01, 0.05)
	return numeric.Derivative(func(x float64) float64 {
		return m.AvgConcQuad(rmax, x)
	}, d, h)
}
