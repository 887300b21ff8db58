package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"carriersense/internal/geometry"
	"carriersense/internal/montecarlo"
	"carriersense/internal/numeric"
)

func TestControlTwinsRegisteredForShadowedKernels(t *testing.T) {
	for _, k := range []string{KernelAverages, KernelSingle, KernelPolicyDiff} {
		if !montecarlo.HasControlTwin(k) {
			t.Errorf("kernel %s has no control twin", k)
		}
	}
}

func TestSigma0PilotIsExact(t *testing.T) {
	// On a σ = 0 environment the twin IS the kernel: the pilot must
	// find β = 1 on every quadrature-backed component, and the adjusted
	// variable is then the constant μ — zero variance, so the cv
	// strategy converges at the driver's first probe.
	req, ok := AveragesRequest(Params{Alpha: 3, SigmaDB: 0, NoiseDB: DefaultNoiseDB},
		55, 40, 55, 9, 4*montecarlo.ShardSize)
	if !ok {
		t.Fatal("averages kernel must be serializable")
	}
	spec, err := montecarlo.PilotControl(req, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{idxSingle, idxMux, idxConc, idxCS, idxUBMax} {
		if math.Abs(spec.Beta[j]-1) > 1e-9 {
			t.Errorf("component %d: β = %v, want exactly 1 on a σ=0 lane", j, spec.Beta[j])
		}
	}
	// The deferral indicator is a per-point constant at σ = 0: the twin
	// has no variance to regress against, so the pilot's guard leaves
	// it unadjusted.
	if spec.Beta[idxDeferred] != 0 {
		t.Errorf("constant component β = %v, want the 0-variance guard", spec.Beta[idxDeferred])
	}
	for _, j := range []int{idxMax, idxStarved} {
		if spec.Beta[j] != 0 {
			t.Errorf("NaN-mean component %d: β = %v, want 0", j, spec.Beta[j])
		}
	}

	req.Control = spec
	accs, err := montecarlo.RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	est := accs[idxSingle].Estimate()
	if est.StdErr > 1e-12 {
		t.Errorf("σ=0 adjusted stderr %v, want 0", est.StdErr)
	}
}

func TestTwinMeansMatchMonteCarlo(t *testing.T) {
	// The quadrature means the pilot regresses against must agree with
	// a Monte Carlo estimate of the twin integrand itself — a wrong μ
	// would bias every cv result, not just inflate variance. D = 40
	// sits inside the R_max = 55 disc; D_thresh on either side of it
	// covers both carrier-sense branches (multiplexing and concurrency).
	env := Params{Alpha: 3, SigmaDB: 8, NoiseDB: DefaultNoiseDB}
	for _, dThresh := range []float64{55, 20} {
		req, ok := AveragesRequest(env, 55, 40, dThresh, 9, 4*montecarlo.ShardSize)
		if !ok {
			t.Fatal("averages kernel must be serializable")
		}
		avg, err := montecarlo.ControlTwinMeans(KernelAverages, req.Params)
		if err != nil {
			t.Fatal(err)
		}
		if wantDefer := dThresh > 40; (avg[idxDeferred] == 1) != wantDefer {
			t.Fatalf("D_thresh %v: deferred mean %v, want defers=%v", dThresh, avg[idxDeferred], wantDefer)
		}
		pd, err := montecarlo.ControlTwinMeans(KernelPolicyDiff, req.Params)
		if err != nil {
			t.Fatal(err)
		}
		checks := []struct {
			kernel string
			dim    int
			means  []float64
			comps  []int
		}{
			{KernelAverages, nAverages, avg, []int{idxSingle, idxMux, idxConc, idxCS, idxUBMax, idxDeferred}},
			{KernelPolicyDiff, 2, pd, []int{0, 1}},
		}
		for _, c := range checks {
			twin, err := montecarlo.RunRequest(context.Background(), montecarlo.Request{
				Kernel: c.kernel, Params: alterSigma(t, req.Params), Seed: 9,
				Samples: 8 * montecarlo.ShardSize, Dim: c.dim,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range c.comps {
				est := twin[j].Estimate()
				tol := 4*est.StdErr + 2e-3*math.Abs(c.means[j])
				if math.Abs(est.Mean-c.means[j]) > tol {
					t.Errorf("%s D_thresh %v component %d: quadrature %v vs σ=0 MC %v (stderr %v)",
						c.kernel, dThresh, j, c.means[j], est.Mean, est.StdErr)
				}
			}
		}
	}
}

// oracleDiscAverage is the scalar polar disc quadrature the fused
// numeric.DiscAverage replaced, kept verbatim as a bit-identity
// oracle: a θ-panel rule nested inside an r-panel rule.
func oracleDiscAverage(f func(r, theta float64) float64, radius float64, rPanels, thetaPanels int) float64 {
	inner := func(r float64) float64 {
		g := func(theta float64) float64 { return f(r, theta) }
		return r * numeric.GaussLegendre20Panels(g, 0, 2*math.Pi, thetaPanels)
	}
	integral := numeric.GaussLegendre20Panels(inner, 0, radius, rPanels)
	return integral / (math.Pi * radius * radius)
}

func oracleAvgConcQuad(m *Model, rmax, d float64) float64 {
	return oracleDiscAverage(func(r, theta float64) float64 {
		p := geometry.Polar(r, theta)
		c := Config{D: d, X1: p.X, Y1: p.Y, LSig1: 1, LInt1: 1}
		return m.CConcurrent(c, 1)
	}, rmax, 48, 24)
}

func oracleAvgUBMaxQuad(m *Model, rmax, d float64) float64 {
	return oracleDiscAverage(func(r, theta float64) float64 {
		p := geometry.Polar(r, theta)
		c := Config{D: d, X1: p.X, Y1: p.Y, LSig1: 1, LInt1: 1}
		return math.Max(m.CConcurrent(c, 1), m.CSingle(c, 1)/2)
	}, rmax, 48, 24)
}

func oracleAvgCSQuad(m *Model, rmax, d, dThresh float64) (cs float64, defers bool) {
	defers = 1 > m.ThresholdPower(dThresh)/m.pathGain(d)
	if defers {
		return m.AvgMuxQuad(rmax), true
	}
	return oracleAvgConcQuad(m, rmax, d), false
}

// oracleTwinMeans are the twins' μ vectors as the scalar quadratures
// computed them: three disc passes for the averages twin.
var oracleTwinMeans = map[string]func(m *Model, p pointParams) []float64{
	KernelAverages: func(m *Model, p pointParams) []float64 {
		means := make([]float64, nAverages)
		single := m.AvgSingleQuad(p.Rmax)
		means[idxSingle] = single
		means[idxMux] = single / 2
		means[idxConc] = oracleAvgConcQuad(m, p.Rmax, p.D)
		cs, defers := oracleAvgCSQuad(m, p.Rmax, p.D, p.DThresh)
		means[idxCS] = cs
		means[idxMax] = math.NaN()
		means[idxUBMax] = oracleAvgUBMaxQuad(m, p.Rmax, p.D)
		means[idxStarved] = math.NaN()
		if defers {
			means[idxDeferred] = 1
		}
		return means
	},
	KernelSingle: func(m *Model, p pointParams) []float64 {
		return []float64{m.AvgSingleQuad(p.Rmax)}
	},
	KernelPolicyDiff: func(m *Model, p pointParams) []float64 {
		return []float64{oracleAvgConcQuad(m, p.Rmax, p.D), m.AvgSingleQuad(p.Rmax) / 2}
	},
}

func TestTwinMeansBitIdenticalToScalarQuadrature(t *testing.T) {
	// μ travels in Request.Control and the cache key, so the fused
	// quadrature must reproduce the scalar one bit for bit. α = 3.5
	// takes the math.Pow path gain, the others the integer path; the
	// points put D inside and outside the disc and D_thresh on both
	// sides of D.
	points := []struct{ rmax, d, dThresh float64 }{
		{10, 5, 55},    // inside, defers
		{40, 20, 10},   // inside, concurrent
		{20, 90, 120},  // outside, defers
		{120, 300, 55}, // outside, concurrent
	}
	for _, alpha := range []float64{2, 3, 3.5, 4} {
		t.Run(fmt.Sprintf("alpha=%v", alpha), func(t *testing.T) {
			t.Parallel()
			for _, pt := range points {
				req, ok := AveragesRequest(Params{Alpha: alpha, SigmaDB: 8, NoiseDB: DefaultNoiseDB},
					pt.rmax, pt.d, pt.dThresh, 1, 1)
				if !ok {
					t.Fatal("averages kernel must be serializable")
				}
				m, p, err := sigma0Model(req.Params)
				if err != nil {
					t.Fatal(err)
				}
				for kernel, oracle := range oracleTwinMeans {
					got, err := montecarlo.ControlTwinMeans(kernel, req.Params)
					if err != nil {
						t.Fatal(err)
					}
					want := oracle(m, p)
					if len(got) != len(want) {
						t.Fatalf("%s: %d means, oracle has %d", kernel, len(got), len(want))
					}
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Errorf("%+v %s component %d: %v, scalar quadrature %v",
								pt, kernel, j, got[j], want[j])
						}
					}
				}
			}
		})
	}
}

// alterSigma rewrites the request params to σ = 0, mirroring
// sigma0Model, so the σ = 0 kernel can run as an ordinary MC request.
func alterSigma(t *testing.T, raw json.RawMessage) json.RawMessage {
	t.Helper()
	var p pointParams
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	p.Env.SigmaDB = 0
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
