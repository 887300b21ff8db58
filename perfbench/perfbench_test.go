package main

import (
	"context"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"carriersense/internal/core"
	"carriersense/internal/montecarlo"
)

// smokeEnv is a local env over a few smoke-sized steps.
func smokeEnv(t *testing.T, steps []step) *env {
	t.Helper()
	w := workload{name: "smoke", mode: local, steps: steps}
	e, err := setup(context.Background(), config{seed: 3}, w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// TestDecompositionSumsToWall runs traced smoke passes and checks
// wall = experiments.logic_s + sampling.self_s + time below the seam
// within 1%. The driven curves step puts real time in the sampling
// decorators; the testbed step runs its combos 2 wide, so estimations
// overlap and per-goroutine sums would overshoot wall.
func TestDecompositionSumsToWall(t *testing.T) {
	for _, tc := range []struct {
		name string
		step step
	}{
		{"driven", step{scenario: "curves", scale: "smoke", sampler: "cv", relErr: 0.01, sets: []string{"dgrid=20,55,90"}}},
		{"overlapping", step{scenario: "testbed", scale: "smoke", sets: []string{"range=short", "seconds=0.2"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := smokeEnv(t, []step{tc.step})
			rep := &report{w: e.w}
			ctx := context.Background()
			ref, err := e.runPass(ctx, e.newChain(local, false), "", false)
			if err != nil {
				t.Fatal(err)
			}
			rep.ref = ref
			p, err := e.runPass(ctx, e.newChain(local, true), "", true)
			if err != nil {
				t.Fatal(err)
			}
			rep.add(p, true)
			got := map[string]float64{}
			for _, m := range rep.perLayer() {
				got[m.name] = m.m.Value
			}
			wall := p.wall.Seconds()
			parts := got["experiments.logic_s"] + got["sampling.self_s"] + got["bench.below_seam_s"]
			t.Logf("wall %.4fs = logic %.4f + sampling %.4f + below %.4f (error %.2g)",
				wall, got["experiments.logic_s"], got["sampling.self_s"], got["bench.below_seam_s"], got["bench.decomposition_error_frac"])
			if d := (parts - wall) / wall; d > 0.01 || d < -0.01 {
				t.Errorf("decomposition sums to %.4fs, wall %.4fs (%.2f%% off)", parts, wall, 100*d)
			}
			for _, k := range []string{"experiments.logic_s", "sampling.self_s", "bench.below_seam_s"} {
				if got[k] < -0.01*wall {
					t.Errorf("%s = %.4fs is negative", k, got[k])
				}
			}
			if tc.name == "overlapping" && p.c.outer.sum <= p.c.outer.busy {
				t.Errorf("testbed calls did not overlap (sum %v, busy %v); the case tests nothing", p.c.outer.sum, p.c.outer.busy)
			}
		})
	}
}

// emptyResults answers every request with empty accumulators.
type emptyResults struct{}

func (emptyResults) EstimateVec(_ context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	return make([]montecarlo.Accumulator, req.Dim), nil
}

// TestSeamCountsOnlyRestartedProbes: a probe round counts as discarded
// only when the driver restarts the same estimation right after it. A
// converged probe whose identity comes back later (as an auto pilot
// does, a whole shard from shard 0) was kept.
func TestSeamCountsOnlyRestartedProbes(t *testing.T) {
	const probe = 512
	at := func(d float64, samples int) montecarlo.Request {
		req, ok := core.AveragesRequest(core.Params{Alpha: 3, SigmaDB: 8, NoiseDB: core.DefaultNoiseDB}, 40, d, d, 1, samples)
		if !ok {
			t.Fatal("no serializable request")
		}
		req.Sampler = "sobol"
		return req
	}
	s := newSeam(emptyResults{}, true)
	for _, req := range []montecarlo.Request{
		at(20, probe),                  // converged probe
		at(55, probe),                  // missed probe ...
		at(55, montecarlo.ShardSize),   // ... restarted at once: discarded
		at(90, probe),                  // converged probe
		at(20, 2*montecarlo.ShardSize), // a pilot with the first probe's identity
	} {
		if _, err := s.EstimateVec(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if s.discarded != probe {
		t.Errorf("discarded %d samples, want %d (the one restarted probe)", s.discarded, probe)
	}
}

// TestChecksCatchWrongReference feeds each output check a reference it
// must reject.
func TestChecksCatchWrongReference(t *testing.T) {
	e := smokeEnv(t, []step{{scenario: "tables", scale: "bench"}})
	ctx := context.Background()
	dir := t.TempDir()
	ref, err := e.runPass(ctx, e.newChain(local, false), dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReference(e.w.steps, ref.results, dir); err != nil {
		t.Fatalf("the true reference fails its own check: %v", err)
	}
	cells, err := readTable(dir, 0, "t1.csv")
	if err != nil {
		t.Fatal(err)
	}

	wrongPaper := [][]float64{{0.96, 0.88, 0.96}, {0.96, 0.77, 0.96}, {0.89, 0.83, 0.92}}
	if err := checkTable1(cells, wrongPaper); err == nil {
		t.Error("T1 check accepted a paper table with one cell off by 0.10")
	}
	wrongThresholds := map[string]float64{"t2_dopt_rmax20": 40, "t2_dopt_rmax40": 55, "t2_dopt_rmax120": 80}
	if err := checkThresholds(ref.results[0][0].Metrics, wrongThresholds); err == nil {
		t.Error("threshold check accepted a paper threshold of 80 for R_max = 120")
	}

	again, err := e.runPass(ctx, e.newChain(local, false), "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameOutput(ref, again); err != nil {
		t.Fatalf("a repeat pass differs from its reference: %v", err)
	}
	wrongRef := *ref
	wrongRef.digest = strings.Repeat("0", len(ref.digest))
	if err := sameOutput(&wrongRef, again); err == nil {
		t.Error("pass check accepted a reference with a different digest")
	}

	if err := checkConverged([]ledgerRow{{kernel: "core/averages", sampler: "sobol", relErr: 0.0051, target: 0.005, converged: true}}); err == nil {
		t.Error("converge check accepted a converged point above its target")
	}
	if err := checkConverged([]ledgerRow{{kernel: "core/averages", sampler: "sobol", relErr: 0.02, target: 0.005}}); err != nil {
		t.Errorf("converge check rejected a point reported as capped: %v", err)
	}
	if err := checkTestbed(map[string]float64{"short-range_cs_frac": 0.97, "long-range_cs_frac": 0.5}); err == nil {
		t.Error("testbed check accepted a long-range CS fraction of 0.5")
	}
}

// TestFleetStartFailureNamesCause: a fleet that cannot start fails,
// naming the cause, instead of leaving the run on the local pool.
func TestFleetStartFailureNamesCause(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-cs")
	if _, err := startFleet(context.Background(), missing, 2); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("missing binary: got %v, want an error naming %s", err, missing)
	}
	exits, err := exec.LookPath("true")
	if err != nil {
		t.Skip("no `true` binary to stand in for a worker that exits at once")
	}
	if _, err := startFleet(context.Background(), exits, 2); err == nil || !strings.Contains(err.Error(), "exited before listening") {
		t.Errorf("worker exiting at once: got %v, want an error saying it exited before listening", err)
	}
}

// TestQuantileFromBuckets checks the histogram quantile against a hand
// computation.
func TestQuantileFromBuckets(t *testing.T) {
	s := scrape{
		`x_bucket{le="1"}`:               2,
		`x_bucket{le="2"}`:               6,
		`x_bucket{le="+Inf"}`:            8,
		`x_bucket{le="1",worker="a"}`:    2,
		`x_bucket{le="2",worker="a"}`:    2,
		`x_bucket{le="+Inf",worker="a"}`: 2,
		`x_bucket{handle="9",le="2"}`:    0,
		`y_bucket{le="2"}`:               100,
	}
	// 10 observations: 4 in [0,1], 4 in (1,2], 2 above 2.
	if got := s.quantile("x", 0.5); got < 1.249 || got > 1.251 {
		t.Errorf("p50 = %v, want 1.25", got)
	}
	if got := s.quantile("x", 0.99); got != 2 {
		t.Errorf("p99 = %v, want the largest finite bound 2", got)
	}
	if got := (scrape{}).quantile("x", 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

// TestCalibratedScalesByBracketingCalibrations: each value is scaled
// by the mean of the calibrations taken just before and just after it,
// and a value after the last calibration by that one alone.
func TestCalibratedScalesByBracketingCalibrations(t *testing.T) {
	var c calibrated
	c.cals = append(c.cals, calibRef)
	c.add(1) // between calibRef and 2·calibRef: speed 1.5·calibRef
	c.add(3)
	c.cals = append(c.cals, 2*calibRef)
	c.add(4) // after the last calibration: speed 2·calibRef
	want := []float64{1 / 1.5, 3 / 1.5, 2}
	for i, got := range c.scaled() {
		if math.Abs(got-want[i]) > 1e-12 {
			t.Errorf("scaled[%d] = %v, want %v", i, got, want[i])
		}
	}
	if cal := calibrate(); cal <= 0 {
		t.Errorf("calibration took %v s of CPU, want > 0", cal)
	}
}
