package engine

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
)

func init() {
	montecarlo.RegisterKernel("enginetest/uniform", func(params json.RawMessage) (montecarlo.EvalFunc, error) {
		return func(src *rng.Source, out []float64) {
			out[0] = 1 + src.Float64()
		}, nil
	})
}

// registerMCStub registers a scenario that runs one real kernel
// estimation, so engine-level sampler/relerr options have something to
// transform.
func registerMCStub(t *testing.T, name string, samples int) {
	t.Helper()
	Register(Scenario{
		Name:        name,
		Description: "mc stub",
		Figures:     "none",
		NewParams:   func() any { return &stubParams{Seed: 1, Gain: 2} },
		Run: func(rc *RunContext) error {
			est := montecarlo.KernelMeanVec("enginetest/uniform", nil, 5, samples, 1)[0]
			rc.Metric("mean", est.Mean)
			rc.Metric("n", float64(est.N))
			return nil
		},
	})
}

func TestRunRecordsSamplerInResult(t *testing.T) {
	registerMCStub(t, "mcstub-sampler", 2000)
	for _, tc := range []struct{ sampler, want string }{
		{"", "plain"},
		{"plain", "plain"},
		{"antithetic", "antithetic"},
	} {
		results, err := Run(context.Background(), "mcstub-sampler", Options{Sampler: tc.sampler})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Sampler != tc.want {
			t.Errorf("Sampler %q recorded as %q, want %q", tc.sampler, results[0].Sampler, tc.want)
		}
	}
}

func TestRunSamplerChangesEstimatorIdentity(t *testing.T) {
	registerMCStub(t, "mcstub-identity", 4000)
	run := func(sampler string) map[string]float64 {
		results, err := Run(context.Background(), "mcstub-identity", Options{Sampler: sampler})
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Metrics
	}
	plain := run("plain")
	anti := run("antithetic")
	// Antithetic folds pairs into single observations: half the
	// accumulator count, and an exact mean of 1.5 for the uniform
	// integrand (u and 1-u cancel perfectly).
	if anti["n"] != plain["n"]/2 {
		t.Errorf("antithetic N = %v, want %v", anti["n"], plain["n"]/2)
	}
	if anti["mean"] != 1.5 {
		t.Errorf("antithetic mean = %v, want exactly 1.5", anti["mean"])
	}
	if plain["mean"] == 1.5 {
		t.Error("plain mean hit 1.5 exactly; the stub is not distinguishing samplers")
	}
}

func TestRunRelErrProducesSamplingLedger(t *testing.T) {
	registerMCStub(t, "mcstub-relerr", 64*montecarlo.ShardSize)
	results, err := Run(context.Background(), "mcstub-relerr", Options{RelErr: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.RelErr != 0.01 {
		t.Errorf("result RelErr = %v, want 0.01", res.RelErr)
	}
	if res.Metrics["sampling_points"] != 1 || res.Metrics["sampling_converged"] != 1 {
		t.Errorf("sampling metrics = %v, want 1 point converged", res.Metrics)
	}
	spent := res.Metrics["sampling_spent"]
	if spent <= 0 || spent >= float64(64*montecarlo.ShardSize) {
		t.Errorf("sampling_spent = %v, want an early stop below the cap", spent)
	}
	if res.Metrics["n"] != spent {
		t.Errorf("estimate N %v != samples spent %v", res.Metrics["n"], spent)
	}
	if !strings.Contains(res.Text, "[adaptive sampling]") {
		t.Errorf("report text missing the sampling summary: %q", res.Text)
	}
	if _, ok := res.csvs["sampling"]; !ok {
		t.Error("sampling.csv artifact not registered")
	}
}

func TestRunValidatesSamplingOptions(t *testing.T) {
	registerMCStub(t, "mcstub-validate", 2000)
	if _, err := Run(context.Background(), "mcstub-validate", Options{Sampler: "latin-hypercube"}); err == nil {
		t.Error("unknown sampler accepted")
	}
	if _, err := Run(context.Background(), "mcstub-validate", Options{RelErr: -1}); err == nil {
		t.Error("negative relerr accepted")
	}
	if _, err := Run(context.Background(), "mcstub-validate", Options{MaxSamples: 100}); err == nil {
		t.Error("-max-samples without -relerr accepted")
	}
	if _, err := Run(context.Background(), "mcstub-validate", Options{AutoTable: "x.json"}); err == nil {
		t.Error("-auto-table without -sampler auto accepted")
	}
}

func TestRunAutoSamplerRecordsChoices(t *testing.T) {
	registerMCStub(t, "mcstub-auto", 64*montecarlo.ShardSize)
	table := filepath.Join(t.TempDir(), "choices.json")
	results, err := Run(context.Background(), "mcstub-auto",
		Options{Sampler: "auto", RelErr: 0.01, AutoTable: table})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	winner, ok := res.SamplerChoices["enginetest/uniform"]
	if !ok || winner == "" {
		t.Fatalf("no sampler choice recorded: %v", res.SamplerChoices)
	}
	if _, ok := res.csvs["sampler_choices"]; !ok {
		t.Error("sampler_choices.csv artifact not registered")
	}
	if res.Metrics["sampling_pilot"] <= 0 {
		t.Errorf("pilot spend %v not accounted", res.Metrics["sampling_pilot"])
	}
	if !strings.Contains(res.Text, "[auto sampler]") {
		t.Errorf("report text missing the choice line: %q", res.Text)
	}
	if _, err := os.Stat(table); err != nil {
		t.Errorf("choice table not persisted: %v", err)
	}

	// The default sampler must be restored after the run: a later
	// plain run is unaffected by the forced virtual name.
	if got := montecarlo.DefaultSampler(); got != "" {
		t.Errorf("auto run left default sampler %q installed", got)
	}
}
