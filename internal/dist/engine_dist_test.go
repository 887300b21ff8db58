package dist_test

// End-to-end acceptance: a scenario run through engine.Run with a
// Remote executor — the `cs run <scenario> -workers ...` path — must
// produce text and metrics bit-identical to the plain local run, at
// any fleet size and with a worker killed mid-flight.

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"carriersense/internal/capacity"
	"carriersense/internal/core"
	"carriersense/internal/dist"
	"carriersense/internal/engine"
	"carriersense/internal/montecarlo"
)

// distScenarioParams drive the registered test scenario through the
// model's kernel-routed estimators.
type distScenarioParams struct {
	Seed    uint64
	Samples int
}

func init() {
	engine.Register(engine.Scenario{
		Name:        "dist-test-scenario",
		Description: "distributed-executor acceptance scenario (tests only)",
		Figures:     "none",
		NewParams:   func() any { return &distScenarioParams{Seed: 4242, Samples: 3*montecarlo.ShardSize + 77} },
		Run: func(rc *engine.RunContext) error {
			p := rc.Params.(*distScenarioParams)
			// Shadowed two-pair averages: the core/averages kernel.
			m := core.New(core.DefaultParams())
			a := m.EstimateAverages(p.Seed, p.Samples, 55, 55, 55)
			rc.Printf("cs=%v max=%v eff=%v\n", a.CS.Mean, a.Max.Mean, a.Efficiency())
			rc.Metric("cs", a.CS.Mean)
			rc.Metric("max", a.Max.Mean)
			rc.Metric("eff", a.Efficiency())
			// A non-default capacity model: the capacity.Spec round trip.
			fm := core.New(core.Params{Alpha: 3, SigmaDB: 8, NoiseDB: core.DefaultNoiseDB,
				Capacity: capacity.FixedRate{Rate: 1.25, MinSNR: 2.5}})
			fa := fm.EstimateAverages(p.Seed+1, p.Samples, 55, 55, 55)
			rc.Metric("fixed_eff", fa.Efficiency())
			// The n-pair extension: the core/multi kernel.
			mm := core.NewMulti(core.DefaultMultiParams(3))
			ma := mm.EstimateMulti(p.Seed+2, p.Samples/2)
			rc.Metric("multi_eff", ma.Efficiency())
			rc.Printf("multi cs=%v bestk=%v\n", ma.CS.Mean, ma.BestK.Mean)
			return nil
		},
	})
}

func runScenario(t *testing.T, exec montecarlo.Executor) *engine.Result {
	t.Helper()
	results, err := engine.Run(context.Background(), "dist-test-scenario", engine.Options{
		Scale:    "smoke",
		Executor: exec,
	})
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("%d results", len(results))
	}
	return results[0]
}

func TestEngineRunDistributedBitIdentical(t *testing.T) {
	local := runScenario(t, nil)
	for _, fleet := range []int{1, 2, 5} {
		remote, err := dist.NewRemote(startWorkers(t, fleet), dist.RemoteOptions{BatchSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := runScenario(t, remote)
		if got.Text != local.Text {
			t.Errorf("fleet=%d: text differs:\n%q\nvs local\n%q", fleet, got.Text, local.Text)
		}
		if !reflect.DeepEqual(got.Metrics, local.Metrics) {
			t.Errorf("fleet=%d: metrics differ:\n%v\nvs local\n%v", fleet, got.Metrics, local.Metrics)
		}
	}
}

func TestEngineRunSurvivesWorkerDeathMidRun(t *testing.T) {
	local := runScenario(t, nil)
	// The scenario's first estimation has 4 shards, enough for the
	// flaky worker to reach its death point (see StartDyingPair).
	const survives = 1
	hosts, flakyBatches := dist.StartDyingPair(t, survives)
	remote, err := dist.NewRemote(hosts, dist.RemoteOptions{
		BatchSize: 1, Concurrency: 1, HostFailLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	got := runScenario(t, remote)
	if n := flakyBatches(); n <= survives {
		t.Fatalf("flaky worker saw %d batches; death path not exercised", n)
	}
	if got.Text != local.Text || !reflect.DeepEqual(got.Metrics, local.Metrics) {
		t.Errorf("results after mid-run worker death differ from local:\n%v\nvs\n%v",
			got.Metrics, local.Metrics)
	}
}

func TestEngineRejectsNegativeParallel(t *testing.T) {
	_, err := engine.Run(context.Background(), "dist-test-scenario", engine.Options{
		Scale: "smoke", Parallel: -2,
	})
	if err == nil || !strings.Contains(err.Error(), "-parallel") {
		t.Fatalf("negative -parallel accepted (err=%v)", err)
	}
}

func TestEngineSurfacesExecutorFailureAsError(t *testing.T) {
	// An unreachable fleet must become an ordinary error from
	// engine.Run, not a crash.
	srv := httptest.NewServer(dist.NewServer())
	host := strings.TrimPrefix(srv.URL, "http://")
	srv.Close()
	remote, err := dist.NewRemote([]string{host}, dist.RemoteOptions{HostFailLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = engine.Run(context.Background(), "dist-test-scenario", engine.Options{
		Scale: "smoke", Executor: remote,
	})
	if err == nil {
		t.Fatal("run against a dead fleet succeeded")
	}
	var execErr *montecarlo.ExecError
	if !errors.As(err, &execErr) {
		t.Errorf("error %v does not unwrap to ExecError", err)
	}
}
