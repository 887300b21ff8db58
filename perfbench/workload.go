package main

import (
	"fmt"
	"sort"
)

// width is the coordinator's Monte Carlo pool width. The benchmark is
// sized for a 2-core machine: the local pool runs 2 wide, and the
// fleet is two single-width workers.
const (
	width        = 2
	fleetWorkers = 2
)

// step is one scenario invocation inside a pass: an engine.Run call
// with its own scale, sampler and parameter overrides.
type step struct {
	scenario string
	scale    string
	sampler  string
	relErr   float64
	sets     []string
}

func (s step) String() string {
	out := s.scenario + "@" + s.scale
	if s.sampler != "" {
		out += "/" + s.sampler
	}
	if s.relErr > 0 {
		out += fmt.Sprintf("/relerr=%g", s.relErr)
	}
	for _, kv := range s.sets {
		out += " " + kv
	}
	return out
}

// mode says what sits below the executor seam.
type mode int

const (
	local     mode = iota // the in-process pool, no cache
	fleetCold             // a cache on an empty directory in front of the fleet
	fleetWarm             // a fresh cache on a filled directory: reads only
)

// workload is one closed-loop benchmark: a pass is its steps run back
// to back through engine.Run, all under the run's seed. Why each one
// exists, and which layers it loads, is in BENCHMARK.json and
// README.md.
type workload struct {
	name  string
	mode  mode
	steps []step
}

// convergeTarget is the relative standard error the converge workload
// drives every point to.
const convergeTarget = 0.005

// The pass sizes keep one pass between ~0.01 s (a warm replay) and
// ~4 s on 2 cores, so a 16 s run times several passes.
// The scenarios that carry a correctness check against the paper
// (tables, testbed) run at -scale bench, where the experiments tests
// set their tolerances.
var workloads = []workload{
	{
		name: "figures",
		mode: local,
		steps: []step{
			{scenario: "threshold", scale: "smoke"},
			{scenario: "robustness", scale: "smoke"},
			{scenario: "tables", scale: "bench"},
			{scenario: "curves", scale: "bench"},
			{scenario: "inefficiency", scale: "bench"},
			{scenario: "multi", scale: "smoke"},
		},
	},
	{
		name: "converge",
		mode: local,
		steps: []step{
			{scenario: "curves", scale: "bench", sampler: "sobol", relErr: convergeTarget},
			{scenario: "tables", scale: "bench", sampler: "sobol", relErr: convergeTarget},
			{scenario: "inefficiency", scale: "bench", sampler: "sobol", relErr: convergeTarget},
			{scenario: "threshold", scale: "bench", sampler: "sobol", relErr: convergeTarget, sets: []string{"alphas=3", "rmaxgrid=10,40,160"}},
			{scenario: "curves", scale: "bench", sampler: "cv", relErr: convergeTarget, sets: []string{"dgrid=20,55,90,120"}},
			{scenario: "tables", scale: "bench", sampler: "cv", relErr: convergeTarget, sets: []string{"rmaxgrid=40"}},
			{scenario: "curves", scale: "bench", sampler: "auto", relErr: convergeTarget},
			{scenario: "tables", scale: "bench", sampler: "auto", relErr: convergeTarget},
		},
	},
	{
		name: "packet",
		mode: local,
		steps: []step{
			{scenario: "testbed", scale: "bench", sets: []string{"range=both", "seconds=1"}},
			{scenario: "exposed", scale: "bench", sets: []string{"seconds=1"}},
			{scenario: "extension-11g", scale: "bench", sets: []string{"seconds=1"}},
		},
	},
	{
		// Large estimations only (98 shards each at -scale full): the
		// pass is bound by the workers' throughput. A pass of many
		// few-shard estimations is bound by round trips between three
		// processes on two cores, and swings by 2x when the host is
		// contended.
		name: "fleet",
		mode: fleetCold,
		steps: []step{
			{scenario: "curves", scale: "full", sets: []string{"dgrid=10,20,30,40,55,70,90,120"}},
			{scenario: "curves", scale: "full", sets: []string{"sigmadb=8", "dgrid=20,55,90,120"}},
		},
	},
	{
		// Many small entries, as a multi-scenario run leaves behind.
		name: "fleet-warm",
		mode: fleetWarm,
		steps: []step{
			{scenario: "tables", scale: "bench"},
			{scenario: "curves", scale: "full", sets: []string{"dgrid=20,55,90"}},
			{scenario: "inefficiency", scale: "bench"},
			{scenario: "robustness", scale: "smoke", sets: []string{"alphas=2,3,4", "sigmas=4,12"}},
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
