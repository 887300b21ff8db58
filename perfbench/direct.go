package main

import (
	"strings"
	"time"

	"carriersense/internal/montecarlo"
	"carriersense/internal/sampling"
	"carriersense/internal/sim"
	"carriersense/internal/testbed"
)

// The direct layer calls: each times one layer with nothing above it,
// so a per-layer number is not diluted by the layers that drive it.
// They run in the traced run only, each on the workload that loads its
// layer, after the timed passes.

// coreKernels are the registered core/* kernels, each timed by a
// direct serial evaluation.
var coreKernels = []string{"core/averages", "core/bad-snr", "core/fairness", "core/multi", "core/policy-diff", "core/single"}

const comboKernel = testbed.KernelCombo

// coreMetric names a core kernel's direct timing: core/bad-snr becomes
// core.ns_per_sample.bad-snr.
func coreMetric(kernel string) string {
	return "core.ns_per_sample." + strings.TrimPrefix(kernel, "core/")
}

// kernelSamplerPairs are the (kernel, sampler) groups the workloads
// send through the seam, in metric form: figures reaches core/averages,
// core/policy-diff and core/multi under plain, converge reaches the
// first two under every sampler auto pilots, and packet reaches the
// testbed combo. Undeclared pairs are listed in the table but not on
// the JSON line.
var kernelSamplerPairs = []string{
	"core-averages.plain", "core-averages.sobol", "core-averages.cv", "core-averages.stratified", "core-averages.antithetic",
	"core-policy-diff.plain", "core-policy-diff.sobol", "core-policy-diff.cv", "core-policy-diff.stratified", "core-policy-diff.antithetic",
	"core-multi.plain",
	"testbed-combo.plain",
}

const (
	coreShards  = 32 // fixed shards per direct kernel timing
	directReps  = 3  // repetitions; the median is reported
	cvPilotReps = 3  // PilotControl calls per kernel
	simMinWall  = time.Second
	simChains   = 64 // concurrent self-rescheduling event chains
	simBatch    = 1 << 20
)

func directCalls(w workload, first map[string]montecarlo.Request, seed uint64) map[string]float64 {
	out := map[string]float64{}
	switch w.name {
	case "figures":
		for _, k := range coreKernels {
			req, ok := first[k]
			if !ok && k != "core/multi" {
				// Every two-pair point kernel takes the same parameters.
				req, ok = first["core/averages"]
			}
			if ok {
				out[coreMetric(k)] = coreNsPerSample(k, req, seed)
			}
		}
	case "converge":
		var ms []float64
		for _, k := range []string{"core/averages", "core/single", "core/policy-diff"} {
			if req, ok := first[k]; ok && montecarlo.HasControlTwin(k) {
				for i := 0; i < cvPilotReps; i++ {
					t0 := time.Now()
					if _, err := montecarlo.PilotControl(req, sampling.PilotSamples); err != nil {
						continue
					}
					ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
				}
			}
		}
		out["sampling.cv_control_ms"] = median(ms)
	case "packet":
		out["sim.ns_per_event"] = simNsPerEvent(seed)
	}
	return out
}

// coreNsPerSample evaluates a kernel serially through
// montecarlo.BuildKernel's per-sample form over a fixed shard plan:
// the libm floor, without the pool, batching or samplers.
func coreNsPerSample(kernel string, req montecarlo.Request, seed uint64) float64 {
	fn, err := montecarlo.BuildKernel(kernel, req.Params)
	if err != nil {
		return 0
	}
	out := make([]float64, 64)
	var per []float64
	for rep := 0; rep < directReps; rep++ {
		shards := montecarlo.PlanShards(seed, coreShards*montecarlo.ShardSize)
		t0 := time.Now()
		n := 0
		for _, s := range shards {
			for i := 0; i < s.N; i++ {
				clear(out)
				fn(s.Src, out)
			}
			n += s.N
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// simNsPerEvent drives a bare sim.Simulator with self-rescheduling
// event chains for at least simMinWall and reports wall ns per fired
// event. Delays vary per chain so the event heap reorders constantly.
func simNsPerEvent(seed uint64) float64 {
	s := sim.New()
	delays := make([]sim.Time, simChains)
	for i := range delays {
		delays[i] = sim.Time(1 + (seed+uint64(i)*7919)%997)
	}
	var tick func(arg any)
	tick = func(arg any) {
		i := arg.(int)
		s.After1(delays[i], tick, i)
	}
	for i := 0; i < simChains; i++ {
		s.After1(delays[i], tick, i)
	}
	start := time.Now()
	for time.Since(start) < simMinWall {
		target := s.EventsFired() + simBatch
		for s.EventsFired() < target {
			s.Run(s.Now() + 1000)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(s.EventsFired())
}
