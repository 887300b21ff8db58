// Package dist is the distributed shard executor: it farms the
// engine's machine-independent Monte Carlo shards out to a fleet of
// worker processes and merges the returned accumulator states back in
// shard order, so `cs run <scenario> -workers host1:port,host2:port`
// is bit-identical to the same run without -workers at any fleet size.
//
// The unit of work is one shard of montecarlo.PlanShards — a (kernel
// name, params JSON, seed, sample budget, shard index) tuple — shipped
// over a persistent binary frame stream to a worker started with
// `cs serve -listen :port`.
// Coordinator and workers are the same binary, so the kernel registry
// resolves identically on both sides; determinism comes from the shard
// plan being a pure function of (seed, samples) and from merging in
// shard order, never arrival order.
//
// Failure handling: each shard batch is retried (per-shard attempt
// budget), a worker that keeps failing is marked dead and its
// outstanding shards are re-dispatched to the survivors, and the run
// errors out only when every worker is gone or a shard exhausts its
// attempts. Workers expose /healthz and /stats for fleet supervision.
package dist

import (
	"context"

	"carriersense/internal/montecarlo"
)

// Executor evaluates a montecarlo.Request's full shard plan. It is the
// seam engine.Options exposes: Local evaluates in-process, Remote
// farms shards out to a worker fleet.
type Executor = montecarlo.Executor

// Local is the in-process executor: the whole shard plan evaluated by
// montecarlo's worker pool (the same path `cs run` takes without
// -workers). It exists so callers can name the default explicitly.
type Local struct{}

// EstimateVec implements Executor.
func (Local) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	return montecarlo.RunRequest(ctx, req)
}
