package dist

// Protocol constants shared by coordinator and workers. Shards travel
// over the binary frame stream (frame.go, stream.go); accumulator
// states cross it as IEEE-754 bit patterns
// (montecarlo.AccumulatorState), so a state that crosses the wire is
// the state that was computed — no printf rounding anywhere in the
// distributed merge.

import "fmt"

// Endpoint paths served by every worker.
const (
	// PathHealthz reports liveness.
	PathHealthz = "/healthz"
	// PathStats reports cumulative worker statistics.
	PathStats = "/stats"
	// PathMetrics serves the process's obs registry as Prometheus text.
	PathMetrics = "/metrics"
)

// ProtoVersion is the shard wire protocol version, carried by both
// hello frames. Bump it whenever a request gains meaning an older
// binary would *silently mis-serve* rather than reject — version 2
// added Sampler and FirstShard, which a version-1 worker's JSON
// decoder ignores, returning plain-sampler full-plan accumulators that
// merge cleanly into wrong results. Version 3 added the
// control-variate spec (Request.Control): a version-2 worker would
// drop the coefficients and return unadjusted accumulators under the
// adjusted request's identity. Both sides enforce it at the hello: a
// worker echoes its own version and closes on a mismatch, and the
// coordinator abandons a worker whose echo differs, so a mixed-version
// fleet fails loudly instead of corrupting the determinism contract.
const ProtoVersion = 3

// validateIndices checks a shard batch for range and duplicates on the
// worker hot path. Dup detection is a bitset sized by the shard count
// — one word per 64 shards instead of a map allocation per batch.
func validateIndices(indices []int, first, count int) error {
	if len(indices) == 0 {
		return fmt.Errorf("dist: shard batch has no indices")
	}
	seen := make([]uint64, (count+63)/64)
	for _, idx := range indices {
		if idx < first || idx >= count {
			return fmt.Errorf("dist: shard index %d out of range [%d,%d)", idx, first, count)
		}
		if seen[idx/64]&(1<<(idx%64)) != 0 {
			return fmt.Errorf("dist: duplicate shard index %d", idx)
		}
		seen[idx/64] |= 1 << (idx % 64)
	}
	return nil
}

// Stats is the /stats payload. Requests counts shard batches received;
// Streams counts accepted streams and StreamBatches the batch frames
// they carried, so Requests equals StreamBatches. InflightBatches and
// Draining expose the worker's live state so a smoke test can assert
// graceful-drain behavior instead of inferring it from log lines.
type Stats struct {
	UptimeSeconds   float64  `json:"uptime_seconds"`
	Requests        int64    `json:"requests"`
	Shards          int64    `json:"shards"`
	Samples         int64    `json:"samples"`
	Failures        int64    `json:"failures"`
	Streams         int64    `json:"streams"`
	StreamBatches   int64    `json:"stream_batches"`
	InflightBatches int64    `json:"inflight_batches"`
	Draining        bool     `json:"draining"`
	Kernels         []string `json:"kernels"`
}
