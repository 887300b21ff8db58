package montecarlo

// The kernel registry and executor seam: the machinery that makes a
// Monte Carlo estimation shippable to another process. A Kernel is a
// named, registered integrand factory — given serialized parameters it
// rebuilds the evaluation closure — so a shard of work is fully
// described by (kernel name, params JSON, seed, sample budget, shard
// index). Both the coordinator and the worker link the same registry
// (they are the same binary), which is what lets the distributed path
// reproduce shard accumulators bit-identically.
//
// The Executor interface is the scale-out seam: the default local
// executor evaluates the whole shard plan in-process with the
// RunShards pool; internal/dist provides a Remote executor that farms
// shards out over HTTP and merges the returned accumulator states in
// shard order. engine.Run installs the configured executor for the
// duration of a run, so every scenario distributes without
// per-scenario changes.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"carriersense/internal/rng"
)

// EvalFunc evaluates one sample of a vector-valued integrand: it fills
// out (one slot per component) using draws from src. The slice is
// zeroed before every call, so indicator components may be left unset.
type EvalFunc func(src *rng.Source, out []float64)

// BatchEvalFunc evaluates count consecutive samples of a
// dim-component integrand into out, a count×dim row-major flat buffer
// (sample i fills out[i*dim : (i+1)*dim]). The buffer is zeroed by
// the caller, so indicator components may be left unset, exactly as
// with EvalFunc. The batch form must consume random variates from src
// in precisely the order count successive EvalFunc calls would — the
// shard evaluator accumulates batch rows in sample order, so a
// conforming batch kernel is bit-identical to its per-sample form.
type BatchEvalFunc func(src *rng.Source, count int, out []float64)

// KernelFactory rebuilds an EvalFunc from serialized parameters.
type KernelFactory func(params json.RawMessage) (EvalFunc, error)

// BatchKernelFactory rebuilds a BatchEvalFunc from serialized
// parameters.
type BatchKernelFactory func(params json.RawMessage) (BatchEvalFunc, error)

// batchRegistration pairs a batch factory with the component count its
// evaluators stride the flat buffer by; requests with a different Dim
// are rejected rather than silently mis-striding the buffer.
type batchRegistration struct {
	factory BatchKernelFactory
	dim     int
}

var (
	kernelMu     sync.RWMutex
	kernels      = map[string]KernelFactory{}
	batchKernels = map[string]batchRegistration{}
)

// RegisterKernel adds a named integrand factory to the global registry.
// Registration happens in init() (internal/core registers the model's
// estimators); duplicates and empty names panic so a broken catalog
// fails loudly at startup.
func RegisterKernel(name string, factory KernelFactory) {
	if name == "" || factory == nil {
		panic("montecarlo: invalid kernel registration")
	}
	kernelMu.Lock()
	defer kernelMu.Unlock()
	if _, dup := kernels[name]; dup {
		panic(fmt.Sprintf("montecarlo: duplicate kernel %q", name))
	}
	kernels[name] = factory
}

// RegisterBatchKernel adds an optional batch evaluator for an
// already-registered (or about-to-be-registered) kernel name. dim is
// the kernel's component count — the stride its batch evaluators
// write the flat buffer with; estimation requests for the name must
// carry the same Dim or they are rejected. When a batch form is
// present, every shard evaluator — local pool, worker server, cache
// fill — prefers it: one call per buffer chunk instead of per sample.
// The batch form must draw and compute exactly as the per-sample form
// does; the two are interchangeable bit-for-bit.
func RegisterBatchKernel(name string, dim int, factory BatchKernelFactory) {
	if name == "" || factory == nil || dim < 1 {
		panic("montecarlo: invalid batch kernel registration")
	}
	kernelMu.Lock()
	defer kernelMu.Unlock()
	if _, dup := batchKernels[name]; dup {
		panic(fmt.Sprintf("montecarlo: duplicate batch kernel %q", name))
	}
	batchKernels[name] = batchRegistration{factory: factory, dim: dim}
}

// KernelNames returns every registered kernel name, sorted.
func KernelNames() []string {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	out := make([]string, 0, len(kernels))
	for name := range kernels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BuildKernel resolves a registered kernel and rebuilds its evaluation
// function from the serialized parameters.
func BuildKernel(name string, params json.RawMessage) (EvalFunc, error) {
	kernelMu.RLock()
	factory, ok := kernels[name]
	kernelMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("montecarlo: unknown kernel %q", name)
	}
	fn, err := factory(params)
	if err != nil {
		return nil, fmt.Errorf("montecarlo: kernel %q: %w", name, err)
	}
	return fn, nil
}

// kernelEval is a built kernel in both forms; batch is nil when the
// kernel registered only the per-sample form.
type kernelEval struct {
	fn    EvalFunc
	batch BatchEvalFunc
}

// buildEval resolves a kernel's per-sample evaluator and, when
// registered, its batch evaluator. A batch registration pins the
// kernel's component count: a request with a different dim (a
// version-skewed coordinator, a hand-built job) is an error here, not
// a mis-strided buffer downstream.
func buildEval(name string, params json.RawMessage, dim int) (kernelEval, error) {
	fn, err := BuildKernel(name, params)
	if err != nil {
		return kernelEval{}, err
	}
	kernelMu.RLock()
	br, hasBatch := batchKernels[name]
	kernelMu.RUnlock()
	ev := kernelEval{fn: fn}
	if hasBatch {
		if dim != br.dim {
			return kernelEval{}, fmt.Errorf("montecarlo: kernel %q has %d components, request wants %d", name, br.dim, dim)
		}
		batch, err := br.factory(params)
		if err != nil {
			return kernelEval{}, fmt.Errorf("montecarlo: batch kernel %q: %w", name, err)
		}
		ev.batch = batch
	}
	return ev, nil
}

// Request is one complete, serializable estimation: a registered
// kernel, its parameters, the sample plan, and the sampling strategy.
// The shard plan it implies — PlanShards(Seed, Samples) — is
// machine-independent, so any executor that evaluates every planned
// shard and merges in shard order reproduces the in-process result
// exactly.
//
// FirstShard, when > 0, restricts the request to shards [FirstShard,
// ShardCount(Samples)) of that plan. Shard streams depend only on
// (Seed, index), so a ranged request's accumulators are exactly the
// tail of the full request's — the seam the convergence driver
// (internal/sampling) uses to grow a budget geometrically without
// re-evaluating a single sample, on any executor.
type Request struct {
	Kernel  string          `json:"kernel"`
	Params  json.RawMessage `json:"params,omitempty"`
	Seed    uint64          `json:"seed"`
	Samples int             `json:"samples"`
	Dim     int             `json:"dim"`
	// Sampler names the registered sampling strategy ("" = plain). It
	// is part of the estimation's identity: it travels over the dist
	// wire and is folded into the cache key.
	Sampler string `json:"sampler,omitempty"`
	// FirstShard is the first shard index of the plan to evaluate
	// (0 = the whole plan).
	FirstShard int `json:"first_shard,omitempty"`
	// Control, when non-nil, applies the control-variate adjustment to
	// every evaluated sample (see control.go). Like Sampler it is part
	// of the estimation's identity: the coefficients travel over the
	// dist wire and are folded into the cache key, so an adjusted
	// estimation reproduces bit-identically on any executor.
	Control *ControlSpec `json:"control,omitempty"`
}

// Validate reports whether the request is well-formed (it does not
// check that the kernel or sampler is registered; buildEval does).
func (r Request) Validate() error {
	if r.Kernel == "" {
		return fmt.Errorf("montecarlo: request missing kernel name")
	}
	if r.Samples < 1 {
		return fmt.Errorf("montecarlo: request wants %d samples (must be >= 1)", r.Samples)
	}
	if r.Dim < 1 {
		return fmt.Errorf("montecarlo: request dim %d (must be >= 1)", r.Dim)
	}
	if r.FirstShard < 0 || r.FirstShard >= ShardCount(r.Samples) {
		return fmt.Errorf("montecarlo: request first shard %d out of plan range [0,%d)", r.FirstShard, ShardCount(r.Samples))
	}
	if r.Control != nil {
		if err := r.Control.validate(r.Dim); err != nil {
			return err
		}
	}
	return nil
}

// SampleSpan returns the number of samples the request actually
// evaluates: Samples minus the FirstShard-skipped prefix. Executors
// use it to credit throughput accounting.
func (r Request) SampleSpan() int {
	return r.Samples - r.FirstShard*ShardSize
}

// Executor evaluates a Request's full shard plan and returns one
// merged Accumulator per component. Implementations must merge shard
// accumulators in shard order so results are bit-identical to the
// in-process path.
type Executor interface {
	EstimateVec(ctx context.Context, req Request) ([]Accumulator, error)
}

var (
	execMu      sync.RWMutex
	currentExec Executor = localExecutor{}
)

// SetExecutor installs the executor used by every kernel-routed
// estimation. nil restores the in-process default. engine.Run installs
// the CLI-configured executor for the duration of a run.
func SetExecutor(e Executor) {
	execMu.Lock()
	defer execMu.Unlock()
	if e == nil {
		currentExec = localExecutor{}
		return
	}
	currentExec = e
}

// CurrentExecutor returns the installed executor.
func CurrentExecutor() Executor {
	execMu.RLock()
	defer execMu.RUnlock()
	return currentExec
}

// localExecutor is the default in-process executor: the whole shard
// plan evaluated by the RunShards pool.
type localExecutor struct{}

func (localExecutor) EstimateVec(ctx context.Context, req Request) ([]Accumulator, error) {
	return RunRequest(ctx, req)
}

// RunRequest evaluates a request in-process: every planned shard (from
// FirstShard on) through the worker pool, merged in shard order. It
// backs both the default local executor and dist.Local.
func RunRequest(ctx context.Context, req Request) ([]Accumulator, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ev, err := buildEval(req.Kernel, req.Params, req.Dim)
	if err != nil {
		return nil, err
	}
	sp, err := lookupSampler(req.Sampler)
	if err != nil {
		return nil, err
	}
	cv, err := buildControl(req)
	if err != nil {
		return nil, err
	}
	shards := PlanShards(req.Seed, req.Samples)[req.FirstShard:]
	accs := make([][]Accumulator, len(shards))
	RunShards(shards, func(s Shard) {
		accs[s.Index-req.FirstShard] = evalShard(ev, s, req.Dim, sp, cv)
	})
	merged := make([]Accumulator, req.Dim)
	for i := range accs {
		for j := 0; j < req.Dim; j++ {
			merged[j].Merge(accs[i][j])
		}
	}
	return merged, nil
}

// EvaluateShards evaluates the kernel over the given shard indices
// only, returning per-shard accumulators positionally (result[i]
// corresponds to indices[i]). Indices must be duplicate-free: a
// shard's random source is single-stream state, so evaluating the same
// index twice in one pool sweep would race on it. This is the worker
// server's entry point: the coordinator sends index batches and merges
// the states itself.
func EvaluateShards(req Request, indices []int) ([][]Accumulator, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	ev, err := buildEval(req.Kernel, req.Params, req.Dim)
	if err != nil {
		return nil, err
	}
	sp, err := lookupSampler(req.Sampler)
	if err != nil {
		return nil, err
	}
	cv, err := buildControl(req)
	if err != nil {
		return nil, err
	}
	shards := PlanShards(req.Seed, req.Samples)
	selected := make([]Shard, len(indices))
	position := make(map[int]int, len(indices))
	for i, idx := range indices {
		if idx < req.FirstShard || idx >= len(shards) {
			return nil, fmt.Errorf("montecarlo: shard index %d out of range [%d,%d)", idx, req.FirstShard, len(shards))
		}
		if _, dup := position[idx]; dup {
			return nil, fmt.Errorf("montecarlo: duplicate shard index %d", idx)
		}
		selected[i] = shards[idx]
		position[idx] = i
	}
	results := make([][]Accumulator, len(indices))
	RunShards(selected, func(s Shard) {
		results[position[s.Index]] = evalShard(ev, s, req.Dim, sp, cv)
	})
	return results, nil
}

// batchChunk is the number of samples evaluated per batch-kernel call:
// large enough to amortize the indirect call, small enough that the
// sample buffer (batchChunk × dim float64s) stays L1/L2-resident.
const batchChunk = 512

// evalShard evaluates one shard of a dim-component integrand exactly
// the way MeanVec does, so kernel-routed and closure-based estimations
// produce bit-identical accumulators. Under the plain sampler, kernels
// with a registered batch form are evaluated a chunk at a time into a
// preallocated flat buffer; rows are accumulated in sample order, so
// the two paths produce identical accumulators. Under any other
// sampler — or whenever a control-variate adjustment is attached —
// the per-sample form runs over the sampler's stream, with each group
// of Group() consecutive samples folded into one accumulator
// observation (their mean) — for antithetic pairs that is what lets
// the accumulator's standard error see the negative within-pair
// covariance instead of only the marginal variance.
func evalShard(ev kernelEval, s Shard, dim int, sp Sampler, cv *controlEval) []Accumulator {
	if _, plain := sp.(plainSampler); cv != nil || (!plain && sp != nil) {
		return evalShardSampled(ev, s, dim, sp, cv)
	}
	accs := make([]Accumulator, dim)
	defer addEvaluatedSamples(s.N)
	if ev.batch != nil {
		chunk := batchChunk
		if s.N < chunk {
			chunk = s.N
		}
		buf := make([]float64, chunk*dim)
		for done := 0; done < s.N; {
			n := chunk
			if rest := s.N - done; n > rest {
				n = rest
			}
			b := buf[:n*dim]
			for i := range b {
				b[i] = 0
			}
			ev.batch(s.Src, n, b)
			for i := 0; i < n; i++ {
				row := b[i*dim : (i+1)*dim]
				for j, v := range row {
					accs[j].Add(v)
				}
			}
			done += n
		}
		return accs
	}
	out := make([]float64, dim)
	for i := 0; i < s.N; i++ {
		for j := range out {
			out[j] = 0
		}
		ev.fn(s.Src, out)
		for j, v := range out {
			accs[j].Add(v)
		}
	}
	return accs
}

// evalShardSampled is the sampler-transformed shard evaluation: one
// stream per shard, one Next() per sample, groups averaged into the
// accumulators. The sample order, the group boundaries, and the
// accumulation order are all pure functions of (shard, sampler,
// control spec), so the result is bit-identical on any executor at
// any parallelism. A trailing partial group (only possible in a
// plan's partial last shard, since Group divides ShardSize) averages
// over the samples it has.
//
// With a control adjustment attached (cv non-nil), each sample's
// uniforms are recorded while the real kernel runs, replayed into the
// twin, and the sample adjusted to out_j − β_j·(twin_j − μ_j) before
// accumulation — so the accumulator states (and everything downstream:
// merge, wire, cache) are states of the adjusted variable.
func evalShardSampled(ev kernelEval, s Shard, dim int, sp Sampler, cv *controlEval) []Accumulator {
	accs := make([]Accumulator, dim)
	defer addEvaluatedSamples(s.N)
	stream := sp.Stream(s.N, s.Src)
	group := sp.Group()
	out := make([]float64, dim)
	sum := make([]float64, dim)
	var (
		rp   *replayPair
		cur  *rng.Source
		tout []float64
	)
	if cv != nil {
		rp = newReplayPair(func() *rng.Source { return cur })
		tout = make([]float64, dim)
	}
	for i := 0; i < s.N; {
		for j := range sum {
			sum[j] = 0
		}
		k := 0
		for ; k < group && i < s.N; k++ {
			src := stream.Next()
			for j := range out {
				out[j] = 0
			}
			if cv == nil {
				ev.fn(src, out)
			} else {
				cur = src
				rp.beginSample()
				ev.fn(rp.record, out)
				for j := range tout {
					tout[j] = 0
				}
				rp.beginReplay()
				cv.fn(rp.replay, tout)
				for j, b := range cv.beta {
					if b != 0 {
						out[j] -= b * (tout[j] - cv.mean[j])
					}
				}
			}
			for j, v := range out {
				sum[j] += v
			}
			i++
		}
		inv := 1 / float64(k)
		for j := range sum {
			accs[j].Add(sum[j] * inv)
		}
	}
	return accs
}

// ExecError is the panic value raised when a kernel-routed estimation
// fails (an unreachable worker fleet, an unregistered kernel, bad
// parameters). The core estimators keep plain value-returning
// signatures — error plumbing through every closed-form helper would
// obscure the math — so executor failures unwind as a typed panic that
// engine.Run recovers into an ordinary error.
type ExecError struct {
	Kernel string
	Err    error
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("montecarlo: kernel %q: %v", e.Kernel, e.Err)
}

func (e *ExecError) Unwrap() error { return e.Err }

// KernelMeanVec estimates the means of a registered vector-valued
// kernel through the installed executor, under the installed default
// sampler. Params must marshal to the JSON the kernel's factory
// expects. Results are bit-identical to MeanVec over the factory-built
// EvalFunc (for the plain sampler), at any executor.
func KernelMeanVec(kernel string, params any, seed uint64, n, dim int) []Estimate {
	raw, err := json.Marshal(params)
	if err != nil {
		panic(&ExecError{Kernel: kernel, Err: fmt.Errorf("marshal params: %w", err)})
	}
	req := Request{Kernel: kernel, Params: raw, Seed: seed, Samples: n, Dim: dim, Sampler: DefaultSampler()}
	accs, err := CurrentExecutor().EstimateVec(context.Background(), req)
	if err != nil {
		panic(&ExecError{Kernel: kernel, Err: err})
	}
	if len(accs) != dim {
		panic(&ExecError{Kernel: kernel, Err: fmt.Errorf("executor returned %d components, want %d", len(accs), dim)})
	}
	out := make([]Estimate, dim)
	for j := range accs {
		out[j] = accs[j].Estimate()
	}
	return out
}
