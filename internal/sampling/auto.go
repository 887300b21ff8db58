package sampling

// The variance-aware sampler auto-scheduler: `-sampler auto` stops
// asking the user to guess which variance-reduction strategy fits
// which kernel. "auto" is a virtual strategy — never registered,
// never on the wire — resolved by the AutoScheduler executor
// decorator: on first sight of each kernel it runs a cheap fixed-size
// pilot round under every candidate strategy, scores each by the
// samples it would need to reach a relative-error target, and
// rewrites every subsequent request for that kernel to the winner.
//
// The score is each candidate's expected per-point cost. Its raw form
// is target-independent — a strategy's cost to reach relative error t
// is (per-observation relative variance) × group ÷ t², so var_obs ×
// group ranks candidates for every target at once — but raw variance
// alone would crown a zero-variance candidate (cv on a σ = 0 lane)
// even when its fixed overheads cost more than a rival's entire run.
// So when the scheduler knows the convergence target it scores the
// full bill: the variance-implied sample count, floored at the
// smallest round the driver can issue, plus cv's per-point β pilot.
// Scores come from the same bit-identical accumulator machinery as
// real estimations (the pilots run through the base executor), so the
// choice — like everything else in the pipeline — is a pure function
// of (kernel, params, seed) and reproduces identically on any
// executor; ties break by fixed candidate order.
//
// Choices persist: with a table path configured, the per-kernel
// winners are written as JSON keyed by the cache's KeyEpoch, so a
// repeat run (same epoch) skips every pilot and goes straight to the
// winning strategy. An epoch bump — any change to evaluation
// semantics — invalidates the table exactly as it invalidates the
// cache.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"carriersense/internal/cache"
	"carriersense/internal/montecarlo"
)

// Auto is the virtual auto-scheduling strategy name. It is valid only
// as a CLI/engine-level choice; requests reaching shard evaluation
// always carry the resolved winner.
const Auto = "auto"

// AutoPilotShards is the per-candidate pilot budget in shards. Two
// shards give each candidate enough observations (≥ 32 even at the
// sobol block size) for a stable variance ranking while costing less
// than a single typical convergence round.
const AutoPilotShards = 2

// autoCandidates returns the candidate strategies for a kernel, in
// the fixed tie-break order: cheapest-machinery first, cv last and
// only when the kernel has a registered control twin (and the
// scheduler has a ControlVariates decorator to equip it).
func autoCandidates(kernel string, haveCV bool) []string {
	c := []string{Plain, Antithetic, Stratified, Sobol}
	if haveCV && montecarlo.HasControlTwin(kernel) {
		c = append(c, CV)
	}
	return c
}

// candidateGroup maps candidate names to their observation group
// sizes — the samples-per-observation factor of the score.
var candidateGroup = map[string]int{
	Plain:      1,
	Antithetic: 2,
	Stratified: StratifiedBlock,
	Sobol:      SobolBlock,
	CV:         1,
}

// AutoOptions configure an AutoScheduler.
type AutoOptions struct {
	// TablePath, when non-empty, persists the per-kernel choices as a
	// KeyEpoch-stamped JSON table so repeat runs skip the pilots.
	TablePath string
	// Target is the convergence driver's relative-error target, when
	// the scheduler runs inside a driven chain. With a target the
	// score is each candidate's expected per-point sample bill
	// (variance-implied count, round floor, cv pilot surcharge); with
	// 0 it falls back to the target-independent relative variance.
	Target float64
}

// PilotScore is one candidate's pilot result, kept for reporting.
type PilotScore struct {
	Sampler string  `json:"sampler"`
	Score   float64 `json:"score"` // expected per-point samples (or relative variance; lower is better)
}

// AutoScheduler is the auto-resolving executor decorator. It wraps
// the rest of the chain (the cv decorator and the convergence driver)
// so a driven point's rounds all run under one resolved strategy, and
// pilots go to the base executor directly — a pilot is a fixed-budget
// probe, not something to drive to convergence.
type AutoScheduler struct {
	inner montecarlo.Executor // full chain: handles the resolved request
	base  montecarlo.Executor // pilot path: no driving, no auto/cv rewriting
	cv    *ControlVariates    // equips the cv candidate; nil disables cv

	mu      sync.Mutex
	choices map[string]string       // kernel → winning sampler name ("plain" literal)
	scores  map[string][]PilotScore // kernel → pilot scoreboard
	spent   int
	table   string
	target  float64
}

// NewAuto builds an auto-scheduler over inner (the resolved-request
// chain) and base (the undecorated executor pilots probe through; nil
// = in-process). cv, when non-nil, is the chain's ControlVariates
// decorator — the scheduler borrows its memoized pilot so the cv
// candidate is scored with exactly the coefficients a cv win would
// run with. A configured choice table is loaded eagerly; a stale
// epoch discards it.
func NewAuto(inner, base montecarlo.Executor, cv *ControlVariates, opt AutoOptions) *AutoScheduler {
	if base == nil {
		base = localExecutor{}
	}
	a := &AutoScheduler{
		inner:   inner,
		base:    base,
		cv:      cv,
		choices: map[string]string{},
		scores:  map[string][]PilotScore{},
		table:   opt.TablePath,
		target:  opt.Target,
	}
	a.loadTable()
	return a
}

// choiceTable is the persisted form: choices are only valid for the
// evaluation semantics they were measured under, so the table carries
// the cache KeyEpoch and is discarded wholesale on mismatch.
type choiceTable struct {
	KeyEpoch int               `json:"key_epoch"`
	Choices  map[string]string `json:"choices"`
}

func (a *AutoScheduler) loadTable() {
	if a.table == "" {
		return
	}
	raw, err := os.ReadFile(a.table)
	if err != nil {
		return // absent or unreadable: start fresh
	}
	var t choiceTable
	if json.Unmarshal(raw, &t) != nil || t.KeyEpoch != cache.KeyEpoch {
		return
	}
	for kernel, name := range t.Choices {
		if _, ok := candidateGroup[name]; ok {
			a.choices[kernel] = name
		}
	}
}

// saveTable write-through-persists the current choices. Called with
// a.mu held.
func (a *AutoScheduler) saveTable() {
	if a.table == "" {
		return
	}
	t := choiceTable{KeyEpoch: cache.KeyEpoch, Choices: a.choices}
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return
	}
	if err := os.MkdirAll(filepath.Dir(a.table), 0o755); err != nil {
		return
	}
	tmp := a.table + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, a.table)
}

// expectedCost converts a candidate's raw relative variance into the
// per-point samples a driven estimation would spend reaching the
// target: the variance-implied count, plus the β pilot for cv —
// ControlFor keys on (kernel, params, seed), so every point pays its
// own pilot. The count is deliberately NOT floored at the driver's
// round sizes: the pilot sees one point's params, and flooring would
// let a lane's easiest point erase the variance ranking that governs
// its hardest ones. The variance term keeps the ranking honest
// everywhere; the surcharge keeps a zero-variance cv candidate from
// reading as free when a rival converges inside a cheaper probe. It
// prices the pilot's samples only: the pilot's exact twin means (one
// disc quadrature per point, most of its CPU) have no sample count.
func expectedCost(cand string, raw, target float64) float64 {
	n := raw / (target * target)
	if cand == CV {
		n += PilotSamples
	}
	return n
}

// score runs one candidate's pilot and returns its expected per-point
// cost (with a known target), or its raw relative samples-to-target —
// per-observation relative variance × group — without one. Lower is
// better.
func (a *AutoScheduler) score(ctx context.Context, req montecarlo.Request, cand string) (float64, error) {
	pr := req
	pr.Sampler = cand
	if cand == Plain {
		pr.Sampler = "" // canonical plain identity
	}
	pr.Samples = AutoPilotShards * montecarlo.ShardSize
	pr.FirstShard = 0
	pr.Control = nil
	if cand == CV && montecarlo.HasControlTwin(req.Kernel) {
		spec, err := a.cv.ControlFor(pr)
		if err != nil {
			return 0, err
		}
		pr.Control = spec
	}
	accs, err := a.base.EstimateVec(ctx, pr)
	if err != nil {
		return 0, fmt.Errorf("sampling: auto pilot %q/%s: %w", req.Kernel, cand, err)
	}
	a.spent += pr.Samples
	est := accs[0].Estimate()
	group := float64(candidateGroup[cand])
	if est.Mean == 0 {
		return math.Inf(1), nil
	}
	varObs := est.StdErr * est.StdErr * float64(est.N)
	raw := varObs * group / (est.Mean * est.Mean)
	if a.target > 0 {
		return expectedCost(cand, raw, a.target), nil
	}
	return raw, nil
}

// resolve returns the winning sampler name for a kernel, piloting the
// candidates on first sight. The pilot is serialized under the
// scheduler's lock — it runs once per kernel per process (or never,
// with a warm choice table).
func (a *AutoScheduler) resolve(ctx context.Context, req montecarlo.Request) (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if name, ok := a.choices[req.Kernel]; ok {
		return name, nil
	}
	best, bestScore := "", math.Inf(1)
	var board []PilotScore
	for _, cand := range autoCandidates(req.Kernel, a.cv != nil) {
		s, err := a.score(ctx, req, cand)
		if err != nil {
			return "", err
		}
		board = append(board, PilotScore{Sampler: cand, Score: s})
		if s < bestScore { // strict: ties keep the earlier candidate
			best, bestScore = cand, s
		}
	}
	if best == "" {
		best = Plain // every candidate scored +Inf (zero primary mean)
	}
	a.choices[req.Kernel] = best
	a.scores[req.Kernel] = board
	a.saveTable()
	return best, nil
}

// Choices returns the per-kernel winners resolved so far (including
// table-loaded ones), keyed by kernel name. Deterministic content —
// safe to embed in byte-compared artifacts.
func (a *AutoScheduler) Choices() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]string, len(a.choices))
	for k, v := range a.choices {
		out[k] = v
	}
	return out
}

// Scores returns each piloted kernel's scoreboard, candidates in
// tie-break order.
func (a *AutoScheduler) Scores() map[string][]PilotScore {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string][]PilotScore, len(a.scores))
	for k, v := range a.scores {
		out[k] = append([]PilotScore(nil), v...)
	}
	return out
}

// ChoiceLines renders the resolved choices as sorted "kernel=sampler"
// strings for logs and reports.
func (a *AutoScheduler) ChoiceLines() []string {
	choices := a.Choices()
	kernels := make([]string, 0, len(choices))
	for k := range choices {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	lines := make([]string, len(kernels))
	for i, k := range kernels {
		lines[i] = k + "=" + choices[k]
	}
	return lines
}

// PilotSpent returns the total samples the scheduler's pilots have
// evaluated (excluding the cv coefficient pilot, which
// ControlVariates accounts for).
func (a *AutoScheduler) PilotSpent() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// EstimateVec implements montecarlo.Executor: auto requests are
// rewritten to their kernel's resolved strategy; everything else
// passes through.
func (a *AutoScheduler) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	if req.Sampler != Auto {
		return a.inner.EstimateVec(ctx, req)
	}
	name, err := a.resolve(ctx, req)
	if err != nil {
		return nil, err
	}
	if name == Plain {
		name = "" // canonical plain identity
	}
	req.Sampler = name
	return a.inner.EstimateVec(ctx, req)
}
