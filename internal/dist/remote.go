package dist

// The coordinator side: Remote schedules a request's shard plan across
// the worker fleet. Scheduling is pull-based — each worker drains a
// shared pending queue in batches — so fast workers naturally take
// more shards, and a dead worker's unfinished shards flow back into
// the queue for the survivors. None of this affects results: shard
// accumulators are stored by index and merged in shard order once
// every shard has been evaluated somewhere.
//
// The transport is the binary shard stream (frame.go/stream.go): one
// persistent upgraded connection per worker carrying the estimation
// identity once and then pipelined batch/result frames, so the worker
// always has the next batch in its socket buffer while evaluating the
// current one and never starves on a round trip. A worker that refuses
// the upgrade, or whose hello carries another protocol version, is
// abandoned with its cause named.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"carriersense/internal/montecarlo"
	"carriersense/internal/obs"
)

// Remote tuning defaults.
const (
	// DefaultBatchSize is the number of shards per worker request —
	// large enough to amortize the per-batch round trip (a shard is
	// 4096 samples), small enough that failover loses little work.
	DefaultBatchSize = 8
	// DefaultConcurrency is the pipeline depth per worker: unanswered
	// batch frames on its stream, covering transport latency while the
	// worker computes.
	DefaultConcurrency = 2
	// DefaultHostFailLimit is the number of consecutive transport
	// failures after which a worker is declared dead and abandoned.
	DefaultHostFailLimit = 3
	// maxIdleStreams bounds the per-worker pool of idle binary
	// streams kept across estimations.
	maxIdleStreams = 4
	// dialTimeout bounds connection establishment to a worker; dead
	// hosts are detected here, never by capping how long a legitimate
	// shard batch may compute.
	dialTimeout = 10 * time.Second
	// DefaultReadmitBase is the readmission probe loop's base delay
	// when ReadmitBase is zero: the first /healthz probe of a dead
	// worker fires about this long after abandonment, doubling (with
	// jitter) per failed probe up to readmitMaxBackoff.
	DefaultReadmitBase = 500 * time.Millisecond
	// ReadmitOff disables dead-worker readmission (RemoteOptions
	// .ReadmitBase): abandoned workers stay abandoned for the
	// Remote's lifetime, the pre-readmission behavior.
	ReadmitOff = time.Duration(-1)
	// readmitMaxBackoff caps the probe interval so a worker that
	// comes back after a long outage is still noticed within ~30s.
	readmitMaxBackoff = 30 * time.Second
	// probeTimeout bounds one /healthz probe round trip.
	probeTimeout = 5 * time.Second
	// dialRetryBase paces a live worker's consecutive transport
	// failures: ~dialRetryBase after the first failure, doubling with
	// jitter up to dialRetryMax, so a restarting fleet sees staggered
	// reconnects instead of a synchronized stampede from every
	// coordinator loop.
	dialRetryBase = 50 * time.Millisecond
	dialRetryMax  = 2 * time.Second
	// Hedging thresholds: a batch is re-dispatched speculatively once
	// it has been in flight hedgeFactor times longer than the fastest
	// worker's HedgeQuantile batch latency (floored at hedgeDelayMin;
	// no hedging until some worker has hedgeMinObservations batches).
	hedgeFactor          = 2.0
	hedgeDelayMin        = 25 * time.Millisecond
	hedgeMinObservations = 8
	// maxHedgesPerShard bounds speculative duplicates of one shard so
	// a pathologically slow fleet cannot ping-pong a batch forever.
	maxHedgesPerShard = 2
	// loopDrainGrace is how long a successful run waits for its host
	// goroutines to exit on their own before severing them. Healthy
	// loops park their streams in microseconds; the grace is only ever
	// paid when a hedge completed the run around a worker still wedged
	// in a request that nothing but a cancel will unblock.
	loopDrainGrace = 50 * time.Millisecond
)

// Wire once selected the shard transport.
//
// Deprecated: the binary shard stream is the only transport, so there
// is nothing to select. Wire and WireBinary remain only so existing
// callers of RemoteOptions.Wire still compile.
type Wire int

// WireBinary names the binary shard stream.
//
// Deprecated: see Wire.
const WireBinary Wire = 2

// RemoteOptions tune a Remote executor. The zero value of every field
// selects a default.
type RemoteOptions struct {
	BatchSize int // shards per batch frame (default DefaultBatchSize)
	// MaxAttempts is the per-shard attempt budget across the whole
	// fleet before the run fails. 0 scales with the fleet:
	// (HostFailLimit+Concurrency)·workers + 1, so a shard can survive
	// every worker dying around it and still get a clean attempt.
	MaxAttempts   int
	Concurrency   int // pipeline depth per worker (default DefaultConcurrency)
	HostFailLimit int // consecutive failures before a worker is dead (default DefaultHostFailLimit)
	// Wire is ignored.
	//
	// Deprecated: the binary shard stream is the only transport; see
	// Wire.
	Wire Wire
	// ShardTimeout, when > 0, bounds how long a dispatched shard batch
	// may stay unanswered before it is re-dispatched to another worker
	// (the original worker is charged a transport failure). 0 leaves
	// batches un-deadlined: a batch legitimately takes as long as its
	// kernel does, and `-scale full` sim replications run for tens of
	// seconds. Set it generously on fleets where a wedged worker must
	// not stall a run — re-dispatch cannot corrupt results, because
	// duplicate shard completions merge idempotently (first one wins).
	ShardTimeout time.Duration
	// ReadmitBase paces dead-worker readmission: an abandoned worker
	// gets a background /healthz probe loop with exponential backoff
	// and jitter starting from this base. A probe that answers 200
	// moves the worker to a half-open state that admits one trial
	// batch; the trial's success restores the worker, its failure
	// re-kills it with a longer backoff. 0 selects
	// DefaultReadmitBase; ReadmitOff (negative) disables readmission.
	ReadmitBase time.Duration
	// HedgeQuantile, when in (0, 1), arms hedged dispatch: a batch in
	// flight longer than hedgeFactor x the fastest worker's
	// HedgeQuantile batch latency (from the cs_dist_batch_seconds
	// histograms) is speculatively re-dispatched to an idle worker,
	// and the first result wins (completions are idempotent, so the
	// duplicate is bit-identical and harmless). 0 disables hedging.
	HedgeQuantile float64
}

// Remote is an Executor that distributes shard evaluation over a fleet
// of `cs serve` workers. Safe for concurrent use. Worker health
// persists across estimations: a worker declared dead is probed for
// readmission in the background (unless ReadmitOff) and rejoins even
// mid-estimation. Streams are pooled per worker, so consecutive
// estimations reuse connections instead of re-handshaking.
type Remote struct {
	hosts []*hostState
	opt   RemoteOptions

	mu     sync.Mutex
	active map[*dispatch]*runState // in-flight estimations readmitted workers can join

	closed    chan struct{} // stops probe loops (Close)
	closeOnce sync.Once
}

// runState is what a readmitted worker needs to join an in-flight
// estimation: its context and request identity.
type runState struct {
	ctx context.Context
	req montecarlo.Request
}

// Close stops the background readmission probes. Estimations in
// flight are unaffected; the Remote remains usable, but dead workers
// are no longer probed. Safe to call more than once.
func (r *Remote) Close() {
	r.closeOnce.Do(func() { close(r.closed) })
}

// NewRemote builds a Remote executor over the given host:port workers
// (as accepted by ParseWorkerList).
func NewRemote(hosts []string, opts ...RemoteOptions) (*Remote, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("dist: no workers given")
	}
	var opt RemoteOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	if opt.BatchSize <= 0 {
		opt.BatchSize = DefaultBatchSize
	}
	if opt.Concurrency <= 0 {
		opt.Concurrency = DefaultConcurrency
	}
	if opt.HostFailLimit <= 0 {
		opt.HostFailLimit = DefaultHostFailLimit
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = (opt.HostFailLimit+opt.Concurrency)*len(hosts) + 1
	}
	if opt.ReadmitBase == 0 {
		opt.ReadmitBase = DefaultReadmitBase
	}
	if opt.HedgeQuantile < 0 || opt.HedgeQuantile >= 1 {
		return nil, fmt.Errorf("dist: hedge quantile must be in [0, 1), got %g", opt.HedgeQuantile)
	}
	r := &Remote{opt: opt, active: map[*dispatch]*runState{}, closed: make(chan struct{})}
	for i, h := range hosts {
		if h == "" {
			return nil, fmt.Errorf("dist: empty worker address")
		}
		if !strings.Contains(h, "://") {
			h = "http://" + h
		}
		url := strings.TrimRight(h, "/")
		r.hosts = append(r.hosts, &hostState{
			url:          url,
			tid:          obs.TidRemoteBase + i,
			batchSeconds: batchSecondsFor(url),
		})
	}
	return r, nil
}

// Workers returns the configured worker base URLs.
func (r *Remote) Workers() []string {
	out := make([]string, len(r.hosts))
	for i, h := range r.hosts {
		out[i] = h.url
	}
	return out
}

// ParseWorkerList validates a comma-separated host:port list (the
// `-workers` flag) and returns the cleaned entries. Every entry must
// be host:port with a numeric port in [1, 65535].
func ParseWorkerList(spec string) ([]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("dist: empty worker list")
	}
	var hosts []string
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("dist: empty entry in worker list %q", spec)
		}
		host, port, err := net.SplitHostPort(entry)
		if err != nil {
			return nil, fmt.Errorf("dist: bad worker %q (want host:port): %v", entry, err)
		}
		if host == "" {
			return nil, fmt.Errorf("dist: bad worker %q: missing host", entry)
		}
		p, err := strconv.Atoi(port)
		if err != nil || p < 1 || p > 65535 {
			return nil, fmt.Errorf("dist: bad worker %q: port must be 1-65535", entry)
		}
		hosts = append(hosts, entry)
	}
	return hosts, nil
}

// dispatch is the shared scheduling state of one EstimateVec call.
type dispatch struct {
	mu        sync.Mutex
	cond      *sync.Cond
	pending   []int                      // shard indices awaiting (re-)dispatch
	attempts  []int                      // per-shard attempt counts
	results   [][]montecarlo.Accumulator // per-shard per-component states
	remaining int                        // shards not yet completed
	loops     int                        // host goroutines still running
	err       error                      // first fatal error; ends the run

	// Failure forensics: the latest cause per worker, bounded, so the
	// terminal error names every distinct worker that contributed to
	// the run's death instead of only the last one.
	causes     map[string]string
	causeOrder []string

	// Hedging (nil hedgeDelay = off): outstanding batches by shard
	// index, so an idle worker can speculatively duplicate the oldest
	// overdue batch of a slower peer.
	hedgeDelay func() time.Duration // current threshold; <= 0 = not enough data yet
	inflight   map[int]*flight
	hedges     map[int]int // per-shard speculative duplicates issued
	hedgeTimer *time.Timer // wakes waiters when the oldest flight ripens
}

// flight is one outstanding batch dispatch.
type flight struct {
	indices []int
	worker  string
	sent    time.Time
	hedged  bool // already duplicated once; per-shard hedges cap the rest
}

// newDispatch prepares the queue for shards [first, count) — the
// request's planned range (first > 0 for the convergence driver's
// delta requests). The bookkeeping arrays stay plan-indexed so shard
// indices never need translating.
func newDispatch(first, count, loops int, hedgeDelay func() time.Duration) *dispatch {
	d := &dispatch{
		pending:   make([]int, count-first),
		attempts:  make([]int, count),
		results:   make([][]montecarlo.Accumulator, count),
		remaining: count - first,
		loops:     loops,
		causes:    map[string]string{},
	}
	if hedgeDelay != nil {
		d.hedgeDelay = hedgeDelay
		d.inflight = map[int]*flight{}
		d.hedges = map[int]int{}
	}
	for i := range d.pending {
		d.pending[i] = first + i
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// next blocks until a batch of work is available and claims it, or
// returns nil when the run is over (all shards done or fatal error).
// With hedging armed, an empty queue can still yield work: a copy of
// another worker's overdue in-flight batch.
func (d *dispatch) next(batch int, worker string) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.remaining == 0 || d.err != nil {
			return nil
		}
		if len(d.pending) > 0 {
			n := batch
			if n > len(d.pending) {
				n = len(d.pending)
			}
			claimed := append([]int(nil), d.pending[:n]...)
			d.pending = d.pending[n:]
			return claimed
		}
		if hedged, ripeIn := d.hedgeClaimLocked(worker); hedged != nil {
			return hedged
		} else if ripeIn > 0 {
			d.armHedgeTimerLocked(ripeIn)
		}
		d.cond.Wait()
	}
}

// hedgeClaimLocked looks for the oldest overdue un-hedged batch from
// another worker and claims a copy of its incomplete shards. When the
// oldest candidate has not ripened yet it returns how long until it
// does, so the caller can arm a wake-up instead of sleeping forever.
func (d *dispatch) hedgeClaimLocked(worker string) (indices []int, ripeIn time.Duration) {
	if d.hedgeDelay == nil || len(d.inflight) == 0 {
		return nil, 0
	}
	threshold := d.hedgeDelay()
	if threshold <= 0 {
		return nil, 0
	}
	var oldest *flight
	for _, f := range d.inflight {
		if f.hedged || f.worker == worker {
			continue
		}
		if oldest == nil || f.sent.Before(oldest.sent) {
			oldest = f
		}
	}
	if oldest == nil {
		return nil, 0
	}
	if age := time.Since(oldest.sent); age < threshold {
		return nil, threshold - age
	}
	oldest.hedged = true
	for _, idx := range oldest.indices {
		if d.results[idx] == nil && d.hedges[idx] < maxHedgesPerShard {
			d.hedges[idx]++
			indices = append(indices, idx)
		}
	}
	if len(indices) == 0 {
		return nil, 0
	}
	mHedges.Inc()
	return indices, 0
}

// armHedgeTimerLocked schedules a broadcast for when the oldest
// in-flight batch becomes hedgeable. Later re-arms just reset it; a
// stale firing is a harmless spurious wake.
func (d *dispatch) armHedgeTimerLocked(in time.Duration) {
	if d.hedgeTimer == nil {
		d.hedgeTimer = time.AfterFunc(in, func() {
			d.mu.Lock()
			d.cond.Broadcast()
			d.mu.Unlock()
		})
		return
	}
	d.hedgeTimer.Reset(in)
}

// markInflight registers a dispatched batch for hedging. No-op unless
// hedging is armed. Called after the batch is claimed and definitely
// going out on the wire (after the stream's push).
func (d *dispatch) markInflight(indices []int, worker string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hedgeDelay == nil {
		return
	}
	f := &flight{indices: indices, worker: worker, sent: time.Now()}
	for _, idx := range indices {
		if d.results[idx] == nil {
			d.inflight[idx] = f
		}
	}
	// A parked idle worker may now have a future hedge candidate.
	d.cond.Broadcast()
}

// clearInflightLocked drops flight tracking for shards that are no
// longer outstanding (completed, requeued, or unclaimed).
func (d *dispatch) clearInflightLocked(indices []int) {
	if d.inflight == nil {
		return
	}
	for _, idx := range indices {
		delete(d.inflight, idx)
	}
}

// recordCauseLocked notes one worker's latest failure for the
// terminal diagnostic, bounded so a huge flapping fleet cannot bloat
// the error message.
const maxCauseWorkers = 8

func (d *dispatch) recordCauseLocked(worker string, cause error) {
	if worker == "" || cause == nil {
		return
	}
	if _, seen := d.causes[worker]; !seen {
		if len(d.causeOrder) >= maxCauseWorkers {
			return
		}
		d.causeOrder = append(d.causeOrder, worker)
	}
	d.causes[worker] = cause.Error()
}

// causeSummaryLocked renders every distinct worker's latest failure,
// prefixing the worker URL when the cause does not already name it.
func (d *dispatch) causeSummaryLocked() string {
	if len(d.causeOrder) == 0 {
		return "no worker failures recorded"
	}
	parts := make([]string, len(d.causeOrder))
	for i, w := range d.causeOrder {
		cause := d.causes[w]
		if !strings.Contains(cause, w) {
			cause = w + ": " + cause
		}
		parts[i] = cause
	}
	return strings.Join(parts, "; ")
}

// complete records evaluated shards. Duplicate completions — a shard
// re-dispatched after a timeout whose original worker answers late —
// are ignored: the first evaluation wins, and both evaluations are
// bit-identical anyway (the shard stream is a pure function of the
// plan).
func (d *dispatch) complete(indices []int, accs [][]montecarlo.Accumulator) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clearInflightLocked(indices)
	for i, idx := range indices {
		if d.results[idx] == nil {
			d.results[idx] = accs[i]
			d.remaining--
		}
	}
	d.cond.Broadcast()
}

// requeue returns a failed batch to the queue, charging one attempt
// per shard. A shard that exhausts its budget fails the whole run,
// with a diagnostic naming every distinct worker failure seen — an
// all-fleet death is diagnosable from the one message.
func (d *dispatch) requeue(indices []int, maxAttempts int, worker string, cause error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordCauseLocked(worker, cause)
	if d.err != nil {
		return
	}
	d.clearInflightLocked(indices)
	for _, idx := range indices {
		if d.results[idx] != nil {
			continue
		}
		d.attempts[idx]++
		if d.attempts[idx] >= maxAttempts {
			d.err = fmt.Errorf("dist: shard %d failed after %d attempts; worker failures: %s",
				idx, d.attempts[idx], d.causeSummaryLocked())
			break
		}
		d.pending = append(d.pending, idx)
		mRequeues.Inc()
	}
	d.cond.Broadcast()
}

// unclaim returns a claimed-but-never-dispatched batch to the queue
// without charging attempts (a stream whose request frame failed, or
// whose reader stopped before the batch went out).
func (d *dispatch) unclaim(indices []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clearInflightLocked(indices)
	for _, idx := range indices {
		if d.results[idx] == nil {
			d.pending = append(d.pending, idx)
		}
	}
	d.cond.Broadcast()
}

// addLoop admits a late host goroutine — a readmitted worker joining
// an estimation already in flight. It fails (and the caller must not
// start the loop) once the run has completed or errored, so joins can
// race run teardown safely.
func (d *dispatch) addLoop() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.remaining == 0 || d.err != nil {
		return false
	}
	d.loops++
	return true
}

// loopExited records a host goroutine leaving the run, for whatever
// reason — its host died (possibly declared dead by a concurrent
// estimation sharing the same Remote), the queue drained, or a fatal
// error. The run fails when the last goroutine leaves with shards
// still outstanding; counting goroutines rather than hosts means no
// exit path can strand wait() without a verdict.
func (d *dispatch) loopExited(host string, cause error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordCauseLocked(host, cause)
	d.loops--
	if d.loops <= 0 && d.remaining > 0 && d.err == nil {
		d.err = fmt.Errorf("dist: all workers failed; %s", d.causeSummaryLocked())
	}
	d.cond.Broadcast()
}

// waitLoops blocks until every host goroutine (including late
// readmission joins) has exited, then retires the hedge timer.
func (d *dispatch) waitLoops() {
	d.mu.Lock()
	for d.loops > 0 {
		d.cond.Wait()
	}
	if d.hedgeTimer != nil {
		d.hedgeTimer.Stop()
	}
	d.mu.Unlock()
}

// fail records a fatal error (context cancellation) that retrying
// elsewhere cannot cure.
func (d *dispatch) fail(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err == nil {
		d.err = err
	}
	d.cond.Broadcast()
}

// wait blocks until the run completes or fails.
func (d *dispatch) wait() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.remaining > 0 && d.err == nil {
		d.cond.Wait()
	}
	return d.err
}

// EstimateVec implements Executor: it schedules the request's shard
// plan across the fleet, survives worker deaths as long as one worker
// remains, and merges the returned accumulator states in shard order.
func (r *Remote) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// Workers alive (or half-open, probing their way back) from
	// earlier estimations join this one; fully dead workers join later
	// if their readmission probe succeeds mid-run.
	var live []*hostState
	for _, h := range r.hosts {
		h.mu.Lock()
		if h.health != hostDead {
			live = append(live, h)
		}
		h.mu.Unlock()
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("dist: all %d workers are dead", len(r.hosts))
	}
	count := montecarlo.ShardCount(req.Samples)
	d := newDispatch(req.FirstShard, count, len(live), r.hedgeDelayFn())

	// Cancel in-flight requests the moment the run completes or fails.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(ctx, func() { d.fail(ctx.Err()) })
	defer stop()

	// Register before starting loops so a worker readmitted during the
	// run can join it (joinActive); unregister before returning.
	r.mu.Lock()
	r.active[d] = &runState{ctx: ctx, req: req}
	r.mu.Unlock()

	for _, h := range live {
		h := h
		go r.hostLoop(ctx, h, req, d)
	}

	err := d.wait()
	if err != nil {
		cancel() // release any host goroutine blocked on a slow request
	}
	r.mu.Lock()
	delete(r.active, d)
	r.mu.Unlock()
	// On success the loops drain on their own (the queue is empty), and
	// not canceling yet lets readers park their streams in the pool —
	// canceling immediately would race the pool release and close
	// reusable connections. But a run completed by a hedge may leave
	// the hedged-around worker wedged in a request only a cancel can
	// unblock, so the patience is bounded: past loopDrainGrace, sever.
	// Late readmission joins either made it into d.loops (waitLoops
	// covers them) or failed addLoop and never started.
	loopsDone := make(chan struct{})
	go func() { d.waitLoops(); close(loopsDone) }()
	select {
	case <-loopsDone:
	case <-time.After(loopDrainGrace):
		cancel()
		<-loopsDone
	}
	if err != nil {
		return nil, err
	}
	merged := make([]montecarlo.Accumulator, req.Dim)
	for idx := req.FirstShard; idx < count; idx++ {
		for j := 0; j < req.Dim; j++ {
			merged[j].Merge(d.results[idx][j])
		}
	}
	// Credit the fleet's work to this process's throughput counter so
	// the CLI's samples/sec report covers distributed runs.
	montecarlo.AddEvaluatedSamples(req.SampleSpan())
	return merged, nil
}

// hostHealth is a worker's circuit-breaker state.
type hostHealth int

const (
	// hostAlive: serving normally.
	hostAlive hostHealth = iota
	// hostDead: abandoned after HostFailLimit consecutive failures;
	// loops for this host exit, and (unless ReadmitOff) a background
	// probe loop works on bringing it back.
	hostDead
	// hostHalfOpen: a readmission probe saw a healthy /healthz; the
	// worker is admitted back for a trial. Its first success restores
	// it to hostAlive, its first failure re-kills it with a longer
	// probe backoff — the classic half-open circuit breaker.
	hostHalfOpen
)

// hostState is the shared health of one worker across estimations.
// Death is not permanent: the readmission loop may heal it.
type hostState struct {
	url          string
	tid          int            // tracer lane (obs.TidRemoteBase + fleet position)
	batchSeconds *obs.Histogram // dispatch→result latency for this worker
	mu           sync.Mutex
	failures     int // consecutive transport failures
	health       hostHealth
	probing      bool          // a probe loop goroutine is live for this host
	probeRound   int           // failed probe cycles since last healthy (backoff exponent)
	idle         []*streamConn // pooled streams, reused across estimations
}

// markDead declares the host unusable, closes its pooled streams, and
// (unless readmission is off) starts its background probe loop.
func (r *Remote) markDead(h *hostState) {
	h.mu.Lock()
	was := h.health == hostDead
	h.health = hostDead
	idle := h.idle
	h.idle = nil
	startProbe := !was && !h.probing && r.opt.ReadmitBase > 0
	if startProbe {
		h.probing = true
	}
	h.mu.Unlock()
	for _, sc := range idle {
		sc.close()
	}
	if !was {
		mWorkersAbandoned.Inc()
		if tr := obs.CurrentTracer(); tr != nil {
			tr.Instant("worker_abandoned", "dist", h.tid, map[string]any{"worker": h.url})
		}
	}
	if startProbe {
		go r.probeLoop(h)
	}
}

// observeBatch records one completed batch's dispatch→result latency
// on the worker's histogram and, when tracing, a span on its lane.
func (h *hostState) observeBatch(sent time.Time, shards int) {
	elapsed := time.Since(sent)
	h.batchSeconds.Observe(elapsed.Seconds())
	mBatchesBinary.Inc()
	if tr := obs.CurrentTracer(); tr != nil {
		tr.NameThread(h.tid, "worker "+h.url)
		start := tr.Now() - elapsed
		if start < 0 {
			start = 0
		}
		tr.Span("batch", "dist", h.tid, start,
			map[string]any{"shards": shards, "worker": h.url})
	}
}

// countFailure charges one consecutive transport failure and reports
// whether the host is now (or already was) dead. A half-open host
// dies of its first failure: the trial batch was the test, and it
// failed — back to probing, with a longer backoff.
func (r *Remote) countFailure(h *hostState) (dead bool) {
	h.mu.Lock()
	h.failures++
	switch {
	case h.health == hostDead:
		h.mu.Unlock()
		return true
	case h.health == hostHalfOpen:
		h.probeRound++
		h.mu.Unlock()
		r.markDead(h)
		return true
	case h.failures >= r.opt.HostFailLimit:
		h.mu.Unlock()
		r.markDead(h)
		return true
	}
	h.mu.Unlock()
	return false
}

// retryDelay returns the jittered backoff before this host's next
// attempt after `failures` consecutive transport failures — the
// dial-retry pacing that keeps a restarted fleet from eating a
// synchronized reconnect stampede.
func (h *hostState) retryDelay() time.Duration {
	h.mu.Lock()
	n := h.failures
	h.mu.Unlock()
	if n <= 0 {
		return 0
	}
	return jitteredBackoff(dialRetryBase, n-1, dialRetryMax)
}

// noteSuccess resets the consecutive-failure counter and, when the
// success was a half-open worker's trial batch, restores the worker
// to full fleet membership.
func (h *hostState) noteSuccess() {
	h.mu.Lock()
	h.failures = 0
	readmitted := h.health == hostHalfOpen
	if readmitted {
		h.health = hostAlive
		h.probeRound = 0
	}
	h.mu.Unlock()
	if readmitted {
		mWorkersReadmitted.Inc()
		if tr := obs.CurrentTracer(); tr != nil {
			tr.Instant("worker_readmitted", "dist", h.tid, map[string]any{"worker": h.url})
		}
	}
}

// acquireStream pops a pooled stream or dials a fresh one.
func (r *Remote) acquireStream(ctx context.Context, h *hostState) (*streamConn, error) {
	h.mu.Lock()
	if n := len(h.idle); n > 0 {
		sc := h.idle[n-1]
		h.idle = h.idle[:n-1]
		h.mu.Unlock()
		return sc, nil
	}
	h.mu.Unlock()
	return dialStream(ctx, h.url, dialTimeout)
}

// releaseStream returns a healthy stream to the host's pool.
func (r *Remote) releaseStream(h *hostState, sc *streamConn) {
	sc.conn.SetReadDeadline(time.Time{})
	h.mu.Lock()
	if h.health != hostDead && len(h.idle) < maxIdleStreams {
		h.idle = append(h.idle, sc)
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	sc.close()
}

// fatalStatusError marks a worker answer that retrying on the same
// worker cannot cure: it refused the stream upgrade, spoke another
// protocol version, or understood a batch and rejected it. The worker
// is abandoned and the rest of the fleet takes over.
type fatalStatusError struct{ msg string }

func (e *fatalStatusError) Error() string { return e.msg }

// hostLoop drives one worker for the duration of one estimation: pump
// batches through its stream until the plan drains or the host dies.
// Stream establishment happens after claiming a batch, so a dead host
// burns shard attempts (bounded by MaxAttempts) rather than spinning
// on dials.
func (r *Remote) hostLoop(ctx context.Context, h *hostState, req montecarlo.Request, d *dispatch) {
	var lastErr error
	defer func() { d.loopExited(h.url, lastErr) }()
	for {
		h.mu.Lock()
		dead := h.health == hostDead
		h.mu.Unlock()
		if dead {
			if lastErr == nil {
				lastErr = fmt.Errorf("worker declared dead")
			}
			return
		}
		batch := d.next(r.opt.BatchSize, h.url)
		if batch == nil {
			return
		}
		sc, err := r.acquireStream(ctx, h)
		if err != nil {
			lastErr = err
			d.requeue(batch, r.opt.MaxAttempts, h.url, fmt.Errorf("worker %s: %w", h.url, err))
			if errors.As(err, new(*fatalStatusError)) {
				r.markDead(h)
				return
			}
			if r.countFailure(h) {
				return
			}
			sleepCtx(ctx, h.retryDelay())
			continue
		}
		err = r.runStream(ctx, h, sc, req, d, batch)
		if err == nil {
			return // plan drained through this stream
		}
		lastErr = err
		var fatal *fatalStatusError
		if errors.As(err, &fatal) {
			// The worker understood the batch and rejected it (unknown
			// kernel, version skew): abandon it, let the fleet retry.
			r.markDead(h)
			return
		}
		if r.countFailure(h) {
			return
		}
		sleepCtx(ctx, h.retryDelay())
	}
}

// sleepCtx sleeps for d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// streamRun is the shared state between a stream's writer goroutine
// (claims batches, sends frames) and its reader (matches result
// frames FIFO, completes shards). Pipelining lives here: up to
// `window` batches may be pushed-and-sent before the first result is
// read, so the worker's socket always holds the next batch. The writer
// claims a batch only once the window has room for it, so every batch
// off the shared queue is either on the wire (where hedging and
// requeues can see it) or about to be; none waits, claimed but unsent,
// behind a wedged one.
type streamRun struct {
	mu         sync.Mutex
	cond       *sync.Cond
	conn       net.Conn      // reader wake-up line (deadline pokes)
	timeout    time.Duration // ShardTimeout; 0 disables deadlines
	fifo       []streamBatch
	writerDone bool
	writerErr  error
	stopped    bool // reader gave up; writer must unclaim, not send
}

type streamBatch struct {
	indices []int
	sent    time.Time
}

func newStreamRun(conn net.Conn, timeout time.Duration) *streamRun {
	st := &streamRun{conn: conn, timeout: timeout}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// waitRoom blocks until the pipeline has room for another batch.
// Returns false when the reader has stopped.
func (st *streamRun) waitRoom(window int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.fifo) >= window && !st.stopped {
		st.cond.Wait()
	}
	return !st.stopped
}

// push registers a batch as in-flight. The registration happens before
// the frame is written, so a result can never arrive for a batch the
// reader does not know about. Returns false when the reader has
// stopped.
func (st *streamRun) push(b []int) bool {
	st.mu.Lock()
	if st.stopped {
		st.mu.Unlock()
		return false
	}
	wasIdle := len(st.fifo) == 0
	st.fifo = append(st.fifo, streamBatch{indices: b, sent: time.Now()})
	st.mu.Unlock()
	if wasIdle && st.timeout > 0 {
		// The reader may have armed a no-deadline read while the FIFO
		// was empty; poke it so it re-arms against this batch's
		// ShardTimeout. A spurious wake is classified as not-expired
		// and re-armed — cheap, and only paid on idle→busy edges.
		_ = st.conn.SetReadDeadline(time.Now())
	}
	return true
}

// peek returns the oldest in-flight batch without removing it — a
// result frame is matched against it, but the batch only leaves the
// FIFO once the frame decodes (a corrupt frame must leave the batch
// in flight so the abort path requeues it).
func (st *streamRun) peek() (streamBatch, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.fifo) == 0 {
		return streamBatch{}, false
	}
	return st.fifo[0], true
}

// popFront removes the oldest in-flight batch after its result frame
// decoded cleanly.
func (st *streamRun) popFront() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.fifo) > 0 {
		st.fifo = st.fifo[1:]
	}
	st.cond.Broadcast()
}

// drainInflight empties the FIFO and stops the writer; the caller
// requeues the returned indices.
func (st *streamRun) drainInflight() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	var all []int
	for _, b := range st.fifo {
		all = append(all, b.indices...)
	}
	st.fifo = nil
	st.stopped = true
	st.cond.Broadcast()
	return all
}

// finishWriter records the writer's exit and wakes the reader if it
// is blocked waiting for frames that will never come.
func (st *streamRun) finishWriter(err error, wake net.Conn) {
	st.mu.Lock()
	st.writerDone = true
	st.writerErr = err
	st.mu.Unlock()
	// A reader blocked in a deadline-free read learns nothing from the
	// flag alone; fire its deadline so it re-checks. The reader sets
	// its own deadline under st.mu, so this cannot be overwritten by a
	// stale value (see runStream's reader loop).
	_ = wake.SetReadDeadline(time.Now())
}

// runStream pumps one estimation through one stream: the
// request identity once, then pipelined batches. Returns nil when the
// dispatch queue drained (the stream goes back to the pool), or an
// error after requeueing everything still in flight.
func (r *Remote) runStream(ctx context.Context, h *hostState, sc *streamConn, req montecarlo.Request, d *dispatch, first []int) error {
	// A canceled run must not leave the reader blocked on a worker
	// that is still computing: closing the conn is the wake-up. The
	// AfterFunc is stopped before the stream can re-enter the pool.
	stopWake := context.AfterFunc(ctx, func() { sc.conn.Close() })

	st := newStreamRun(sc.conn, r.opt.ShardTimeout)
	reqID, err := sc.sendRequest(req)
	if err != nil {
		stopWake()
		sc.close()
		d.unclaim(first)
		return fmt.Errorf("worker %s: send request: %w", h.url, err)
	}

	go func() { // writer: wait for room → claim → register in-flight → send
		batch := first
		for {
			if !st.push(batch) {
				d.unclaim(batch) // reader stopped before this went out
				st.finishWriter(nil, sc.conn)
				return
			}
			d.markInflight(batch, h.url) // hedging sees it once it is going out
			if err := sc.sendBatch(reqID, batch); err != nil {
				st.finishWriter(fmt.Errorf("worker %s: send batch: %w", h.url, err), sc.conn)
				return
			}
			if !st.waitRoom(r.opt.Concurrency) {
				st.finishWriter(nil, sc.conn)
				return
			}
			batch = d.next(r.opt.BatchSize, h.url)
			if batch == nil {
				st.finishWriter(nil, sc.conn)
				return
			}
		}
	}()

	// abort requeues everything in flight and reports err. The writer
	// is unblocked by drainInflight (waitRoom and push observe
	// stopped) and, if mid-write, by the conn close.
	abort := func(cause error) error {
		inflight := st.drainInflight()
		stopWake()
		sc.close()
		if len(inflight) > 0 {
			d.requeue(inflight, r.opt.MaxAttempts, h.url, cause)
		}
		return cause
	}

	for { // reader: match result frames FIFO, complete shards
		st.mu.Lock()
		if st.writerDone && st.writerErr != nil {
			err := st.writerErr
			st.mu.Unlock()
			return abort(err)
		}
		if st.writerDone && len(st.fifo) == 0 {
			st.mu.Unlock()
			// Plan drained cleanly: keep the connection for the next
			// estimation unless the cancel wake already fired.
			if stopWake() {
				r.releaseStream(h, sc)
			} else {
				sc.close()
			}
			return nil
		}
		// Arm the read deadline under st.mu so finishWriter's wake can
		// never be clobbered by a stale deadline computed before the
		// writer finished.
		var deadline time.Time
		if r.opt.ShardTimeout > 0 && len(st.fifo) > 0 {
			deadline = st.fifo[0].sent.Add(r.opt.ShardTimeout)
		}
		_ = sc.conn.SetReadDeadline(deadline)
		st.mu.Unlock()

		t, payload, err := readFrame(sc.br, &sc.scratch)
		if err != nil {
			if ctx.Err() != nil {
				return abort(ctx.Err())
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				st.mu.Lock()
				expired := r.opt.ShardTimeout > 0 && len(st.fifo) > 0 &&
					time.Since(st.fifo[0].sent) >= r.opt.ShardTimeout
				st.mu.Unlock()
				if !expired {
					continue // the writer's wake, or a re-arm race: re-check
				}
				// Re-dispatch on expiry: the batches go back to the
				// queue for other workers; this connection is dropped
				// (its late answers would be unmatchable).
				mShardTimeouts.Inc()
				if tr := obs.CurrentTracer(); tr != nil {
					tr.Instant("shard_timeout", "dist", h.tid, map[string]any{"worker": h.url})
				}
				return abort(fmt.Errorf("worker %s: no answer for %s (shard timeout): re-dispatching", h.url, r.opt.ShardTimeout))
			}
			return abort(fmt.Errorf("worker %s: read frame: %w", h.url, err))
		}
		switch t {
		case frameResult:
			front, ok := st.peek()
			if !ok {
				return abort(fmt.Errorf("worker %s: result frame with no batch in flight (corrupt stream?)", h.url))
			}
			id, accs, err := decodeResult(payload, front.indices, req.Dim)
			if err != nil {
				return abort(fmt.Errorf("worker %s: %w", h.url, err))
			}
			if id != reqID {
				return abort(fmt.Errorf("worker %s: result for request %d, want %d (corrupt stream?)", h.url, id, reqID))
			}
			st.popFront()
			h.noteSuccess()
			h.observeBatch(front.sent, len(front.indices))
			d.complete(front.indices, accs)
		case frameError:
			fatal, msg, derr := decodeError(payload)
			if derr != nil {
				return abort(fmt.Errorf("worker %s: %w", h.url, derr))
			}
			cause := fmt.Errorf("worker %s: %s", h.url, msg)
			if fatal {
				return abort(&fatalStatusError{msg: cause.Error()})
			}
			return abort(cause)
		case frameGoodbye:
			// The worker drained: everything it answered is already
			// complete; the rest re-dispatches to the survivors.
			return abort(fmt.Errorf("worker %s: draining (%s)", h.url, bytesToMsg(payload)))
		default:
			return abort(fmt.Errorf("worker %s: unexpected %s frame", h.url, t))
		}
	}
}

// bytesToMsg renders a frame's message payload, bounded.
func bytesToMsg(b []byte) string {
	const max = 256
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}
