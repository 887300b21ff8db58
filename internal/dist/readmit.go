package dist

// Fleet self-healing: dead-worker readmission and hedged dispatch.
//
// Readmission is a half-open circuit breaker per worker. markDead
// starts one probe goroutine per dead host that GETs /healthz on an
// exponentially backed-off, jittered schedule (a draining worker
// answers 503, so probes do not readmit a worker on its way out). A
// 200 moves the host to hostHalfOpen and lets it claim batches again
// — including joining estimations already in flight — but its very
// first failure re-kills it with a longer backoff, while its first
// completed batch restores it fully (noteSuccess). None of this can
// change results: a readmitted worker only drains the same shard
// queue everyone else does, and shard accumulators merge by index in
// shard order regardless of who evaluated them.
//
// Hedging is the dispatch-side half of straggler defense: once the
// pending queue is empty, an idle worker may claim a *copy* of the
// oldest still-unanswered batch of a slower peer, provided that batch
// has been in flight longer than a threshold derived from the fleet's
// own observed latency (the cs_dist_batch_seconds histograms). The
// idempotent complete path takes the first answer and drops the
// other, which is bit-identical anyway.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"carriersense/internal/obs"
)

// jitteredBackoff is base<<round, capped, with ±50% uniform jitter —
// the pacing for both readmission probes and dial retries. Jitter
// deliberately uses the global math/rand source: recovery pacing must
// never touch result determinism (shard RNG derives from the plan),
// and desynchronizing coordinators is the whole point.
func jitteredBackoff(base time.Duration, round int, max time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < round && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// probeLoop works on readmitting one dead host. It exits when the
// host answers /healthz (moving it to half-open) or the Remote is
// closed. markDead guarantees at most one live probeLoop per host
// (h.probing); a half-open host that fails its trial re-enters
// markDead, which starts a fresh loop with the grown probeRound.
func (r *Remote) probeLoop(h *hostState) {
	for {
		h.mu.Lock()
		round := h.probeRound
		h.mu.Unlock()
		t := time.NewTimer(jitteredBackoff(r.opt.ReadmitBase, round, readmitMaxBackoff))
		select {
		case <-r.closed:
			t.Stop()
			h.mu.Lock()
			h.probing = false
			h.mu.Unlock()
			return
		case <-t.C:
		}
		mProbes.Inc()
		if err := r.probeHealthz(h); err != nil {
			h.mu.Lock()
			h.probeRound++
			h.mu.Unlock()
			continue
		}
		h.mu.Lock()
		h.health = hostHalfOpen
		h.failures = 0
		h.probing = false
		h.mu.Unlock()
		if tr := obs.CurrentTracer(); tr != nil {
			tr.Instant("worker_half_open", "dist", h.tid, map[string]any{"worker": h.url})
		}
		r.joinActive(h)
		return
	}
}

// probeClient carries the readmission probes. Probes are seconds
// apart, so connections are not kept alive between them; each probe's
// context bounds its dial and round trip.
var probeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// probeHealthz is one readmission probe: anything but a 200 /healthz
// keeps the worker dead (a draining worker's 503 lands here).
func (r *Remote) probeHealthz(h *hostState) error {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url+PathHealthz, nil)
	if err != nil {
		return err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// joinActive spawns a host loop for a just-readmitted worker into
// every estimation still in flight, so healing helps the run that is
// hurting now, not just the next one. addLoop refuses joins on runs
// that already completed or failed.
func (r *Remote) joinActive(h *hostState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for d, rs := range r.active {
		if d.addLoop() {
			go r.hostLoop(rs.ctx, h, rs.req, d)
		}
	}
}

// hedgeDelayFn resolves the hedging threshold from the per-worker
// batch-latency histograms: hedgeFactor x the *fastest* worker's
// HedgeQuantile latency (the straggler's own observations must not
// inflate the threshold that is supposed to catch it), floored at
// hedgeDelayMin, and 0 — no hedging — until any worker has enough
// observations to make the quantile meaningful. Returns nil when
// hedging is disabled.
func (r *Remote) hedgeDelayFn() func() time.Duration {
	if r.opt.HedgeQuantile <= 0 {
		return nil
	}
	return func() time.Duration {
		best := 0.0
		for _, h := range r.hosts {
			if h.batchSeconds.Count() < hedgeMinObservations {
				continue
			}
			if q := h.batchSeconds.Quantile(r.opt.HedgeQuantile); q > 0 && (best == 0 || q < best) {
				best = q
			}
		}
		if best == 0 {
			return 0
		}
		d := time.Duration(hedgeFactor * best * float64(time.Second))
		if d < hedgeDelayMin {
			d = hedgeDelayMin
		}
		return d
	}
}
