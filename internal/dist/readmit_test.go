package dist_test

// Fleet self-healing contract tests: a dead worker is probed back into
// the fleet (between runs and mid-run), hedged dispatch completes a
// run around a wedged straggler, and a run that dies names every
// worker that contributed to its death. Every healed/hedged run must
// stay bit-identical to the local evaluation.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"carriersense/internal/dist"
	"carriersense/internal/montecarlo"
)

// healingWorker severs every connection while sick — a crashed worker
// process, as seen from the coordinator — and serves normally once
// healed.
type healingWorker struct {
	inner   *dist.Server
	healthy atomic.Bool
}

func (hw *healingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !hw.healthy.Load() {
		panic(http.ErrAbortHandler)
	}
	hw.inner.ServeHTTP(w, r)
}

// shards reads the shards evaluated so far from the inner server's
// /stats, bypassing the sickness that severs outside requests.
func (hw *healingWorker) shards(t *testing.T) int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	hw.inner.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, dist.PathStats, nil))
	var st dist.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("inner /stats: %v", err)
	}
	return st.Shards
}

func mustIdentical(t *testing.T, accs []montecarlo.Accumulator, want []montecarlo.Estimate, what string) {
	t.Helper()
	got := estimates(accs)
	for j := range got {
		if got[j] != want[j] {
			t.Errorf("%s: component %d: %+v != local %+v", what, j, got[j], want[j])
		}
	}
}

func TestDeadWorkerReadmittedAfterHeal(t *testing.T) {
	req := testRequest(t, 6*montecarlo.ShardSize)
	local, err := dist.Local{}.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := estimates(local)

	hw := &healingWorker{inner: dist.NewServer()}
	srv := httptest.NewServer(hw)
	defer srv.Close()
	hosts := append(startWorkers(t, 1), strings.TrimPrefix(srv.URL, "http://"))
	remote, err := dist.NewRemote(hosts, dist.RemoteOptions{
		BatchSize: 1, Concurrency: 1, HostFailLimit: 1,
		ReadmitBase: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// First estimation: the sick worker aborts its first batch, is
	// abandoned, and the healthy worker carries the run.
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("estimation with a sick worker failed: %v", err)
	}
	mustIdentical(t, accs, want, "sick-worker run")
	if n := hw.shards(t); n != 0 {
		t.Fatalf("sick worker evaluated %d shards; test setup broken", n)
	}

	// Heal. The background probe should move the worker to half-open,
	// and a subsequent estimation should route real work through it.
	hw.healthy.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for hw.shards(t) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("healed worker was never readmitted to the fleet")
		}
		accs, err := remote.EstimateVec(context.Background(), req)
		if err != nil {
			t.Fatalf("estimation while awaiting readmission failed: %v", err)
		}
		mustIdentical(t, accs, want, "post-heal run")
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReadmittedWorkerJoinsRunInFlight(t *testing.T) {
	req := testRequest(t, 36*montecarlo.ShardSize)
	local, err := dist.Local{}.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := estimates(local)

	// A slow worker delays every batch so the run lasts long enough
	// for the readmission to land inside it.
	slow := dist.StartGatedWorker(t, func(int64) bool {
		time.Sleep(20 * time.Millisecond)
		return true
	})
	hw := &healingWorker{inner: dist.NewServer()}
	hwSrv := httptest.NewServer(hw)
	defer hwSrv.Close()

	remote, err := dist.NewRemote(
		[]string{slow, strings.TrimPrefix(hwSrv.URL, "http://")},
		dist.RemoteOptions{
			BatchSize: 1, Concurrency: 1, HostFailLimit: 1,
			ReadmitBase: 10 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// Heal the dead worker while the slow worker is still grinding
	// through the plan; the readmission probe should bring it back into
	// *this* run, not just the next one.
	healTimer := time.AfterFunc(50*time.Millisecond, func() { hw.healthy.Store(true) })
	defer healTimer.Stop()

	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("estimation with mid-run readmission failed: %v", err)
	}
	mustIdentical(t, accs, want, "mid-run readmission")
	if hw.shards(t) == 0 {
		t.Error("readmitted worker served no shards in the run it rejoined")
	}
}

func TestHedgingCompletesAroundWedgedStraggler(t *testing.T) {
	req := testRequest(t, 24*montecarlo.ShardSize)
	local, err := dist.Local{}.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := estimates(local)

	// A straggler that serves normally until stalled, after which its
	// batches block on the gate — a wedged-but-connected worker.
	var stall atomic.Bool
	var stalled atomic.Int64
	gate := make(chan struct{})
	straggler := dist.StartGatedWorker(t, func(int64) bool {
		if stall.Load() {
			stalled.Add(1)
			<-gate
		}
		return true
	})
	t.Cleanup(func() { close(gate) }) // release the wedged stream goroutine

	hosts := append(startWorkers(t, 1), straggler)
	remote, err := dist.NewRemote(hosts, dist.RemoteOptions{
		BatchSize: 1, Concurrency: 1,
		HedgeQuantile: 0.9, ReadmitBase: dist.ReadmitOff,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Warm-up: a healthy run seeds the per-worker latency histograms
	// past the observation floor hedging needs for its threshold.
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("warm-up estimation failed: %v", err)
	}
	mustIdentical(t, accs, want, "warm-up")

	// Wedge one worker and re-run: it claims a batch and never answers.
	// Without hedging this run blocks until the gate opens; with it, the
	// healthy worker duplicates the overdue batch and finishes the run.
	stall.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		accs, err := remote.EstimateVec(context.Background(), req)
		if err != nil {
			t.Errorf("hedged estimation failed: %v", err)
			return
		}
		mustIdentical(t, accs, want, "hedged run")
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hedged run did not complete while the straggler stayed wedged")
	}
	if stalled.Load() == 0 {
		t.Fatal("straggler never wedged; test exercised nothing")
	}
}

func TestRunFailureNamesEveryWorkersCause(t *testing.T) {
	var hosts []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(dist.NewServer())
		hosts = append(hosts, strings.TrimPrefix(srv.URL, "http://"))
		srv.Close() // connection refused from the start
	}
	remote, err := dist.NewRemote(hosts, dist.RemoteOptions{
		HostFailLimit: 1, ReadmitBase: dist.ReadmitOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = remote.EstimateVec(context.Background(), testRequest(t, 4*montecarlo.ShardSize))
	if err == nil {
		t.Fatal("run over an all-dead fleet succeeded")
	}
	for _, h := range hosts {
		if !strings.Contains(err.Error(), h) {
			t.Errorf("terminal error does not name worker %s:\n%v", h, err)
		}
	}
}
