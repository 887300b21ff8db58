package dist_test

// The fault layer driven end to end through real coordinator/worker
// pairs: every injected fault must be survived by the retry machinery
// with bit-identical results, because an injected fault is by
// construction indistinguishable from the real failure it models.

import (
	"context"
	"net/http"
	"testing"
	"time"

	"carriersense/internal/dist"
	"carriersense/internal/fault"
	"carriersense/internal/montecarlo"
)

// installFault parses spec, installs the plan for worker id, and
// uninstalls at cleanup so no schedule leaks across tests.
func installFault(t *testing.T, spec, id string) *fault.Plan {
	t.Helper()
	sched, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := sched.Plan(id)
	if p == nil {
		t.Fatalf("schedule %q selected no rules for %q", spec, id)
	}
	fault.Install(p)
	t.Cleanup(func() { fault.Install(nil) })
	return p
}

// wantLocal evaluates the request locally for the bit-identity check.
func wantLocal(t *testing.T, req montecarlo.Request) []montecarlo.Estimate {
	t.Helper()
	local, err := dist.Local{}.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return estimates(local)
}

func TestInjectedCorruptFrameIsDetectedAndRetried(t *testing.T) {
	// The corrupt fault flips a structural byte of the first result
	// frame; the coordinator must reject the frame, requeue the batch,
	// and recompute — never merge damaged accumulator state.
	installFault(t, "w1:corrupt@batch1,seed=3", "w1")
	req := testRequest(t, 4*montecarlo.ShardSize)
	want := wantLocal(t, req)
	remote, err := dist.NewRemote(startWorkers(t, 1), dist.RemoteOptions{
		BatchSize: 2, ReadmitBase: dist.ReadmitOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run under an injected corrupt frame failed: %v", err)
	}
	mustIdentical(t, accs, want, "corrupt-frame run")
}

func TestInjectedTruncatedFrameIsRetried(t *testing.T) {
	// The truncate fault tears the connection mid-result-frame; the
	// coordinator reads an unexpected EOF and re-dispatches.
	installFault(t, "w1:truncate@batch1", "w1")
	req := testRequest(t, 4*montecarlo.ShardSize)
	want := wantLocal(t, req)
	remote, err := dist.NewRemote(startWorkers(t, 1), dist.RemoteOptions{
		BatchSize: 2, ReadmitBase: dist.ReadmitOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run under an injected truncated frame failed: %v", err)
	}
	mustIdentical(t, accs, want, "truncated-frame run")
}

func TestInjectedRefusalsExhaustTheirBudget(t *testing.T) {
	// refuse=2 severs the first two stream upgrades at the socket; the
	// third attempt lands inside the default HostFailLimit and
	// completes.
	p := installFault(t, "w1:refuse=2", "w1")
	req := testRequest(t, 2*montecarlo.ShardSize)
	want := wantLocal(t, req)
	remote, err := dist.NewRemote(startWorkers(t, 1), dist.RemoteOptions{
		BatchSize: 1, Concurrency: 1, ReadmitBase: dist.ReadmitOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run under injected refusals failed: %v", err)
	}
	mustIdentical(t, accs, want, "refusal run")
	if p.RefuseRequest() {
		t.Error("refuse budget not exhausted by the run")
	}
}

func TestInjectedCrashSeversMidBatch(t *testing.T) {
	// In-process stand-in for kill -9 at a batch boundary: OnCrash
	// cannot os.Exit inside a test binary, so it aborts the handler's
	// connection instead — the same torn wire the coordinator would see.
	p := installFault(t, "w1:crash@batch2", "w1")
	p.OnCrash = func() { panic(http.ErrAbortHandler) }
	req := testRequest(t, 6*montecarlo.ShardSize)
	want := wantLocal(t, req)
	remote, err := dist.NewRemote(startWorkers(t, 1), dist.RemoteOptions{
		BatchSize: 2, ReadmitBase: dist.ReadmitOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run under an injected mid-batch crash failed: %v", err)
	}
	mustIdentical(t, accs, want, "mid-batch crash run")
}

func TestInjectedSlownessDelaysButCompletes(t *testing.T) {
	installFault(t, "w1:slow=30ms", "w1")
	req := testRequest(t, 2*montecarlo.ShardSize)
	want := wantLocal(t, req)
	remote, err := dist.NewRemote(startWorkers(t, 1), dist.RemoteOptions{
		BatchSize: 2, ReadmitBase: dist.ReadmitOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run under injected slowness failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("run took %v; injected 30ms straggle never applied", elapsed)
	}
	mustIdentical(t, accs, want, "slow run")
}

func TestFaultScheduleForOtherTargetsIsInert(t *testing.T) {
	// A schedule whose rules all target other processes installs
	// nothing here: Current() stays nil and the hot path stays on its
	// one-nil-check fast path.
	sched, err := fault.Parse("worker9:refuse=100")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(sched.Plan("w1"))
	t.Cleanup(func() { fault.Install(nil) })
	if fault.Current() != nil {
		t.Fatal("plan with no matching rules was installed")
	}
	req := testRequest(t, 2*montecarlo.ShardSize)
	want := wantLocal(t, req)
	remote, err := dist.NewRemote(startWorkers(t, 1), dist.RemoteOptions{ReadmitBase: dist.ReadmitOff})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	mustIdentical(t, accs, want, "inert-schedule run")
}
