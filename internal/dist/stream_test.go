package dist

// Shard stream tests: the determinism contract on the framed wire,
// abandonment of workers that refuse the upgrade, loud failure on
// corrupt frames, worker-side rejection of invalid frames, shard
// timeouts, and graceful drain. These live in the internal package so
// misbehaving workers can be built straight from the frame codec.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carriersense/internal/montecarlo"
)

// streamTestRequest builds a request against the dist-test/vec kernel
// (registered by the external test package's init; both test packages
// link into one binary).
func streamTestRequest(samples int) montecarlo.Request {
	return montecarlo.Request{
		Kernel: "dist-test/vec", Params: json.RawMessage(`{"scale":2.5}`),
		Seed: 424242, Samples: samples, Dim: 3,
	}
}

func localWant(t *testing.T, req montecarlo.Request) []montecarlo.Estimate {
	t.Helper()
	accs, err := Local{}.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return toEstimates(accs)
}

func toEstimates(accs []montecarlo.Accumulator) []montecarlo.Estimate {
	out := make([]montecarlo.Estimate, len(accs))
	for i := range accs {
		out[i] = accs[i].Estimate()
	}
	return out
}

func requireIdentical(t *testing.T, got []montecarlo.Accumulator, want []montecarlo.Estimate, label string) {
	t.Helper()
	for j, e := range toEstimates(got) {
		if e != want[j] {
			t.Errorf("%s: component %d: %+v != local %+v", label, j, e, want[j])
		}
	}
}

// workerStats GETs a worker's /stats.
func workerStats(t *testing.T, host string) Stats {
	t.Helper()
	resp, err := http.Get("http://" + host + PathStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// startWorker boots one full worker and returns its host:port.
func startWorker(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(NewServer())
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// startUpgradeRefusingWorker boots a worker that predates the stream
// protocol: PathStream 404s, everything else is a current worker.
func startUpgradeRefusingWorker(t *testing.T) string {
	t.Helper()
	inner := NewServer()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathStream {
			http.NotFound(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// startFrameWorker boots a worker whose stream endpoint hands the
// upgraded connection to serve; all other paths behave like a current
// worker. Used to build misbehaving peers.
func startFrameWorker(t *testing.T, serve func(ss *streamSession)) string {
	t.Helper()
	return strings.TrimPrefix(startFrameServer(t, serve).URL, "http://")
}

// startFrameServer is startFrameWorker returning the server itself, for
// tests that take the whole host down.
func startFrameServer(t *testing.T, serve func(ss *streamSession)) *httptest.Server {
	t.Helper()
	inner := NewServer()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathStream {
			inner.ServeHTTP(w, r)
			return
		}
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer conn.Close()
		ss := &streamSession{conn: conn, br: buf.Reader, bw: bufio.NewWriter(conn)}
		fmt.Fprintf(ss.bw, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", streamUpgrade)
		if ss.bw.Flush() != nil {
			return
		}
		serve(ss)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// startGatedWorker boots a worker that evaluates every batch for real
// — so whatever it delivers must merge bit-identically — but asks
// gate first, with the worker's 1-based batch ordinal across all its
// streams. A gate may block (a slow or wedged worker) and returns
// false to sever the stream instead of answering (a dead one). It
// returns the worker's host:port.
func startGatedWorker(t *testing.T, gate func(batch int64) bool) string {
	t.Helper()
	return startFrameWorker(t, gatedServe(gate))
}

// gatedServe is the stream loop of startGatedWorker.
func gatedServe(gate func(batch int64) bool) func(ss *streamSession) {
	var batches atomic.Int64
	return func(ss *streamSession) {
		var scratch []byte
		if helloExchange(ss, &scratch) != nil {
			return
		}
		reqs := map[uint32]montecarlo.Request{}
		for {
			t, payload, err := readFrame(ss.br, &scratch)
			if err != nil {
				return
			}
			switch t {
			case frameRequest:
				id, r, err := decodeRequest(payload)
				if err != nil {
					return
				}
				reqs[id] = r
			case frameBatch:
				if !gate(batches.Add(1)) {
					return // startFrameWorker's deferred close severs the conn mid-batch
				}
				id, indices, err := decodeBatch(payload)
				if err != nil {
					return
				}
				r := reqs[id]
				accs, err := montecarlo.EvaluateShards(r, indices)
				if err != nil {
					return
				}
				if writeFrame(ss.bw, frameResult, encodeResult(id, r.Dim, indices, accs)) != nil {
					return
				}
				if ss.bw.Flush() != nil {
					return
				}
			default:
				return
			}
		}
	}
}

// deathWait bounds how long the healthy worker of startDyingPair holds
// its first batch for the flaky worker's death. It only expires when
// the flaky worker can never reach its death point, and then the
// caller's "death path exercised" check fails instead of the test
// hanging.
const deathWait = 20 * time.Second

// startDyingPair boots a two-worker fleet, healthy first. The flaky
// worker answers `survives` batches, then severs its stream at every
// later batch: dead for good. The healthy worker's first batch waits
// until the flaky worker has died, so the healthy one cannot drain the
// plan before the death point is reached. At BatchSize 1 and
// Concurrency 1 the healthy worker holds one shard meanwhile, so the
// first estimation needs at least survives+2 shards. flakyBatches
// reports how many batch frames the flaky worker received.
func startDyingPair(t *testing.T, survives int64) (hosts []string, flakyBatches func() int64) {
	t.Helper()
	died := make(chan struct{})
	var once sync.Once
	var seen atomic.Int64
	flaky := startGatedWorker(t, func(batch int64) bool {
		seen.Add(1)
		if batch > survives {
			once.Do(func() { close(died) })
			return false
		}
		return true
	})
	healthy := startGatedWorker(t, func(batch int64) bool {
		if batch == 1 {
			select {
			case <-died:
			case <-time.After(deathWait):
			}
		}
		return true
	})
	return []string{healthy, flaky}, seen.Load
}

// helloExchange performs the worker half of the handshake.
func helloExchange(ss *streamSession, scratch *[]byte) error {
	t, payload, err := readFrame(ss.br, scratch)
	if err != nil || t != frameHello {
		return fmt.Errorf("no hello: %v", err)
	}
	if _, err := decodeHello(payload); err != nil {
		return err
	}
	if err := writeFrame(ss.bw, frameHello, encodeHello()); err != nil {
		return err
	}
	return ss.bw.Flush()
}

func TestBinaryWireCarriesTheRunAndStaysBitIdentical(t *testing.T) {
	req := streamTestRequest(6*montecarlo.ShardSize + 77)
	want := localWant(t, req)
	hosts := []string{startWorker(t), startWorker(t)}
	remote, err := NewRemote(hosts, RemoteOptions{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, accs, want, "binary wire")

	var streams, streamBatches, shards int64
	for _, h := range hosts {
		st := workerStats(t, h)
		streams += st.Streams
		streamBatches += st.StreamBatches
		shards += st.Shards
		if st.Requests != st.StreamBatches {
			t.Errorf("worker %s: %d requests but %d stream batches", h, st.Requests, st.StreamBatches)
		}
	}
	if streams == 0 || streamBatches == 0 {
		t.Fatalf("no stream traffic recorded (streams=%d batches=%d); the binary wire was never used", streams, streamBatches)
	}
	if wantShards := int64(montecarlo.ShardCount(req.Samples)); shards != wantShards {
		t.Errorf("fleet evaluated %d shards, plan has %d", shards, wantShards)
	}
}

func TestStreamsPersistAcrossEstimations(t *testing.T) {
	host := startWorker(t)
	remote, err := NewRemote([]string{host}, RemoteOptions{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := streamTestRequest(3 * montecarlo.ShardSize)
	for i := 0; i < 3; i++ {
		if _, err := remote.EstimateVec(context.Background(), req); err != nil {
			t.Fatalf("estimation %d: %v", i, err)
		}
	}
	if st := workerStats(t, host); st.Streams != 1 {
		t.Errorf("3 estimations opened %d streams; want 1 pooled connection", st.Streams)
	}
}

func TestUpgradeRefusingWorkerIsAbandoned(t *testing.T) {
	req := streamTestRequest(4 * montecarlo.ShardSize)
	want := localWant(t, req)
	host, refuser := startWorker(t), startUpgradeRefusingWorker(t)
	remote, err := NewRemote([]string{host, refuser}, RemoteOptions{ReadmitBase: ReadmitOff})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("fleet with one stream-capable worker failed: %v", err)
	}
	requireIdentical(t, accs, want, "around a refusing worker")
	if st := workerStats(t, refuser); st.Shards != 0 {
		t.Errorf("upgrade-refusing worker evaluated %d shards", st.Shards)
	}

	// A fleet of refusers must fail loudly, naming the worker and why.
	lonely, err := NewRemote([]string{refuser}, RemoteOptions{ReadmitBase: ReadmitOff})
	if err != nil {
		t.Fatal(err)
	}
	_, err = lonely.EstimateVec(context.Background(), req)
	if err == nil {
		t.Fatal("run against an upgrade-refusing fleet succeeded; want loud failure")
	}
	for _, want := range []string{refuser, "stream upgrade refused", "404"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("run error lacks %q: %v", want, err)
		}
	}
}

func TestStreamRejectsInvalidFramesWithoutEvaluating(t *testing.T) {
	host := startWorker(t)
	valid := streamTestRequest(4 * montecarlo.ShardSize)
	validBody, err := encodeRequest(1, valid)
	if err != nil {
		t.Fatal(err)
	}
	type frame struct {
		t       frameType
		payload []byte
	}
	// Each case writes its frames onto a fresh stream; the worker must
	// answer with one fatal error frame and close.
	cases := []struct {
		name   string
		frames []frame
	}{
		{"malformed request payload", []frame{{frameRequest, append([]byte{1, 0, 0, 0}, "{not json"...)}}},
		{"unknown request id", []frame{{frameBatch, encodeBatch(99, []int{0})}}},
		{"empty batch", []frame{{frameRequest, validBody}, {frameBatch, encodeBatch(1, nil)}}},
		{"out-of-range index", []frame{{frameRequest, validBody}, {frameBatch, encodeBatch(1, []int{9})}}},
		{"duplicate index", []frame{{frameRequest, validBody}, {frameBatch, encodeBatch(1, []int{2, 2})}}},
	}
	for i, tc := range cases {
		sc, err := dialStream(context.Background(), "http://"+host, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.close()
		for _, f := range tc.frames {
			if err := writeFrame(sc.bw, f.t, f.payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		sc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		ft, payload, err := readFrame(sc.br, &sc.scratch)
		if err != nil || ft != frameError {
			t.Errorf("%s: got %v frame, err %v; want an error frame", tc.name, ft, err)
			continue
		}
		if fatal, msg, err := decodeError(payload); err != nil || !fatal {
			t.Errorf("%s: error frame fatal=%v msg=%q err=%v; want fatal", tc.name, fatal, msg, err)
		}
		if _, _, err := readFrame(sc.br, &sc.scratch); err == nil {
			t.Errorf("%s: stream stayed open after a fatal error frame", tc.name)
		}
		if st := workerStats(t, host); st.Failures != int64(i+1) {
			t.Errorf("%s: worker counts %d failures, want %d", tc.name, st.Failures, i+1)
		}
	}
	if st := workerStats(t, host); st.Shards != 0 || st.Samples != 0 {
		t.Errorf("invalid frames were evaluated: %d shards, %d samples", st.Shards, st.Samples)
	}
}

func TestCorruptResultFrameFailsLoudlyNamingTheWorker(t *testing.T) {
	host := startFrameWorker(t, func(ss *streamSession) {
		var scratch []byte
		if helloExchange(ss, &scratch) != nil {
			return
		}
		for {
			t, _, err := readFrame(ss.br, &scratch)
			if err != nil {
				return
			}
			if t != frameBatch {
				continue // request frames carry no reply
			}
			// Answer the batch with garbage: a result frame whose payload
			// cannot possibly parse.
			_ = writeFrame(ss.bw, frameResult, []byte{0xde, 0xad, 0xbe, 0xef})
			_ = ss.bw.Flush()
		}
	})
	remote, err := NewRemote([]string{host}, RemoteOptions{HostFailLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = remote.EstimateVec(context.Background(), streamTestRequest(2*montecarlo.ShardSize))
	if err == nil {
		t.Fatal("run over a corrupt stream succeeded")
	}
	if !strings.Contains(err.Error(), host) {
		t.Errorf("corrupt-frame error does not name the offending worker %s: %v", host, err)
	}
}

func TestTruncatedFrameFailsLoudly(t *testing.T) {
	host := startFrameWorker(t, func(ss *streamSession) {
		var scratch []byte
		if helloExchange(ss, &scratch) != nil {
			return
		}
		for {
			t, _, err := readFrame(ss.br, &scratch)
			if err != nil {
				return
			}
			if t != frameBatch {
				continue
			}
			// Claim a large payload, deliver a few bytes, hang up: the
			// coordinator must read this as a truncated frame.
			var hdr [5]byte
			hdr[0] = 0xff
			hdr[1] = 0x01
			hdr[4] = byte(frameResult)
			ss.bw.Write(hdr[:])
			ss.bw.Write([]byte{1, 2, 3})
			ss.bw.Flush()
			ss.conn.Close()
			return
		}
	})
	remote, err := NewRemote([]string{host}, RemoteOptions{HostFailLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = remote.EstimateVec(context.Background(), streamTestRequest(montecarlo.ShardSize))
	if err == nil {
		t.Fatal("run over a truncating stream succeeded")
	}
	if !strings.Contains(err.Error(), host) {
		t.Errorf("truncated-frame error does not name the worker %s: %v", host, err)
	}
}

func TestFailoverWorkerKilledMidRun(t *testing.T) {
	req := streamTestRequest(9 * montecarlo.ShardSize)
	want := localWant(t, req)
	const survives = 2
	hosts, flakyBatches := startDyingPair(t, survives)
	remote, err := NewRemote(hosts, RemoteOptions{BatchSize: 1, Concurrency: 1, HostFailLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run with mid-stream worker death failed: %v", err)
	}
	if n := flakyBatches(); n <= survives {
		t.Fatalf("flaky worker saw %d batches; the death path was never exercised", n)
	}
	requireIdentical(t, accs, want, "after mid-run worker death")
}

// TestBinaryWorkerDiesMidRunFleetSurvives takes the whole flaky host
// down at its death point: its listener closes, so every redial is
// refused, where TestFailoverWorkerKilledMidRun's flaky worker keeps
// accepting connections and severs each at its first batch.
func TestBinaryWorkerDiesMidRunFleetSurvives(t *testing.T) {
	req := streamTestRequest(9 * montecarlo.ShardSize)
	want := localWant(t, req)
	const survives = 2
	died := make(chan struct{})
	var once sync.Once
	var seen atomic.Int64
	flaky := startFrameServer(t, gatedServe(func(batch int64) bool {
		seen.Add(1)
		if batch > survives {
			once.Do(func() { close(died) })
			return false
		}
		return true
	}))
	hostDown := make(chan struct{})
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		select {
		case <-died:
			flaky.Listener.Close()
			close(hostDown)
		case <-stop:
		}
	}()
	// The healthy worker's first batch waits for the host to go down,
	// so it cannot drain the plan before the death point is reached.
	healthy := startGatedWorker(t, func(batch int64) bool {
		if batch == 1 {
			select {
			case <-hostDown:
			case <-time.After(deathWait):
			}
		}
		return true
	})
	flakyHost := strings.TrimPrefix(flaky.URL, "http://")
	remote, err := NewRemote([]string{healthy, flakyHost}, RemoteOptions{BatchSize: 1, Concurrency: 1, HostFailLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run with mid-run host death failed: %v", err)
	}
	if n := seen.Load(); n <= survives {
		t.Fatalf("flaky worker saw %d batches; the death path was never exercised", n)
	}
	if conn, err := net.DialTimeout("tcp", flakyHost, time.Second); err == nil {
		conn.Close()
		t.Fatalf("flaky host %s still accepts connections after its death", flakyHost)
	}
	requireIdentical(t, accs, want, "after mid-run host death")
}

func TestShardTimeoutRedispatchesToSurvivors(t *testing.T) {
	req := streamTestRequest(5 * montecarlo.ShardSize)
	want := localWant(t, req)

	// A black hole: accepts batches, never answers them.
	var swallowed atomic.Int64
	holeHost := startFrameWorker(t, func(ss *streamSession) {
		var scratch []byte
		if helloExchange(ss, &scratch) != nil {
			return
		}
		for {
			t, _, err := readFrame(ss.br, &scratch)
			if err != nil {
				return
			}
			if t == frameBatch {
				swallowed.Add(1)
			}
		}
	})
	hosts := []string{startWorker(t), holeHost}
	remote, err := NewRemote(hosts, RemoteOptions{
		BatchSize: 1, Concurrency: 1, HostFailLimit: 2,
		ShardTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run with a black-hole worker failed: %v", err)
	}
	if swallowed.Load() == 0 {
		t.Fatal("black hole never swallowed a batch; timeout path not exercised")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("run took %v; shard timeout did not re-dispatch promptly", elapsed)
	}
	requireIdentical(t, accs, want, "after shard-timeout re-dispatch")
}

func TestServeDrainsStreamsWithGoodbye(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(ctx, "127.0.0.1:0", ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-serveErr:
		t.Fatalf("Serve exited before ready: %v", err)
	}

	sc, err := dialStream(context.Background(), "http://"+addr.String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial stream: %v", err)
	}
	defer sc.close()
	req := streamTestRequest(2 * montecarlo.ShardSize)
	id, err := sc.sendRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.sendBatch(id, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	sc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	ft, payload, err := readFrame(sc.br, &sc.scratch)
	if err != nil || ft != frameResult {
		t.Fatalf("want result frame before drain, got %v frame, err %v", ft, err)
	}
	if _, _, err := decodeResult(payload, []int{0, 1}, req.Dim); err != nil {
		t.Fatalf("pre-drain result corrupt: %v", err)
	}

	cancel() // SIGINT equivalent: the worker must drain, not vanish
	ft, _, err = readFrame(sc.br, &sc.scratch)
	if err != nil || ft != frameGoodbye {
		t.Fatalf("want goodbye frame on drain, got %v frame, err %v", ft, err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful drain; want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

func TestBatchFrameRoundTripCompressesRanges(t *testing.T) {
	indices := []int{3, 4, 5, 6, 9, 11, 12}
	payload := encodeBatch(7, indices)
	// 3 runs: [3,+4) [9,+1) [11,+2) → 8-byte header + 3×8 bytes.
	if len(payload) != 8+3*8 {
		t.Errorf("batch payload is %d bytes; want %d (3 ranges)", len(payload), 8+3*8)
	}
	id, got, err := decodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 {
		t.Errorf("round-tripped id %d, want 7", id)
	}
	if fmt.Sprint(got) != fmt.Sprint(indices) {
		t.Errorf("round-tripped indices %v, want %v", got, indices)
	}
}
