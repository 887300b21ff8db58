package dist

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"carriersense/internal/montecarlo"
)

// The wire protocol version guard, carried by the stream hello: a
// mixed-version fleet must fail loudly in both directions, never
// silently mis-serve (an old worker ignores request fields it does not
// know and would return cleanly merging but wrong accumulators).

// helloFor encodes a hello frame payload claiming proto.
func helloFor(proto int) []byte {
	b := encodeHello()
	binary.LittleEndian.PutUint32(b[4:], uint32(proto))
	return b
}

func TestCoordinatorAbandonsOlderProtocolWorker(t *testing.T) {
	// An older worker answers the hello with its own version and then
	// closes, exactly as the current serveStream does on a mismatch.
	old := startFrameWorker(t, func(ss *streamSession) {
		var scratch []byte
		if t, _, err := readFrame(ss.br, &scratch); err != nil || t != frameHello {
			return
		}
		_ = writeFrame(ss.bw, frameHello, helloFor(ProtoVersion-1))
		_ = ss.bw.Flush()
	})
	req := streamTestRequest(4 * montecarlo.ShardSize)
	want := localWant(t, req)

	// Beside a current worker, the old one is abandoned and the run
	// completes bit-identically.
	remote, err := NewRemote([]string{startWorker(t), old}, RemoteOptions{ReadmitBase: ReadmitOff})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("fleet with one current worker failed: %v", err)
	}
	requireIdentical(t, accs, want, "around an older worker")

	// Alone, it fails the run with an error naming it and both versions.
	lonely, err := NewRemote([]string{old}, RemoteOptions{ReadmitBase: ReadmitOff})
	if err != nil {
		t.Fatal(err)
	}
	_, err = lonely.EstimateVec(context.Background(), req)
	if err == nil {
		t.Fatal("coordinator accepted a worker speaking an older stream protocol")
	}
	versions := fmt.Sprintf("stream protocol %d, this coordinator %d", ProtoVersion-1, ProtoVersion)
	for _, want := range []string{old, versions} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("run error lacks %q: %v", want, err)
		}
	}
}

func TestWorkerRejectsWrongProtocolVersion(t *testing.T) {
	// A coordinator speaking another version gets the worker's own
	// version echoed back, and the worker closes without evaluating
	// anything sent after the hello.
	host := startWorker(t)
	conn, err := net.DialTimeout("tcp", host, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := &streamConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if err := sc.upgrade(host); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(sc.bw, frameHello, helloFor(ProtoVersion+1)); err != nil {
		t.Fatal(err)
	}
	// Eager batches behind the hello must not be served either.
	body, err := encodeRequest(1, streamTestRequest(montecarlo.ShardSize))
	if err != nil {
		t.Fatal(err)
	}
	_ = writeFrame(sc.bw, frameRequest, body)
	_ = writeFrame(sc.bw, frameBatch, encodeBatch(1, []int{0}))
	if err := sc.bw.Flush(); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	ft, payload, err := readFrame(sc.br, &sc.scratch)
	if err != nil || ft != frameHello {
		t.Fatalf("want the worker's hello echo, got %v frame, err %v", ft, err)
	}
	if proto, err := decodeHello(payload); err != nil || proto != ProtoVersion {
		t.Errorf("worker echoed protocol %d (err %v), want its own %d", proto, err, ProtoVersion)
	}
	if ft, _, err := readFrame(sc.br, &sc.scratch); err == nil {
		t.Errorf("worker kept the stream open after a version mismatch (sent a %v frame)", ft)
	}
	if st := workerStats(t, host); st.Requests != 0 || st.Shards != 0 {
		t.Errorf("mismatched stream was served: %d batches, %d shards", st.Requests, st.Shards)
	}
}
