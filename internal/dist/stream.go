package dist

// The binary shard stream: client (coordinator) and server (worker)
// halves of the persistent framed connection described in frame.go.
//
// A stream starts life as an ordinary HTTP request — GET /v1/stream
// with Connection: Upgrade — so the stream shares one listener and one
// port with the health, stats and metrics probes. A worker that
// accepts the upgrade exchanges hello frames carrying ProtoVersion.
// Anything else — a refused upgrade (an older binary, or some other
// service on the port) or a hello with another version — is fatal for
// that worker: the coordinator abandons it, naming the cause, and the
// rest of the fleet carries the run.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"carriersense/internal/fault"
	"carriersense/internal/montecarlo"
)

// streamConn is the coordinator's end of one established stream.
type streamConn struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	scratch []byte // readFrame payload buffer, reused across frames
	nextReq uint32 // request-frame id counter for this connection
}

// dialStream opens, upgrades, and handshakes one stream to a worker's
// base URL. A refusal to upgrade (any non-101 answer) or a hello
// mismatch returns a *fatalStatusError; transport failures return the
// underlying error.
func dialStream(ctx context.Context, baseURL string, dialTimeout time.Duration) (*streamConn, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("dist: bad worker url %q: %w", baseURL, err)
	}
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", u.Host)
	if err != nil {
		return nil, err
	}
	sc := &streamConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if err := sc.upgrade(u.Host); err != nil {
		conn.Close()
		return nil, err
	}
	if err := sc.hello(); err != nil {
		conn.Close()
		return nil, err
	}
	return sc, nil
}

// upgrade performs the HTTP half of the handshake.
func (sc *streamConn) upgrade(host string) error {
	sc.conn.SetDeadline(time.Now().Add(10 * time.Second))
	defer sc.conn.SetDeadline(time.Time{})
	fmt.Fprintf(sc.bw, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		PathStream, host, streamUpgrade)
	if err := sc.bw.Flush(); err != nil {
		return err
	}
	resp, err := http.ReadResponse(sc.br, &http.Request{Method: http.MethodGet})
	if err != nil {
		return fmt.Errorf("dist: stream upgrade: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		resp.Body.Close()
		return &fatalStatusError{msg: fmt.Sprintf("stream upgrade refused (%s answered %s)", PathStream, resp.Status)}
	}
	return nil
}

// hello exchanges protocol versions. A worker speaking a different
// protocol is fatal: it would mis-serve or reject every batch.
func (sc *streamConn) hello() error {
	if err := writeFrame(sc.bw, frameHello, encodeHello()); err != nil {
		return err
	}
	if err := sc.bw.Flush(); err != nil {
		return err
	}
	sc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer sc.conn.SetReadDeadline(time.Time{})
	t, payload, err := readFrame(sc.br, &sc.scratch)
	if err != nil {
		return err
	}
	if t != frameHello {
		return &fatalStatusError{msg: fmt.Sprintf("stream answered %s, not hello", t)}
	}
	proto, err := decodeHello(payload)
	if err != nil {
		return &fatalStatusError{msg: err.Error()}
	}
	if proto != ProtoVersion {
		return &fatalStatusError{msg: fmt.Sprintf("stream protocol %d, this coordinator %d (mixed-version fleet?)", proto, ProtoVersion)}
	}
	return nil
}

// sendRequest ships the estimation identity once and returns the id
// batches reference. Not flushed: the first batch frame rides the same
// segment.
func (sc *streamConn) sendRequest(req montecarlo.Request) (uint32, error) {
	sc.nextReq++
	id := sc.nextReq
	payload, err := encodeRequest(id, req)
	if err != nil {
		return 0, err
	}
	return id, writeFrame(sc.bw, frameRequest, payload)
}

// sendBatch ships one shard batch and flushes.
func (sc *streamConn) sendBatch(id uint32, indices []int) error {
	if err := writeFrame(sc.bw, frameBatch, encodeBatch(id, indices)); err != nil {
		return err
	}
	return sc.bw.Flush()
}

// close tears the stream down.
func (sc *streamConn) close() { sc.conn.Close() }

// --- worker side -----------------------------------------------------

// streamSession is one accepted stream on the worker.
type streamSession struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// handleStream upgrades an HTTP request into a shard stream and
// serves frames until the peer hangs up or the server drains.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != streamUpgrade {
		http.Error(w, fmt.Sprintf("dist: unsupported upgrade %q (want %s)", r.Header.Get("Upgrade"), streamUpgrade),
			http.StatusUpgradeRequired)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "dist: transport cannot be upgraded to a shard stream", http.StatusInternalServerError)
		return
	}
	if s.draining.Load() {
		http.Error(w, "dist: worker is draining", http.StatusServiceUnavailable)
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		http.Error(w, fmt.Sprintf("dist: hijack: %v", err), http.StatusInternalServerError)
		return
	}
	ss := &streamSession{conn: conn, br: buf.Reader, bw: bufio.NewWriter(conn)}
	fmt.Fprintf(ss.bw, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", streamUpgrade)
	if err := ss.bw.Flush(); err != nil {
		conn.Close()
		return
	}
	s.serveStream(ss)
}

// maxStreamRequests bounds the per-stream request-id table. Ids are
// issued in increasing order and a coordinator only batches against
// its latest id, so pruning the oldest entries never evicts a live
// estimation.
const maxStreamRequests = 64

// serveStream is the worker's frame loop: hello, then request/batch
// frames answered with result frames, strictly in order. Evaluation
// itself runs on the montecarlo pool, so one stream keeps the machine
// busy; the coordinator's pipelining keeps the *next* batch sitting in
// the socket buffer so the worker never waits out an RTT between
// batches.
func (s *Server) serveStream(ss *streamSession) {
	s.streams.Add(1)
	wStreams.Inc()
	s.registerStream(ss.conn)
	defer func() {
		s.unregisterStream(ss.conn)
		ss.conn.Close()
	}()

	fail := func(msg string) {
		s.countFailure()
		_ = writeFrame(ss.bw, frameError, encodeError(true, msg))
		_ = ss.bw.Flush()
	}

	var scratch []byte
	ss.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	t, payload, err := readFrame(ss.br, &scratch)
	if err != nil || t != frameHello {
		fail("dist: stream opened without hello")
		return
	}
	proto, err := decodeHello(payload)
	if err != nil {
		fail(err.Error())
		return
	}
	if err := writeFrame(ss.bw, frameHello, encodeHello()); err != nil {
		return
	}
	if err := ss.bw.Flush(); err != nil {
		return
	}
	if proto != ProtoVersion {
		// The echo above already told the coordinator our version, and
		// it abandons this worker. Close rather than mis-serve.
		return
	}
	ss.conn.SetReadDeadline(time.Time{})

	type streamReq struct {
		req montecarlo.Request
		id  uint32
	}
	var reqs []streamReq // small, ordered by id; pruned at maxStreamRequests
	lookup := func(id uint32) (montecarlo.Request, bool) {
		for i := len(reqs) - 1; i >= 0; i-- {
			if reqs[i].id == id {
				return reqs[i].req, true
			}
		}
		return montecarlo.Request{}, false
	}

	for {
		t, payload, err := readFrame(ss.br, &scratch)
		if err != nil {
			// Peer hung up, or the drain wake fired while idle: say
			// goodbye if draining so the coordinator knows this was a
			// shutdown, not a crash.
			if s.draining.Load() {
				_ = writeFrame(ss.bw, frameGoodbye, []byte("worker draining"))
				_ = ss.bw.Flush()
			}
			return
		}
		switch t {
		case frameRequest:
			id, req, err := decodeRequest(payload)
			if err != nil {
				fail(err.Error())
				return
			}
			if err := req.Validate(); err != nil {
				fail(err.Error())
				return
			}
			reqs = append(reqs, streamReq{req: req, id: id})
			if len(reqs) > maxStreamRequests {
				reqs = reqs[len(reqs)-maxStreamRequests:]
			}
		case frameBatch:
			id, indices, err := decodeBatch(payload)
			if err != nil {
				fail(err.Error())
				return
			}
			req, ok := lookup(id)
			if !ok {
				fail(fmt.Sprintf("dist: batch references unknown request id %d", id))
				return
			}
			ordinal := s.beginBatch()
			s.streamBatches.Add(1)
			if err := validateIndices(indices, req.FirstShard, montecarlo.ShardCount(req.Samples)); err != nil {
				s.endBatch()
				fail(err.Error())
				return
			}
			evalStart := time.Now()
			tr, traceStart := beginBatchSpan()
			accs, err := montecarlo.EvaluateShards(req, indices)
			if err != nil {
				// The caller's mistake (unknown kernel, bad params):
				// fatal, so the coordinator fails fast.
				s.endBatch()
				fail(err.Error())
				return
			}
			endBatchSpan(tr, traceStart, req.Kernel, len(indices))
			wBatchEvalSeconds.Observe(time.Since(evalStart).Seconds())
			sampleCount := 0
			for i := range accs {
				if len(accs[i]) > 0 {
					sampleCount += accs[i][0].N()
				}
			}
			s.shards.Add(int64(len(indices)))
			s.samples.Add(int64(sampleCount))
			wShards.Add(int64(len(indices)))
			wSamples.Add(int64(sampleCount))
			s.endBatch()
			result := encodeResult(id, req.Dim, indices, accs)
			if f := fault.Current(); f != nil {
				mangled, truncate := f.MangleResultFrame(ordinal, result)
				if truncate {
					// Declare the full frame, deliver half, and sever: the
					// coordinator's readFrame sees an unexpected EOF — a
					// transport failure, requeued like a real torn wire.
					var hdr [5]byte
					hdr[0] = byte(len(result))
					hdr[1] = byte(len(result) >> 8)
					hdr[2] = byte(len(result) >> 16)
					hdr[3] = byte(len(result) >> 24)
					hdr[4] = byte(frameResult)
					_, _ = ss.bw.Write(hdr[:])
					_, _ = ss.bw.Write(result[:len(result)/2])
					_ = ss.bw.Flush()
					return
				}
				result = mangled
			}
			if err := writeFrame(ss.bw, frameResult, result); err != nil {
				return
			}
			if err := ss.bw.Flush(); err != nil {
				return
			}
			if s.draining.Load() {
				// Finish the batch in hand, then bow out: the
				// coordinator re-dispatches anything still unanswered,
				// and nothing evaluated here is wasted.
				_ = writeFrame(ss.bw, frameGoodbye, []byte("worker draining"))
				_ = ss.bw.Flush()
				return
			}
		case frameGoodbye:
			return
		default:
			fail(fmt.Sprintf("dist: unexpected %s frame", t))
			return
		}
	}
}

// streamRegistry tracks live stream connections so a drain can wake
// streams blocked in a read.
type streamRegistry struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func (s *Server) registerStream(c net.Conn) {
	s.streamReg.mu.Lock()
	if s.streamReg.conns == nil {
		s.streamReg.conns = map[net.Conn]struct{}{}
	}
	s.streamReg.conns[c] = struct{}{}
	s.streamReg.mu.Unlock()
	s.streamReg.wg.Add(1)
}

func (s *Server) unregisterStream(c net.Conn) {
	s.streamReg.mu.Lock()
	delete(s.streamReg.conns, c)
	s.streamReg.mu.Unlock()
	s.streamReg.wg.Done()
}

// BeginDrain puts the worker into drain mode: new streams are refused,
// streams idle in a read are woken so they can say goodbye, and
// streams mid-batch finish and deliver the batch in hand before
// closing.
func (s *Server) BeginDrain() {
	if s.draining.Swap(true) {
		return
	}
	wDraining.Set(1)
	s.streamReg.mu.Lock()
	for c := range s.streamReg.conns {
		// Wake blocked readers; serveStream's error path turns this
		// into a goodbye frame.
		_ = c.SetReadDeadline(time.Now())
	}
	s.streamReg.mu.Unlock()
}

// waitStreams blocks until every stream has closed or the timeout
// passes; stragglers are severed.
func (s *Server) waitStreams(timeout time.Duration) {
	done := make(chan struct{})
	go func() {
		s.streamReg.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.streamReg.mu.Lock()
		for c := range s.streamReg.conns {
			c.Close()
		}
		s.streamReg.mu.Unlock()
		<-done
	}
}
