package dist

// The binary shard stream's wire format: length-prefixed frames over
// one persistent connection obtained by upgrading a plain HTTP request
// on PathStream. Every frame is
//
//	uint32 LE payload length | uint8 frame type | payload
//
// and the conversation is strictly ordered per connection:
//
//	coordinator → hello            magic + ProtoVersion
//	worker      → hello            echo (mismatch ⇒ the coordinator
//	                               abandons the worker)
//	coordinator → request          id + montecarlo.Request JSON, once
//	                               per estimation — the identity is
//	                               never repeated per batch
//	coordinator → batch…           id + compact [start,count) index
//	                               ranges; pipelined, so the worker
//	                               always has the next batch buffered
//	                               while evaluating the current one
//	worker      → result…          id + per-shard raw accumulator
//	                               states (AccumulatorStateSize bytes a
//	                               piece, IEEE-754 bit patterns)
//	worker      → error            fatal flag + message (job-level
//	                               rejections; the coordinator abandons
//	                               the worker)
//	worker      → goodbye          drain notice: the worker finished
//	                               its current batch and is shutting
//	                               down; unanswered batches must be
//	                               re-dispatched elsewhere
//
// Results arrive in batch order per connection, so the coordinator
// matches them FIFO; no sequence numbers are needed beyond the request
// id. Corruption cannot pass silently: the magic guards the handshake,
// the length prefix bounds every read, and any malformed payload is a
// decode error that names the worker.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"carriersense/internal/montecarlo"
)

// PathStream is the endpoint a coordinator upgrades to the binary
// shard stream. Any answer but 101 Switching Protocols gets the worker
// abandoned.
const PathStream = "/v1/stream"

// streamUpgrade is the HTTP Upgrade token that switches a connection
// to the frame protocol.
const streamUpgrade = "carriersense-frames"

// frameMagic opens every hello payload ("CSBF": carrier sense binary
// frames). A connection whose first frame does not carry it is not a
// shard stream — some other client on the port — and is dropped.
const frameMagic uint32 = 0x43534246

// maxFramePayload bounds a single frame. The largest legitimate frame
// is a result batch (shards × dim × AccumulatorStateSize bytes —
// kilobytes); anything beyond this is a corrupt length prefix, and
// failing here keeps a flipped bit from turning into a gigabyte
// allocation.
const maxFramePayload = 16 << 20

type frameType uint8

const (
	frameHello frameType = iota + 1
	frameRequest
	frameBatch
	frameResult
	frameError
	frameGoodbye
)

func (t frameType) String() string {
	switch t {
	case frameHello:
		return "hello"
	case frameRequest:
		return "request"
	case frameBatch:
		return "batch"
	case frameResult:
		return "result"
	case frameError:
		return "error"
	case frameGoodbye:
		return "goodbye"
	}
	return fmt.Sprintf("frame#%d", uint8(t))
}

// writeFrame appends one frame to w. The caller flushes; batch writes
// coalesce a request frame and its first batches into one segment.
func writeFrame(w *bufio.Writer, t frameType, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	if err == nil {
		mBytesBinaryTx.Add(int64(5 + len(payload)))
	}
	return err
}

// readFrame reads one frame, reusing *scratch across calls for the
// payload.
func readFrame(r *bufio.Reader, scratch *[]byte) (frameType, []byte, error) {
	var hdr [5]byte
	if _, err := readFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	t := frameType(hdr[4])
	if t < frameHello || t > frameGoodbye {
		return 0, nil, fmt.Errorf("unknown frame type %d (corrupt stream?)", hdr[4])
	}
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%s frame claims %d-byte payload (corrupt length prefix?)", t, n)
	}
	if cap(*scratch) < int(n) {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if _, err := readFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("%s frame truncated: %w", t, err)
	}
	mBytesBinaryRx.Add(int64(5 + n))
	return t, buf, nil
}

// readFull is io.ReadFull without the io import dance on every call
// site; a short read is an error.
func readFull(r *bufio.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// --- hello -----------------------------------------------------------

func encodeHello() []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], frameMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(ProtoVersion))
	return b[:]
}

func decodeHello(payload []byte) (proto int, err error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("hello frame is %d bytes, want 8", len(payload))
	}
	if m := binary.LittleEndian.Uint32(payload[:4]); m != frameMagic {
		return 0, fmt.Errorf("hello magic %#x, want %#x (not a shard stream)", m, frameMagic)
	}
	return int(binary.LittleEndian.Uint32(payload[4:])), nil
}

// --- request ---------------------------------------------------------

// The request frame carries the estimation identity once per stream
// and estimation: the kernel name, params JSON, seed, budget, sampler.
// Batches then reference it by id, so identity bytes are paid once, not
// per batch. JSON is fine here — params are JSON already, and the
// frame is amortized over the whole estimation.

func encodeRequest(id uint32, req montecarlo.Request) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 4, 4+len(body))
	binary.LittleEndian.PutUint32(b, id)
	return append(b, body...), nil
}

func decodeRequest(payload []byte) (id uint32, req montecarlo.Request, err error) {
	if len(payload) < 4 {
		return 0, req, fmt.Errorf("request frame is %d bytes, want >= 4", len(payload))
	}
	id = binary.LittleEndian.Uint32(payload)
	if err := json.Unmarshal(payload[4:], &req); err != nil {
		return 0, req, fmt.Errorf("request frame body: %w", err)
	}
	return id, req, nil
}

// --- batch -----------------------------------------------------------

// A batch frame is the request id plus compact [start, start+count)
// index ranges. The coordinator claims mostly-contiguous runs from the
// pending queue, so a typical batch is one range — 8 bytes for 8
// shards.

func encodeBatch(id uint32, indices []int) []byte {
	b := make([]byte, 8, 8+8*4)
	binary.LittleEndian.PutUint32(b, id)
	ranges := 0
	for i := 0; i < len(indices); {
		j := i + 1
		for j < len(indices) && indices[j] == indices[j-1]+1 {
			j++
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(indices[i]))
		b = binary.LittleEndian.AppendUint32(b, uint32(j-i))
		ranges++
		i = j
	}
	binary.LittleEndian.PutUint32(b[4:8], uint32(ranges))
	return b
}

func decodeBatch(payload []byte) (id uint32, indices []int, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("batch frame is %d bytes, want >= 8", len(payload))
	}
	id = binary.LittleEndian.Uint32(payload)
	ranges := binary.LittleEndian.Uint32(payload[4:])
	if int(ranges)*8 != len(payload)-8 {
		return 0, nil, fmt.Errorf("batch frame claims %d ranges in %d payload bytes", ranges, len(payload))
	}
	off := 8
	for k := uint32(0); k < ranges; k++ {
		start := binary.LittleEndian.Uint32(payload[off:])
		count := binary.LittleEndian.Uint32(payload[off+4:])
		off += 8
		if count == 0 || uint64(start)+uint64(count) > math.MaxInt32 {
			return 0, nil, fmt.Errorf("batch frame range [%d,+%d) invalid", start, count)
		}
		for idx := start; idx < start+count; idx++ {
			indices = append(indices, int(idx))
		}
	}
	return id, indices, nil
}

// --- result ----------------------------------------------------------

// A result frame answers one batch: per shard, the index and dim raw
// accumulator states. The states are the exact bit patterns the worker
// computed; the coordinator's merge is therefore bit-identical to a
// local run by construction.

func encodeResult(id uint32, dim int, indices []int, accs [][]montecarlo.Accumulator) []byte {
	b := make([]byte, 0, 12+len(indices)*(4+dim*montecarlo.AccumulatorStateSize))
	b = binary.LittleEndian.AppendUint32(b, id)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(indices)))
	b = binary.LittleEndian.AppendUint32(b, uint32(dim))
	for i, idx := range indices {
		b = binary.LittleEndian.AppendUint32(b, uint32(idx))
		for _, acc := range accs[i] {
			b = acc.State().AppendBinary(b)
		}
	}
	return b
}

// decodeResult decodes a result frame into per-shard accumulators,
// verifying the shard indices match the batch that was sent (results
// are FIFO per connection).
func decodeResult(payload []byte, wantIndices []int, wantDim int) (id uint32, accs [][]montecarlo.Accumulator, err error) {
	if len(payload) < 12 {
		return 0, nil, fmt.Errorf("result frame is %d bytes, want >= 12", len(payload))
	}
	id = binary.LittleEndian.Uint32(payload)
	shards := binary.LittleEndian.Uint32(payload[4:])
	dim := binary.LittleEndian.Uint32(payload[8:])
	if int(shards) != len(wantIndices) {
		return 0, nil, fmt.Errorf("result frame carries %d shards, batch asked %d", shards, len(wantIndices))
	}
	if int(dim) != wantDim {
		return 0, nil, fmt.Errorf("result frame carries %d components, request wants %d", dim, wantDim)
	}
	per := 4 + wantDim*montecarlo.AccumulatorStateSize
	if len(payload)-12 != int(shards)*per {
		return 0, nil, fmt.Errorf("result frame is %d bytes, want %d for %d shards × %d components",
			len(payload), 12+int(shards)*per, shards, dim)
	}
	off := 12
	accs = make([][]montecarlo.Accumulator, shards)
	for i := range accs {
		idx := binary.LittleEndian.Uint32(payload[off:])
		off += 4
		if int(idx) != wantIndices[i] {
			return 0, nil, fmt.Errorf("result frame shard %d at position %d, batch asked %d", idx, i, wantIndices[i])
		}
		row := make([]montecarlo.Accumulator, wantDim)
		for j := range row {
			st, err := montecarlo.DecodeAccumulatorState(payload[off:])
			if err != nil {
				return 0, nil, err
			}
			row[j] = montecarlo.FromState(st)
			off += montecarlo.AccumulatorStateSize
		}
		accs[i] = row
	}
	return id, accs, nil
}

// --- error / goodbye -------------------------------------------------

func encodeError(fatal bool, msg string) []byte {
	b := make([]byte, 1, 1+len(msg))
	if fatal {
		b[0] = 1
	}
	return append(b, msg...)
}

func decodeError(payload []byte) (fatal bool, msg string, err error) {
	if len(payload) < 1 {
		return false, "", fmt.Errorf("error frame is empty")
	}
	return payload[0] != 0, string(payload[1:]), nil
}
