// Package transport carries DDP protocol messages between live MINOS-B
// nodes. It provides a compact binary codec, an in-process transport for
// tests and single-binary clusters, and a TCP transport for real
// deployments — the role eRPC plays in the paper (§VII). The transport
// also carries control frames the protocol layer does not see:
// heartbeats for failure detection and log-shipping frames for recovery
// (§III-E).
package transport

import (
	"encoding/binary"
	"fmt"

	"github.com/minos-ddp/minos/internal/ddp"
)

// FrameKind distinguishes what a frame carries.
type FrameKind uint8

const (
	// FrameMessage carries one ddp.Message.
	FrameMessage FrameKind = iota
	// FrameHeartbeat is a liveness beacon (payload: none).
	FrameHeartbeat
	// FrameRecoveryRequest asks a peer for its log tail (payload: the
	// first log sequence number the requester is missing).
	FrameRecoveryRequest
	// FrameRecoveryEntries carries a batch of log entries.
	FrameRecoveryEntries
	// FrameClientRequest carries one client operation into a node's
	// admission frontend. Frame.Client identifies the logical client
	// (many are multiplexed over one endpoint); the response echoes it.
	FrameClientRequest
	// FrameClientResponse carries a node's reply to a client request,
	// demultiplexed at the client endpoint by Frame.Client.
	FrameClientResponse
	// FrameHello announces the sender's listen address so a TCP node can
	// open a return path to a client endpoint it never dialed (payload:
	// the address string). In-process fabrics wire return paths at
	// construction and never send it.
	FrameHello
)

// ClientOp is the operation a FrameClientRequest asks for.
type ClientOp uint8

const (
	// OpClientRead reads a key.
	OpClientRead ClientOp = iota
	// OpClientWrite writes a key. Under <Lin, Scope> the write joins
	// the client endpoint's open scope at the serving node.
	OpClientWrite
	// OpClientPersist flushes the client endpoint's open scope at the
	// serving node (<Lin, Scope>): once it answers OK, every write the
	// endpoint had sent that node before it is durable on every node.
	// Elsewhere it is a no-op acknowledgment.
	OpClientPersist
	// OpClientStats asks for the serving node's observability snapshot
	// (its own layers and its transport's wire counters) as JSON.
	OpClientStats
)

// ClientStatus is the outcome a FrameClientResponse reports.
type ClientStatus uint8

const (
	// StatusOK means the operation completed.
	StatusOK ClientStatus = iota
	// StatusShed means the node's admission window was full and the
	// operation was never executed. Shed work is reported, not retried.
	StatusShed
	// StatusErr means the operation was admitted but failed.
	StatusErr
	// StatusNotFound answers a read of a key the node holds no value
	// for; an empty value reads StatusOK.
	StatusNotFound
)

// ClientRequest is FrameClientRequest's payload.
type ClientRequest struct {
	Op    ClientOp
	Key   ddp.Key
	Value []byte
}

// ClientResponse is FrameClientResponse's payload.
type ClientResponse struct {
	Op     ClientOp
	Status ClientStatus
	Value  []byte
}

// Frame is one unit on the wire.
type Frame struct {
	Kind FrameKind
	From ddp.NodeID
	// Client is the logical-client id for FrameClientRequest/Response —
	// how a load engine multiplexes many clients over one endpoint. It
	// rides the header as a uvarint, so the protocol frames that never
	// set it (the overwhelming majority) pay one zero byte.
	Client uint64
	// Msg is set for FrameMessage.
	Msg ddp.Message
	// Since is set for FrameRecoveryRequest.
	Since uint64
	// Entries is set for FrameRecoveryEntries.
	Entries []LogEntry
	// Req is set for FrameClientRequest.
	Req ClientRequest
	// Resp is set for FrameClientResponse.
	Resp ClientResponse
	// Addr is set for FrameHello.
	Addr string
}

// LogEntry is a recovery log record shipped to a rejoining node.
type LogEntry struct {
	Seq   uint64
	Key   ddp.Key
	TS    ddp.Timestamp
	Value []byte
	Scope ddp.ScopeID
}

const maxFrameSize = 64 << 20 // hard cap against corrupt length prefixes

// EncodeFrame serializes f with a little-endian binary layout:
//
//	u32 payload length | u8 kind | i32 from | uvarint client | payload
func EncodeFrame(f Frame) []byte {
	return AppendFrame(nil, f)
}

// AppendFrame appends f's full wire encoding (length prefix included) to
// dst and returns the extended slice. It is the allocation-free encode
// path: batching senders append frame after frame into one pooled buffer
// and hand the whole run to a single Write.
//
//minos:hotpath
func AppendFrame(dst []byte, f Frame) []byte {
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // length backpatched below
	dst = append(dst, byte(f.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.From))
	dst = binary.AppendUvarint(dst, f.Client)
	switch f.Kind {
	case FrameMessage:
		dst = appendMessage(dst, f.Msg)
	case FrameHeartbeat:
	case FrameRecoveryRequest:
		dst = binary.LittleEndian.AppendUint64(dst, f.Since)
	case FrameRecoveryEntries:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Entries)))
		for _, e := range f.Entries {
			dst = appendLogEntry(dst, e)
		}
	case FrameClientRequest:
		dst = append(dst, byte(f.Req.Op))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Req.Key))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Req.Value)))
		dst = append(dst, f.Req.Value...)
	case FrameClientResponse:
		dst = append(dst, byte(f.Resp.Op), byte(f.Resp.Status))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Resp.Value)))
		dst = append(dst, f.Resp.Value...)
	case FrameHello:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Addr)))
		dst = append(dst, f.Addr...)
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

//minos:hotpath
func appendMessage(b []byte, m ddp.Message) []byte {
	b = append(b, byte(m.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.From))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Key))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.TS.Node))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.TS.Version))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Scope))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Value)))
	b = append(b, m.Value...)
	return b
}

//minos:hotpath
func appendLogEntry(b []byte, e LogEntry) []byte {
	b = binary.LittleEndian.AppendUint64(b, e.Seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Key))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.TS.Node))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.TS.Version))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Scope))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Value)))
	b = append(b, e.Value...)
	return b
}

// DecodeFrame parses one frame from buf, which must contain exactly the
// bytes after the length prefix (kind onward).
func DecodeFrame(buf []byte) (Frame, error) {
	return decodeFrame(buf, false)
}

// DecodeFrameBorrowed is DecodeFrame without the defensive copy of
// Msg.Value: the returned frame's value aliases buf and is only valid
// while buf is. It is the zero-copy decode path for ring-fabric inline
// delivery, where the frame is consumed synchronously before the ring
// storage is released. Recovery entries are always copied — they
// outlive the frame by design (they land in the log).
//
//minos:hotpath
func DecodeFrameBorrowed(buf []byte) (Frame, error) {
	return decodeFrame(buf, true)
}

func decodeFrame(buf []byte, borrow bool) (Frame, error) {
	var f Frame
	r := reader{buf: buf, borrow: borrow}
	kind, err := r.u8()
	if err != nil {
		return f, err
	}
	f.Kind = FrameKind(kind)
	from, err := r.u32()
	if err != nil {
		return f, err
	}
	f.From = ddp.NodeID(int32(from))
	if f.Client, err = r.uvarint(); err != nil {
		return f, err
	}
	switch f.Kind {
	case FrameMessage:
		f.Msg, err = r.message()
	case FrameHeartbeat:
	case FrameRecoveryRequest:
		f.Since, err = r.u64()
	case FrameClientRequest:
		f.Req, err = r.clientRequest()
	case FrameClientResponse:
		f.Resp, err = r.clientResponse()
	case FrameHello:
		var addr []byte
		if addr, err = r.bytes(); err == nil {
			f.Addr = string(addr)
		}
	case FrameRecoveryEntries:
		var n uint32
		if n, err = r.u32(); err == nil {
			if int(n) > maxFrameSize/16 {
				return f, fmt.Errorf("transport: absurd entry count %d", n)
			}
			f.Entries = make([]LogEntry, 0, n)
			for i := uint32(0); i < n && err == nil; i++ {
				var e LogEntry
				e, err = r.logEntry()
				f.Entries = append(f.Entries, e)
			}
		}
	default:
		return f, fmt.Errorf("transport: unknown frame kind %d", kind)
	}
	if err != nil {
		return f, fmt.Errorf("transport: decoding %v frame: %w", f.Kind, err)
	}
	if r.off != len(r.buf) {
		return f, fmt.Errorf("transport: %d trailing bytes in %v frame", len(r.buf)-r.off, f.Kind)
	}
	return f, nil
}

type reader struct {
	buf    []byte
	off    int
	borrow bool // message values alias buf instead of being copied
}

func (r *reader) need(n int) error {
	if r.off+n > len(r.buf) {
		return fmt.Errorf("truncated at offset %d (need %d of %d)", r.off, n, len(r.buf))
	}
	return nil
}

func (r *reader) u8() (uint8, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if err := r.need(int(n)); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += int(n)
	return out, nil
}

// bytesShared is bytes without the copy when the reader is in borrow
// mode; the result aliases r.buf. Used only for message values, whose
// borrowed lifetime the transport contract defines.
//
//minos:hotpath
func (r *reader) bytesShared() ([]byte, error) {
	if !r.borrow {
		return r.bytes()
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if err := r.need(int(n)); err != nil {
		return nil, err
	}
	out := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return out, nil
}

func (r *reader) message() (ddp.Message, error) {
	var m ddp.Message
	kind, err := r.u8()
	if err != nil {
		return m, err
	}
	m.Kind = ddp.MsgKind(kind)
	if !m.Kind.Valid() {
		return m, fmt.Errorf("illegal message kind %d", kind)
	}
	from, err := r.u32()
	if err != nil {
		return m, err
	}
	m.From = ddp.NodeID(int32(from))
	key, err := r.u64()
	if err != nil {
		return m, err
	}
	m.Key = ddp.Key(key)
	node, err := r.u32()
	if err != nil {
		return m, err
	}
	ver, err := r.u64()
	if err != nil {
		return m, err
	}
	m.TS = ddp.Timestamp{Node: ddp.NodeID(int32(node)), Version: ddp.Version(int64(ver))}
	sc, err := r.u64()
	if err != nil {
		return m, err
	}
	m.Scope = ddp.ScopeID(sc)
	m.Value, err = r.bytesShared()
	m.Size = ddp.DataSize(len(m.Value))
	return m, err
}

func (r *reader) clientRequest() (ClientRequest, error) {
	var q ClientRequest
	op, err := r.u8()
	if err != nil {
		return q, err
	}
	q.Op = ClientOp(op)
	key, err := r.u64()
	if err != nil {
		return q, err
	}
	q.Key = ddp.Key(key)
	// Like message values, request values borrow the wire buffer on the
	// zero-copy decode path; the node copies what it keeps before the
	// callback returns.
	q.Value, err = r.bytesShared()
	return q, err
}

func (r *reader) clientResponse() (ClientResponse, error) {
	var p ClientResponse
	op, err := r.u8()
	if err != nil {
		return p, err
	}
	p.Op = ClientOp(op)
	st, err := r.u8()
	if err != nil {
		return p, err
	}
	p.Status = ClientStatus(st)
	p.Value, err = r.bytesShared()
	return p, err
}

func (r *reader) logEntry() (LogEntry, error) {
	var e LogEntry
	var err error
	if e.Seq, err = r.u64(); err != nil {
		return e, err
	}
	key, err := r.u64()
	if err != nil {
		return e, err
	}
	e.Key = ddp.Key(key)
	node, err := r.u32()
	if err != nil {
		return e, err
	}
	ver, err := r.u64()
	if err != nil {
		return e, err
	}
	e.TS = ddp.Timestamp{Node: ddp.NodeID(int32(node)), Version: ddp.Version(int64(ver))}
	sc, err := r.u64()
	if err != nil {
		return e, err
	}
	e.Scope = ddp.ScopeID(sc)
	e.Value, err = r.bytes()
	return e, err
}
