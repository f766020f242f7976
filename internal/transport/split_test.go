package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/iotest"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// chunkReader returns at most n bytes per Read: n = readBufSize hands
// the splitter many frames per call, a small n tears every frame.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// splitStream is the live mix plus the one frame that outgrows the
// receive buffer: control frames, 128 B INVs, a client request/response
// pair, a 1 MB FrameRecoveryEntries, and small frames behind it.
func splitStream() (stream []byte, want []Frame, bigAt int) {
	inv := func(v int) Frame {
		return Frame{Kind: FrameMessage, From: 1, Msg: ddp.Message{
			Kind: ddp.KindInv, From: 1, Key: 7, TS: ddp.Timestamp{Node: 1, Version: ddp.Version(v)},
			Value: bytes.Repeat([]byte{byte(v)}, 128), Size: 128,
		}}
	}
	big := Frame{Kind: FrameRecoveryEntries, From: 2}
	for i := 0; i < 8; i++ {
		big.Entries = append(big.Entries, LogEntry{
			Seq: uint64(i), Key: ddp.Key(i), TS: ddp.Timestamp{Node: 2, Version: 9},
			Value: bytes.Repeat([]byte{byte(i)}, 128<<10),
		})
	}
	want = []Frame{
		{Kind: FrameHello, From: 9, Addr: "127.0.0.1:7100"},
		{Kind: FrameHeartbeat, From: 1},
		inv(1), inv(2), inv(3),
		{Kind: FrameClientRequest, From: 9, Client: 300, Req: ClientRequest{
			Op: OpClientWrite, Key: 5, Value: bytes.Repeat([]byte{0xAB}, 128)}},
		{Kind: FrameClientResponse, From: 1, Client: 300, Resp: ClientResponse{
			Op: OpClientWrite, Status: StatusOK}},
		{Kind: FrameRecoveryRequest, From: 3, Since: 42},
		inv(4),
	}
	bigAt = len(want)
	want = append(want, big, inv(5), Frame{Kind: FrameHeartbeat, From: 2}, inv(6))
	for _, f := range want {
		stream = AppendFrame(stream, f)
	}
	// The reference is the whole-buffer decode, not the frames as built
	// (the codec normalises empty values to nil).
	for i, off := 0, 0; i < len(want); i++ {
		n := int(binary.LittleEndian.Uint32(stream[off:]))
		f, err := DecodeFrame(stream[off+4 : off+4+n])
		if err != nil {
			panic(err)
		}
		want[i], off = f, off+4+n
	}
	return stream, want, bigAt
}

// TestFrameSplitter: however the stream is torn, the delivered sequence
// equals the whole-buffer decode, the counters account every byte once,
// and the buffer the 1 MB frame grew is gone by the next frame.
func TestFrameSplitter(t *testing.T) {
	stream, want, bigAt := splitStream()
	if len(AppendFrame(nil, want[bigAt])) <= readBufSize {
		t.Fatal("the big frame fits the base buffer: the test would not exercise growth")
	}
	// Full windows: everything ahead of the big frame in one read, the
	// big frame in window-sized pieces, the rest in one more.
	fewReads := int64(len(stream)/readBufSize + 3)
	readers := []struct {
		name     string
		wrap     func(io.Reader) io.Reader
		maxReads int64
	}{
		{"many frames per read", func(r io.Reader) io.Reader { return chunkReader{r, readBufSize} }, fewReads},
		{"7-byte reads", func(r io.Reader) io.Reader { return chunkReader{r, 7} }, int64(len(stream))},
		{"OneByteReader", iotest.OneByteReader, int64(len(stream))},
		{"HalfReader", iotest.HalfReader, int64(len(stream))},
		{"DataErrReader", iotest.DataErrReader, int64(len(stream))}, // reads 1 KB at a time
		{"DataErrReader over HalfReader", func(r io.Reader) io.Reader { return iotest.DataErrReader(iotest.HalfReader(r)) }, int64(len(stream))},
	}
	for _, tc := range readers {
		t.Run(tc.name, func(t *testing.T) {
			s, st := newFrameSplitter(), newCounters()
			var got []Frame
			err := s.run(tc.wrap(bytes.NewReader(stream)), &st, func(f Frame) bool {
				if len(got) > bigAt && len(s.buf) != readBufSize {
					t.Errorf("frame %d decoded out of a %d-byte buffer: the grown buffer outlived its frame", len(got), len(s.buf))
				}
				got = append(got, f)
				return true
			})
			if err != io.EOF {
				t.Fatalf("run = %v, want io.EOF", err)
			}
			if len(got) != len(want) {
				t.Fatalf("delivered %d frames, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("frame %d differs from the whole-buffer decode (kind %v)", i, want[i].Kind)
				}
			}
			if len(s.buf) != readBufSize || cap(s.buf) != readBufSize || s.end != 0 {
				t.Errorf("after the stream: len %d cap %d end %d, want the empty %d-byte base buffer",
					len(s.buf), cap(s.buf), s.end, readBufSize)
			}
			if n := st.framesRecv.Load(); n != int64(len(want)) {
				t.Errorf("frames_recv = %d, want %d", n, len(want))
			}
			if n := st.bytesRecv.Load(); n != int64(len(stream)) {
				t.Errorf("bytes_recv = %d, want %d", n, len(stream))
			}
			if n := st.recvReads.Load(); n < 1 || n > tc.maxReads {
				t.Errorf("recv_reads = %d, want 1..%d", n, tc.maxReads)
			}
		})
	}
}

// TestFrameSplitterEndsStream: a zero or oversized length prefix, a body
// that does not decode, a stream cut mid-frame and a deliver that says
// stop each end the run after the frames before them were delivered.
func TestFrameSplitterEndsStream(t *testing.T) {
	good := AppendFrame(nil, Frame{Kind: FrameHeartbeat, From: 1})
	prefix := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name    string
		stream  []byte
		stopAt  int // deliver returns false on this frame (0: never)
		frames  int
		wantErr error // nil: any error that is not io.EOF
	}{
		{"zero prefix", join(good, prefix(0), good), 0, 1, nil},
		{"prefix above maxFrameSize", join(good, good, prefix(maxFrameSize+1)), 0, 2, nil},
		{"undecodable body", join(good, prefix(3), []byte{0xFF, 0xFF, 0xFF}, good), 0, 1, nil},
		{"cut mid-frame", join(good, good[:len(good)-2]), 0, 1, io.EOF},
		{"cut mid-prefix", join(good, good[:2]), 0, 1, io.EOF},
		{"deliver stops", join(good, good, good), 2, 2, ErrClosed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := newCounters()
			frames := 0
			err := newFrameSplitter().run(bytes.NewReader(tc.stream), &st, func(Frame) bool {
				frames++
				return frames != tc.stopAt
			})
			if frames != tc.frames {
				t.Errorf("delivered %d frames, want %d", frames, tc.frames)
			}
			if n := st.framesRecv.Load(); n != int64(tc.frames) {
				t.Errorf("frames_recv = %d, want %d", n, tc.frames)
			}
			switch {
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Errorf("run = %v, want %v", err, tc.wantErr)
			case tc.wantErr == nil && (err == nil || err == io.EOF):
				t.Errorf("run = %v, want a corrupt-stream error", err)
			}
		})
	}
}

// TestTCPReadCoalesces: k small frames that reach the socket back to
// back (one Write, as a peer's writer issues for a coalesced batch)
// arrive in order for a handful of reads. A loop that reads the prefix
// and the body separately needs 2k.
func TestTCPReadCoalesces(t *testing.T) {
	t0, err := NewTCPTransport(0, map[ddp.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	const k = 256
	var batch []byte
	for i := 0; i < k; i++ {
		batch = AppendFrame(batch, Frame{Kind: FrameMessage, From: 1, Msg: ddp.Message{
			Kind: ddp.KindAck, From: 1, Key: 7, TS: ddp.Timestamp{Node: 1, Version: ddp.Version(i)},
		}})
	}
	conn, err := net.Dial("tcp", t0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}

	timeout := time.After(10 * time.Second)
	for i := 0; i < k; i++ {
		select {
		case f := <-t0.Recv():
			if f.Msg.TS.Version != ddp.Version(i) {
				t.Fatalf("frame %d carries version %d: order lost", i, f.Msg.TS.Version)
			}
		case <-timeout:
			t.Fatalf("received %d of %d frames", i, k)
		}
	}
	// recv_reads moves before a read's frames are delivered, so it is
	// final once the last frame is in hand.
	if reads := obs.Collect(t0).Counter("transport.recv_reads"); reads < 1 || reads > k/4 {
		t.Errorf("recv_reads = %d for %d back-to-back frames (%d bytes), want 1..%d", reads, k, len(batch), k/4)
	}
}
