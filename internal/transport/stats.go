package transport

import (
	"github.com/minos-ddp/minos/internal/obs"
)

// counters is the registry-backed instrument set shared by every
// transport implementation. All instruments live in one obs.Registry
// under the "transport" prefix, so a cluster's endpoints aggregate by
// a plain snapshot merge.
type counters struct {
	reg         *obs.Registry
	framesSent  *obs.Counter
	framesRecv  *obs.Counter
	batchesSent *obs.Counter
	bytesSent   *obs.Counter
	bytesRecv   *obs.Counter
	recvReads   *obs.Counter
	encodes     *obs.Counter
	broadcasts  *obs.Counter
	redials     *obs.Counter
	sendErrors  *obs.Counter
	pollerPokes *obs.Counter
	// batchFrames buckets frames-per-batch (power-of-two bounds),
	// replacing the old fixed 8-bucket BatchHist array.
	batchFrames *obs.Histogram
}

// newCounters builds the instrument set. Instrument names (all under
// the "transport." prefix): frames_sent, frames_recv, batches_sent,
// bytes_sent, bytes_recv, recv_reads, encodes, broadcasts, redials,
// send_errors, poller_pokes (ring wakes of a parked poller), and the
// frames_per_batch histogram. recv_reads counts
// socket reads that returned data (TCP only, 0 on the in-process
// fabrics): frames_recv / recv_reads is the receive twin of
// frames_per_batch.
func newCounters() counters {
	reg := obs.NewRegistry("transport")
	return counters{
		reg:         reg,
		framesSent:  reg.Counter("frames_sent"),
		framesRecv:  reg.Counter("frames_recv"),
		batchesSent: reg.Counter("batches_sent"),
		bytesSent:   reg.Counter("bytes_sent"),
		bytesRecv:   reg.Counter("bytes_recv"),
		recvReads:   reg.Counter("recv_reads"),
		encodes:     reg.Counter("encodes"),
		broadcasts:  reg.Counter("broadcasts"),
		redials:     reg.Counter("redials"),
		sendErrors:  reg.Counter("send_errors"),
		pollerPokes: reg.Counter("poller_pokes"),
		batchFrames: reg.Histogram("frames_per_batch"),
	}
}

func (c *counters) noteBatch(frames, bytes int) {
	c.batchesSent.Add(1)
	c.framesSent.Add(int64(frames))
	c.bytesSent.Add(int64(bytes))
	c.batchFrames.Observe(int64(frames))
}

// collect appends the instrument values to s (Source plumbing for the
// owning transport).
func (c *counters) collect(s *obs.Snapshot) { c.reg.Collect(s) }
