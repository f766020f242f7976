// Fixture protocol metadata: the path element "ddp" makes these
// persistency predicates evidence seeds for the persistorder analyzer.
package ddp

type Meta struct{}

func (m *Meta) PersistencyDone(txn uint64) bool { return true }

type WriteTxn struct{}

func (w *WriteTxn) AckedP() bool { return true }

// MsgKind is the protocol message kind; a pipeline method taking one is
// an ack-carrying enqueue.
type MsgKind int

const (
	KindAck MsgKind = iota + 1
	KindAckP
)
