// Fixture durability primitives: the path element "nvm" makes these
// methods the persistorder analyzer's typed evidence seeds.
package nvm

import "persistorder/ddp"

type Entry struct{ Key string }

type Pipeline struct{}

func (p *Pipeline) Persist(e Entry)              {}
func (p *Pipeline) PersistMany(es []Entry) bool  { return len(es) >= 0 }
func (p *Pipeline) Enqueue(e Entry, then func()) {}

// EnqueueAck queues e with the acknowledgment kind the pipeline's ack
// hook sends once e's group commit is appended.
func (p *Pipeline) EnqueueAck(e Entry, to int, kind ddp.MsgKind) bool { return true }

type Log struct{}

func (l *Log) LocallyDurable(seq uint64) bool { return true }
