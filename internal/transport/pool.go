package transport

import "sync"

// Buffer pooling for the steady-state send path: encode buffers hold
// runs of frames awaiting one batched Write. (The receive path needs no
// pool: each connection decodes in place out of its own buffer.)

// encBufPool holds batch encode buffers. Stored as *[]byte so Get/Put
// stay allocation-free.
var encBufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getEncBuf() []byte {
	return (*(encBufPool.Get().(*[]byte)))[:0]
}

func putEncBuf(b []byte) {
	if cap(b) > maxPooledEncBuf {
		return // oversized one-offs are not worth retaining
	}
	b = b[:0]
	encBufPool.Put(&b)
}

const maxPooledEncBuf = 1 << 20
