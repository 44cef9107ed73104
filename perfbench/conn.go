package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors every span timestamp on the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// frameHeader is the size of the pbs wire frame header: a 4-byte
// big-endian payload length and a 1-byte message type.
const frameHeader = 5

// frameCounter follows the frame boundaries of one direction of a
// connection as bytes cross it, in whatever segmentation the writer or
// reader used. It is used by one goroutine at a time.
type frameCounter struct {
	hdr  [frameHeader]byte
	have int    // header bytes collected for the current frame
	left uint32 // payload bytes still to skip
}

// feed consumes p and returns how many frame headers completed in it.
func (f *frameCounter) feed(p []byte) int {
	frames := 0
	for len(p) > 0 {
		if f.left > 0 {
			n := uint32(len(p))
			if n > f.left {
				n = f.left
			}
			f.left -= n
			p = p[n:]
			continue
		}
		n := copy(f.hdr[f.have:], p)
		f.have += n
		p = p[n:]
		if f.have == frameHeader {
			f.have = 0
			f.left = binary.BigEndian.Uint32(f.hdr[:4])
			frames++
		}
	}
	return frames
}

// connStats are the client-side counters of one connection. Bytes and
// frames are always counted (wire_bytes_per_sync needs them); the two
// blocking-time totals only when tracing.
type connStats struct {
	bytes   atomic.Int64 // both directions, frame headers included
	frames  atomic.Int64 // both directions
	writeNs atomic.Int64 // time inside Write
	waitNs  atomic.Int64 // time inside Read: waiting for the responder
}

// clientConn wraps the initiator's end of a loopback connection. Every
// Read and Write is one call into the pbs.conn layer; with tracing on each
// becomes a span tagged with the sync in flight.
type clientConn struct {
	net.Conn
	st     connStats
	rd, wr frameCounter
	tr     atomic.Pointer[tracer] // nil when tracing is off
	syncID atomic.Int64
}

func (c *clientConn) Read(p []byte) (int, error) {
	tr := c.tr.Load()
	if tr == nil {
		n, err := c.Conn.Read(p)
		c.count(&c.rd, p[:n])
		return n, err
	}
	start := nowNs()
	n, err := c.Conn.Read(p)
	end := nowNs()
	c.st.waitNs.Add(end - start)
	tr.span(c.syncID.Load(), "pbs.conn.wait", "pbs.sync", start, end)
	c.count(&c.rd, p[:n])
	return n, err
}

func (c *clientConn) Write(p []byte) (int, error) {
	tr := c.tr.Load()
	if tr == nil {
		n, err := c.Conn.Write(p)
		c.count(&c.wr, p[:n])
		return n, err
	}
	start := nowNs()
	n, err := c.Conn.Write(p)
	end := nowNs()
	c.st.writeNs.Add(end - start)
	tr.span(c.syncID.Load(), "pbs.conn.write", "pbs.sync", start, end)
	c.count(&c.wr, p[:n])
	return n, err
}

func (c *clientConn) count(fc *frameCounter, p []byte) {
	c.st.bytes.Add(int64(len(p)))
	if f := fc.feed(p); f > 0 {
		c.st.frames.Add(int64(f))
	}
}

// serverConn wraps the responder's end. With tracing on it measures the
// responder's self time: from the moment a read completes to the start of
// the next reply write, the span in which the server parses, plans,
// decodes and encodes while the initiator waits.
type serverConn struct {
	net.Conn
	tr          atomic.Pointer[tracer]
	lastReadEnd atomic.Int64 // 0 once a write has consumed it
	selfNs      atomic.Int64
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.tr.Load() != nil {
		c.lastReadEnd.Store(nowNs())
	}
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	if tr := c.tr.Load(); tr != nil {
		if start := c.lastReadEnd.Swap(0); start != 0 {
			end := nowNs()
			c.selfNs.Add(end - start)
			tr.span(-1, "pbs.responder", "", start, end)
		}
	}
	return c.Conn.Write(p)
}

// benchListener hands the server wrapped connections and lets the client
// find the server end of its own connection by address.
type benchListener struct {
	net.Listener

	mu    sync.Mutex
	conns map[string]*serverConn // keyed by the client's local address
	ready *sync.Cond
}

func newBenchListener() (*benchListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	bl := &benchListener{Listener: ln, conns: make(map[string]*serverConn)}
	bl.ready = sync.NewCond(&bl.mu)
	return bl, nil
}

func (l *benchListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := &serverConn{Conn: c}
	l.mu.Lock()
	l.conns[c.RemoteAddr().String()] = sc
	l.ready.Broadcast()
	l.mu.Unlock()
	return sc, nil
}

// dial opens one client connection and waits until the server has
// accepted it, returning both wrapped ends.
func (l *benchListener) dial() (*clientConn, *serverConn, error) {
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	key := c.LocalAddr().String()
	l.mu.Lock()
	for l.conns[key] == nil {
		l.ready.Wait()
	}
	sc := l.conns[key]
	l.mu.Unlock()
	return &clientConn{Conn: c}, sc, nil
}

// span is one traced interval. Sync ties the spans of one sync together
// (-1 when the recording side cannot know it, as on the server end).
type span struct {
	Sync   int64  `json:"sync"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// setTracer switches tracing on (tr != nil) or off for both ends of a
// connection. It is called between syncs by the one goroutine that drives
// the connection.
func setTracer(cc *clientConn, sc *serverConn, tr *tracer) {
	cc.tr.Store(tr)
	sc.tr.Store(tr)
	if tr == nil {
		sc.lastReadEnd.Store(0)
	}
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) span(id int64, name, parent string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Sync: id, Name: name, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}
