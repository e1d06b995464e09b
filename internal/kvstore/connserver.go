package kvstore

// connServer is the server half of the wire protocol, shared by Backend
// and Frontend: the accept loop with the MaxConns cap, the conn registry
// and the Close drain, idle deadlines, and one admission function. The
// role plugs in only its request handler and the ops exempt from
// admission.
//
// A connection starts in lockstep: its read loop (serveConn) answers
// each corr-0 frame in order. The first frame carrying a non-zero
// correlation ID upgrades it permanently to the pipelined path. Legacy
// clients never send the extension, so they never leave lockstep — the
// upgrade is invisible to them.
//
// Per upgraded connection:
//
//	read loop ──▶ reqCh ──▶ worker pool ──▶ flushCh ──▶ flusher
//
// Workers execute requests concurrently (this is what lets one conn
// saturate every core, and lets a frontend overlap its backend fan-out
// across requests); the flusher writes completions back in whatever
// order they finish, coalescing queued frames into a single writev.
// Both channels are bounded, so a peer that stops draining responses
// eventually blocks the workers and then the read loop — backpressure
// propagates to the socket instead of buffering unboundedly. With an
// idle timeout set, every write carries a deadline of the same length,
// so a peer that stops reading is dropped instead of pinning the conn.

import (
	"bufio"
	"errors"
	"io"
	"log"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"securecache/internal/metrics"
	"securecache/internal/overload"
	"securecache/internal/proto"
)

type connServer struct {
	role   string // log prefix: "backend 3", "frontend"
	handle func(req *proto.Request, scratch *[]byte) *proto.Response
	// exempt ops bypass admission: probes, monitoring and the control
	// plane must answer while the data plane sheds.
	exempt []proto.Op
	// tier is non-nil on a tier frontend: admitted requests count in its
	// in-flight gauge, and every response carries that count as a load
	// hint.
	tier *tierState

	// Overload control: nil gate = unlimited.
	gate        *overload.Gate
	shedTotal   *metrics.Counter // requests answered StatusBusy
	connsShed   *metrics.Counter // connections rejected at accept
	idleTimeout atomic.Int64     // ns; 0 = no limit

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
}

func newConnServer(role string, reg *metrics.Registry, lim overload.Limits, tier *tierState,
	handle func(*proto.Request, *[]byte) *proto.Response, exempt ...proto.Op,
) *connServer {
	return &connServer{
		role:      role,
		handle:    handle,
		exempt:    exempt,
		tier:      tier,
		gate:      overload.NewGate(lim),
		shedTotal: reg.Counter("shed_total"),
		connsShed: reg.Counter("busy_conns_rejected_total"),
		conns:     make(map[net.Conn]bool),
	}
}

// serve accepts connections on l until close. It always returns a
// non-nil error (net.ErrClosed after a clean close).
func (s *connServer) serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// close raced ahead of this goroutine and never saw l: close it
		// here or the port stays bound with nobody accepting (a crashed
		// node could then never restart on its own address).
		l.Close()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		// Shed excess connections before they can hold a goroutine: a
		// connection flood must not starve established clients.
		if !s.gate.AdmitConn() {
			s.connsShed.Inc()
			conn.Close()
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			s.gate.ReleaseConn()
			return net.ErrClosed
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// close stops accepting, closes every connection and waits for their
// goroutines to drain. It reports false, doing nothing, when the server
// was already closed.
func (s *connServer) close() (bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, nil
	}
	s.closed = true
	l := s.listener
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return true, err
}

// armRead and armWrite set the idle deadline for the next read or write
// (no-ops while the idle timeout is off). Without the read deadline a
// slow-loris client (connect, send nothing) holds a goroutine forever;
// without the write deadline so does one that requests a large value
// and never reads it — and in lockstep it holds an in-flight slot too.
func (s *connServer) armRead(conn net.Conn) {
	if d := time.Duration(s.idleTimeout.Load()); d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	}
}

func (s *connServer) armWrite(conn net.Conn) {
	if d := time.Duration(s.idleTimeout.Load()); d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
}

// admit is the one admission path for both loops. Exempt ops run
// unconditionally; anything else takes a gate slot or is shed with
// StatusBusy. held reports a slot the caller must Release: lockstep
// holds it until the response is flushed, so a peer draining responses
// slowly occupies capacity honestly instead of letting the node
// over-admit; pipelined releases it when admit returns, because there
// the bounded flush channel is what bounds a slow-draining peer.
func (s *connServer) admit(req *proto.Request, scratch *[]byte) (resp *proto.Response, held bool) {
	ts := s.tier
	switch {
	case slices.Contains(s.exempt, req.Op):
		resp = s.handle(req, scratch)
	case s.gate.Admit():
		held = true
		if ts != nil {
			ts.inflight.Add(1)
		}
		resp = s.handle(req, scratch)
		if ts != nil {
			ts.inflight.Add(-1)
		}
	default:
		s.shedTotal.Inc()
		resp = &proto.Response{Status: proto.StatusBusy}
	}
	// Tier mode: piggyback this frontend's in-flight count on every
	// response frame — the signal TierClient's two-choice pick compares
	// across a key's candidates. Stamped after the decrement so a
	// client's own completed request is not still counted.
	if ts != nil {
		if n := ts.inflight.Load(); n > 0 {
			resp.Load = uint32(n)
		}
		resp.LoadHinted = true
	}
	return resp, held
}

// serveConn is the one read loop. Corr-0 frames are served in order on
// this goroutine; the first correlated frame starts the pipeline, and
// every later frame goes to its workers.
func (s *connServer) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.gate.ReleaseConn()
		s.wg.Done()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	// Per-connection scratch for single-key read payloads: the backend
	// store copies value bytes straight into it (Store.AppendValue), so a
	// GET costs zero allocations instead of one value copy per request.
	// The response aliasing it is safe because lockstep is strictly
	// sequential — the response is framed and flushed before the next
	// request is read.
	scratch := make([]byte, 0, 512)
	var p *connPipeline // nil until the conn upgrades
	for {
		s.armRead(conn)
		req, err := proto.ReadRequest(r)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
				// Malformed input or mid-frame disconnect: drop the
				// connection (the protocol has no resync point).
				log.Printf("kvstore: %s: read: %v", s.role, err)
			}
			break
		}
		if req.Corr != 0 {
			if p == nil {
				p = s.startPipeline(conn)
			}
			p.reqCh <- req
			continue
		}
		if p != nil {
			// A pipelined peer never reverts to lockstep mid-stream; an
			// uncorrelated frame here means the stream is corrupt.
			log.Printf("kvstore: %s: uncorrelated frame on pipelined conn", s.role)
			break
		}
		resp, held := s.admit(req, &scratch)
		s.armWrite(conn)
		err = proto.WriteResponse(w, resp)
		if err == nil {
			err = w.Flush()
		}
		if held {
			s.gate.Release()
		}
		// Both structs are done once the frame is on the wire; the
		// stored key/value slices they referenced live on unaffected.
		proto.ReleaseRequest(req)
		proto.ReleaseResponse(resp)
		if err != nil {
			break
		}
	}
	if p != nil {
		p.stop()
	}
}

// pipelineWorkers sizes the per-connection worker pool: enough to
// cover the cores for CPU-bound backend handlers, with a floor of 4 so
// a frontend's I/O-bound handlers (each blocks on a backend round
// trip) still overlap even on small machines.
func pipelineWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	if n > 16 {
		n = 16
	}
	return n
}

// connPipeline is an upgraded conn's worker pool and flusher.
type connPipeline struct {
	reqCh   chan *proto.Request
	flushCh chan proto.Frame
	workers sync.WaitGroup
	flusher sync.WaitGroup
}

// startPipeline starts the workers and the flusher for conn. Each worker
// owns a scratch buffer that responses may alias: the worker encodes the
// frame before touching the next request, which makes the aliasing safe
// here exactly as sequencing does in lockstep.
func (s *connServer) startPipeline(conn net.Conn) *connPipeline {
	workers := pipelineWorkers()
	// Queue depth beyond the worker count is what feeds the batched
	// flusher: with room for a full client window on both channels, a
	// 64-deep burst drains as one read syscall in, one writev out. The
	// bound still holds — a peer that stops reading responses fills
	// flushCh, then reqCh, then the socket.
	queue := 4 * workers
	if queue < 64 {
		queue = 64
	}
	p := &connPipeline{
		reqCh:   make(chan *proto.Request, queue),
		flushCh: make(chan proto.Frame, queue),
	}
	p.flusher.Add(1)
	go func() {
		defer p.flusher.Done()
		s.pipeFlush(conn, p.flushCh)
	}()
	for i := 0; i < workers; i++ {
		p.workers.Add(1)
		go func() {
			defer p.workers.Done()
			scratch := make([]byte, 0, 512)
			for req := range p.reqCh {
				resp, held := s.admit(req, &scratch)
				if held {
					s.gate.Release()
				}
				resp.Corr = req.Corr
				frame, err := proto.NewResponseFrame(resp)
				if err != nil {
					// Oversized or otherwise unencodable payload: send a
					// sanitized error in its place so the correlation ID
					// is answered and the client's window slot frees.
					log.Printf("kvstore: %s: encoding response: %v", s.role, err)
					frame, err = proto.NewResponseFrame(&proto.Response{
						Status:  proto.StatusError,
						Payload: []byte("response encoding failed: internal error"),
						Corr:    req.Corr,
					})
				}
				// The frame owns an encoded copy; both structs are done.
				proto.ReleaseRequest(req)
				proto.ReleaseResponse(resp)
				if err != nil {
					continue
				}
				p.flushCh <- frame
			}
		}()
	}
	return p
}

// stop is the orderly drain: no new requests, let workers finish what
// they took, then let the flusher write (or discard, if the conn died)
// what they produced.
func (p *connPipeline) stop() {
	close(p.reqCh)
	p.workers.Wait()
	close(p.flushCh)
	p.flusher.Wait()
}

// pipeFlush writes completed frames in completion order, coalescing
// everything queued at each wakeup into one net.Buffers writev. After a
// write error it keeps draining (releasing frames) so workers never
// block on a dead connection's flush channel.
func (s *connServer) pipeFlush(conn net.Conn, flushCh <-chan proto.Frame) {
	bufs := make([][]byte, 0, 64)
	frames := make([]proto.Frame, 0, 64)
	dead := false
	for first := range flushCh {
		if dead {
			first.Release()
			continue
		}
		bufs, frames = bufs[:0], frames[:0]
		bufs = append(bufs, first.Bytes())
		frames = append(frames, first)
		// Let the workers drain into flushCh before the syscall: on a
		// single P they cannot run while the writev below is in flight,
		// so without this yield every batch ships one frame (see the
		// matching yield in the client's writeLoop).
		runtime.Gosched()
	coalesce:
		for len(frames) < cap(frames) {
			select {
			case f, ok := <-flushCh:
				if !ok {
					break coalesce
				}
				bufs = append(bufs, f.Bytes())
				frames = append(frames, f)
			default:
				break coalesce
			}
		}
		s.armWrite(conn)
		nb := net.Buffers(bufs)
		_, err := nb.WriteTo(conn)
		for _, f := range frames {
			f.Release()
		}
		if err != nil {
			conn.Close() // fails the read loop, which owns shutdown
			dead = true
		}
	}
}
