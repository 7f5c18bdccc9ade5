package transport

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"mendel/internal/obs"
	"mendel/internal/wire"
)

// The TCP protocol is one framing from the first byte of every
// connection: length-prefixed frames ([flags byte][uvarint length][payload])
// carrying strict request/response exchanges. Hot messages use the wire
// package's hand-rolled binary codec (flags codec bit set); cold messages
// ride as self-contained gob envelopes inside a frame (codec bit clear).
// Block-transfer request frames may be flate-compressed (flags compression
// bit): produced only when the sender enables compression, decoded
// unconditionally. A frame with any other flag bit set — what a peer
// speaking a different protocol sends first — drops the connection.
type reqEnvelope struct {
	V  any
	TC obs.TraceContext
}

type respEnvelope struct {
	V   any
	Err string
}

// Frame flag bits and limits.
const (
	// frameBinary marks a payload encoded with the wire binary codec;
	// clear means a self-contained gob envelope payload.
	frameBinary byte = 1 << 0
	// frameCompressed marks a flate-compressed payload.
	frameCompressed byte = 1 << 1

	// maxFrameHeader is the widest possible frame header: flags plus a
	// uvarint length. Frame builders reserve this much padding up front so
	// header and payload go out in a single Write.
	maxFrameHeader = 1 + binary.MaxVarintLen64

	// maxFramePayload bounds a frame (and its decompressed form) so a
	// corrupt or adversarial length prefix cannot force a huge allocation.
	maxFramePayload = 1 << 30

	// frameChunk is the most readFrame allocates before payload bytes
	// arrive; larger frames grow their buffer as they are read, so a
	// length prefix alone cannot reserve more memory than this.
	frameChunk = 1 << 20

	// compressMin is the smallest payload worth deflating.
	compressMin = 512
)

// WireConfig tunes a TCP client's outgoing frames; the zero value (no
// compression) is the default everywhere.
type WireConfig struct {
	// Compress enables flate compression of outgoing block-transfer
	// request frames (wire.Compressible messages). Decompression is always
	// supported, so only the sending side needs the flag.
	Compress bool
}

// TCPServer serves a node's handler over a TCP listener.
type TCPServer struct {
	ln net.Listener

	mu      sync.Mutex
	handler Handler
	reg     *obs.Registry
	conns   map[net.Conn]bool
	closed  bool
	wg      sync.WaitGroup
}

// Observe attaches a metrics registry: connections accepted afterwards
// count request totals, handler errors, handler latency and bytes in/out.
func (s *TCPServer) Observe(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
}

// SetHandler installs or replaces the request handler. It exists so a node
// can learn its bound address (needed for its own identity) before wiring
// itself in; requests arriving while no handler is set receive an error.
func (s *TCPServer) SetHandler(h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

// ListenTCP starts serving handler on addr (e.g. "127.0.0.1:0") and returns
// the server; Addr reports the bound address.
func ListenTCP(addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &TCPServer{ln: ln, handler: h, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's bound address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all open connections, waiting for handler
// goroutines to drain.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	s.mu.Lock()
	reg := s.reg
	s.mu.Unlock()
	var rw io.ReadWriter = conn
	if reg != nil {
		rw = &countingConn{Conn: conn,
			sent: reg.Counter("server_bytes_sent"), recv: reg.Counter("server_bytes_recv")}
	}
	br := bufio.NewReader(rw)
	for {
		flags, payload, err := readFrame(br)
		if err != nil {
			return
		}
		reqTC, reqV, err := decodeFrameRequest(flags, payload)
		if err != nil {
			// Protocol corruption: drop the connection rather than
			// answer garbage.
			return
		}
		s.mu.Lock()
		h := s.handler
		s.mu.Unlock()
		var respV any
		var errStr string
		start := time.Now()
		if h == nil {
			errStr = "transport: server has no handler installed"
		} else {
			resp, err := safeHandle(h, reqTC, reqV)
			respV = resp
			if err != nil {
				respV, errStr = nil, err.Error()
			}
		}
		if reg != nil {
			reg.Counter("server_requests").Inc()
			reg.Histogram("server_handle_ns").Observe(time.Since(start).Nanoseconds())
			reg.Histogram("server_handle_ns." + reqName(reqV)).Observe(time.Since(start).Nanoseconds())
			if errStr != "" {
				reg.Counter("server_errors").Inc()
			}
		}
		if err := writeFrameResponse(rw, respV, errStr); err != nil {
			return
		}
	}
}

// safeHandle invokes the handler, converting a panic into an error so one
// poisoned request surfaces as a RemoteError on the client instead of
// killing the connection goroutine (and, unrecovered, the whole node). A
// valid trace context from the request envelope is re-injected into the
// handler's context, completing server-side trace extraction.
func safeHandle(h Handler, tc obs.TraceContext, req any) (resp any, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("transport: handler panic on %T: %v", req, r)
		}
	}()
	ctx := context.Background()
	if tc.Valid() {
		ctx = obs.ContextWithTrace(ctx, tc)
	}
	return h.Handle(ctx, req)
}

// TCPClient is a Caller over TCP with a small per-address connection pool.
type TCPClient struct {
	dialTimeout time.Duration
	poolSize    int

	mu       sync.Mutex
	reg      *obs.Registry
	pools    map[string]chan *tcpConn
	compress bool
}

// Observe attaches a metrics registry: connections dialed afterwards count
// rpc_bytes_sent / rpc_bytes_recv, and every fresh dial counts rpc_dials.
// Pooled connections dialed before the registry was attached are dropped so
// the byte accounting covers all subsequent traffic.
func (c *TCPClient) Observe(reg *obs.Registry) {
	c.mu.Lock()
	c.reg = reg
	pools := c.pools
	c.pools = make(map[string]chan *tcpConn)
	c.mu.Unlock()
	drainPools(pools)
}

// SetWire configures the client's outgoing frames: Compress deflates
// block-transfer request frames.
func (c *TCPClient) SetWire(wc WireConfig) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.compress = wc.Compress
}

// tcpConn is one pooled connection.
type tcpConn struct {
	c  net.Conn
	w  io.Writer // conn, byte-counting when a registry is attached
	br *bufio.Reader
}

// NewTCPClient creates a client keeping up to poolSize idle connections per
// address (0 selects 4).
func NewTCPClient(poolSize int) *TCPClient {
	if poolSize <= 0 {
		poolSize = 4
	}
	return &TCPClient{
		dialTimeout: 5 * time.Second,
		poolSize:    poolSize,
		pools:       make(map[string]chan *tcpConn),
	}
}

func (c *TCPClient) pool(addr string) chan *tcpConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pools[addr]
	if !ok {
		p = make(chan *tcpConn, c.poolSize)
		c.pools[addr] = p
	}
	return p
}

func (c *TCPClient) get(ctx context.Context, addr string) (tc *tcpConn, pooled bool, err error) {
	select {
	case tc := <-c.pool(addr):
		return tc, true, nil
	default:
	}
	d := net.Dialer{Timeout: c.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	c.mu.Lock()
	reg := c.reg
	c.mu.Unlock()
	var rw io.ReadWriter = conn
	if reg != nil {
		reg.Counter("rpc_dials").Inc()
		rw = &countingConn{Conn: conn,
			sent: reg.Counter("rpc_bytes_sent"), recv: reg.Counter("rpc_bytes_recv")}
	}
	return &tcpConn{c: conn, w: rw, br: bufio.NewReader(rw)}, false, nil
}

func (c *TCPClient) put(addr string, tc *tcpConn) {
	select {
	case c.pool(addr) <- tc:
	default:
		tc.c.Close()
	}
}

// Call implements Caller. Deadlines from ctx apply to the socket I/O.
//
// A pooled connection may have gone stale — the server restarted, or an
// idle-connection timeout fired — between the call that parked it and now.
// An I/O failure on a pooled connection therefore drops it and
// transparently retries (draining further stale pool entries, then dialing
// fresh) before any error is reported; Mendel's RPCs are idempotent (pure
// lookups, dedup-on-insert stores), so replaying the request on a fresh
// connection is safe. A freshly dialed connection's failure is final.
func (c *TCPClient) Call(ctx context.Context, addr string, req any) (any, error) {
	trace, _ := obs.TraceFromContext(ctx)
	c.mu.Lock()
	compress := c.compress
	c.mu.Unlock()
	for {
		tc, pooled, err := c.get(ctx, addr)
		if err != nil {
			return nil, err
		}
		if dl, ok := ctx.Deadline(); ok {
			tc.c.SetDeadline(dl)
		} else {
			tc.c.SetDeadline(time.Time{})
		}
		retriable := pooled && ctx.Err() == nil
		resp, sendErr, recvErr := exchange(tc, trace, req, compress)
		if sendErr != nil {
			tc.c.Close()
			if retriable {
				continue
			}
			return nil, fmt.Errorf("%w: send: %v", ErrUnreachable, sendErr)
		}
		if recvErr != nil {
			tc.c.Close()
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			if retriable {
				continue
			}
			return nil, fmt.Errorf("%w: recv: %v", ErrUnreachable, recvErr)
		}
		c.put(addr, tc)
		if resp.Err != "" {
			return nil, &RemoteError{Addr: addr, Msg: resp.Err}
		}
		return resp.V, nil
	}
}

// exchange performs one framed request/response exchange on a connection.
func exchange(tc *tcpConn, trace obs.TraceContext, req any, compress bool) (resp respEnvelope, sendErr, recvErr error) {
	fp := wire.GetFrame()
	defer wire.PutFrame(fp)
	frame, err := buildRequestFrame(fp, trace, req, compress)
	if err != nil {
		return resp, err, nil
	}
	if _, sendErr = tc.w.Write(frame); sendErr != nil {
		return resp, sendErr, nil
	}
	flags, payload, err := readFrame(tc.br)
	if err != nil {
		return resp, nil, err
	}
	resp, err = decodeFrameResponse(flags, payload)
	return resp, nil, err
}

// buildRequestFrame encodes one request frame into the pooled buffer *fp —
// binary for hot messages, an embedded gob envelope otherwise, deflated
// when compress is set and the message is a large block transfer — and
// returns its wire image, which aliases *fp.
func buildRequestFrame(fp *[]byte, trace obs.TraceContext, req any, compress bool) ([]byte, error) {
	buf := append((*fp)[:0], framePad...)
	flags := byte(0)
	if b, ok := wire.AppendRequest(buf, trace, req); ok {
		buf, flags = b, frameBinary
	} else {
		b, err := gobEnvelopePayload(buf, &reqEnvelope{V: req, TC: trace})
		if err != nil {
			return nil, err
		}
		buf = b
	}
	if flags&frameBinary != 0 && compress && wire.Compressible(req) && len(buf)-maxFrameHeader >= compressMin {
		b, err := compressPayload(buf)
		if err == nil && len(b) < len(buf) {
			buf, flags = b, flags|frameCompressed
		}
	}
	*fp = buf
	return buildFrame(buf, flags), nil
}

// buildResponseFrame encodes one response frame into the pooled buffer *fp
// — binary for hot messages and errors, an embedded gob envelope otherwise
// — and returns its wire image, which aliases *fp.
func buildResponseFrame(fp *[]byte, respV any, errStr string) ([]byte, error) {
	buf := append((*fp)[:0], framePad...)
	flags := byte(0)
	switch {
	case errStr != "":
		buf, flags = wire.AppendErrorResponse(buf, errStr), frameBinary
	default:
		if b, ok := wire.AppendResponse(buf, respV); ok {
			buf, flags = b, frameBinary
		} else {
			b, err := gobEnvelopePayload(buf, &respEnvelope{V: respV})
			if err != nil {
				return nil, err
			}
			buf = b
		}
	}
	*fp = buf
	return buildFrame(buf, flags), nil
}

// writeFrameResponse encodes and writes one server-side response frame.
func writeFrameResponse(w io.Writer, respV any, errStr string) error {
	fp := wire.GetFrame()
	defer wire.PutFrame(fp)
	frame, err := buildResponseFrame(fp, respV, errStr)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// framePad reserves room for the frame header so buildFrame can right-align
// it and the whole frame goes out in one Write (one segment for the small
// query-path frames).
var framePad = make([]byte, maxFrameHeader)

// buildFrame finalizes a buffer whose payload was built after framePad,
// returning the [flags][uvarint length][payload] wire image.
func buildFrame(buf []byte, flags byte) []byte {
	payloadLen := len(buf) - maxFrameHeader
	var hdr [maxFrameHeader]byte
	hdr[0] = flags
	n := 1 + binary.PutUvarint(hdr[1:], uint64(payloadLen))
	start := maxFrameHeader - n
	copy(buf[start:], hdr[:n])
	return buf[start:]
}

// frameReader is what readFrame consumes: a connection's bufio.Reader, or a
// bytes.Reader over an in-memory frame.
type frameReader interface {
	io.Reader
	io.ByteReader
}

// readFrame reads one frame, allocating a fresh payload buffer: decoded
// messages hold zero-copy views into it and may be retained indefinitely
// (stored blocks, cached regions), so received frames are never pooled.
// Unknown flag bits are rejected before the length is read, and the buffer
// starts at no more than frameChunk bytes and grows only as payload bytes
// actually arrive, so a bare length prefix cannot reserve memory.
func readFrame(r frameReader) (flags byte, payload []byte, err error) {
	flags, err = r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	if flags&^(frameBinary|frameCompressed) != 0 {
		return 0, nil, fmt.Errorf("transport: unknown frame flags 0x%02x", flags)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, err
	}
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	payload = make([]byte, 0, min(n, frameChunk))
	for uint64(len(payload)) < n {
		if len(payload) == cap(payload) {
			// Double, but never past the declared length.
			payload = slices.Grow(payload, int(min(n-uint64(len(payload)), uint64(len(payload)))))
		}
		end := int(min(uint64(cap(payload)), n))
		m, err := io.ReadFull(r, payload[len(payload):end])
		payload = payload[:len(payload)+m]
		if err != nil {
			return 0, nil, err
		}
	}
	return flags, payload, nil
}

// decodeFrameRequest turns a request frame payload into its trace context
// and message.
func decodeFrameRequest(flags byte, payload []byte) (obs.TraceContext, any, error) {
	payload, err := maybeInflate(flags, payload)
	if err != nil {
		return obs.TraceContext{}, nil, err
	}
	if flags&frameBinary != 0 {
		return wire.DecodeRequest(payload)
	}
	var req reqEnvelope
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&req); err != nil {
		return obs.TraceContext{}, nil, err
	}
	return req.TC, req.V, nil
}

// decodeFrameResponse turns a response frame payload into its envelope.
func decodeFrameResponse(flags byte, payload []byte) (respEnvelope, error) {
	payload, err := maybeInflate(flags, payload)
	if err != nil {
		return respEnvelope{}, err
	}
	if flags&frameBinary != 0 {
		msg, errMsg, err := wire.DecodeResponse(payload)
		return respEnvelope{V: msg, Err: errMsg}, err
	}
	var resp respEnvelope
	err = gob.NewDecoder(bytes.NewReader(payload)).Decode(&resp)
	return resp, err
}

// gobEnvelopePayload appends a self-contained gob encoding of env to dst —
// the cold-message path, where per-message type preambles cost nothing that
// matters.
func gobEnvelopePayload[T any](dst []byte, env *T) ([]byte, error) {
	buf := wire.BufPool.Get().(*bytes.Buffer)
	defer wire.BufPool.Put(buf)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(env); err != nil {
		return dst, err
	}
	return append(dst, buf.Bytes()...), nil
}

// flateWriterPool recycles flate writers, which are expensive to construct.
var flateWriterPool = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

// compressPayload deflates the payload of a padded frame buffer, returning
// a new padded buffer; the caller keeps the original on any error or when
// compression does not pay.
func compressPayload(buf []byte) ([]byte, error) {
	bb := wire.BufPool.Get().(*bytes.Buffer)
	defer wire.BufPool.Put(bb)
	bb.Reset()
	fw := flateWriterPool.Get().(*flate.Writer)
	defer flateWriterPool.Put(fw)
	fw.Reset(bb)
	if _, err := fw.Write(buf[maxFrameHeader:]); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	out := make([]byte, 0, maxFrameHeader+bb.Len())
	out = append(out, framePad...)
	return append(out, bb.Bytes()...), nil
}

// maybeInflate decompresses a compressed frame payload, bounding the
// decompressed size the same way readFrame bounds the raw size.
func maybeInflate(flags byte, payload []byte) ([]byte, error) {
	if flags&frameCompressed == 0 {
		return payload, nil
	}
	fr := flate.NewReader(bytes.NewReader(payload))
	defer fr.Close()
	out, err := io.ReadAll(io.LimitReader(fr, maxFramePayload+1))
	if err != nil {
		return nil, fmt.Errorf("transport: inflating frame: %w", err)
	}
	if len(out) > maxFramePayload {
		return nil, fmt.Errorf("transport: decompressed frame exceeds %d bytes", maxFramePayload)
	}
	return out, nil
}

// drainPools closes every pooled connection.
func drainPools(pools map[string]chan *tcpConn) {
	for _, p := range pools {
		for {
			select {
			case tc := <-p:
				tc.c.Close()
				continue
			default:
			}
			break
		}
	}
}

// Close drops all pooled connections.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for _, p := range c.pools {
		for {
			select {
			case tc := <-p:
				if err := tc.c.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
				continue
			default:
			}
			break
		}
	}
	c.pools = make(map[string]chan *tcpConn)
	if firstErr != nil && !errors.Is(firstErr, net.ErrClosed) {
		return firstErr
	}
	return nil
}
