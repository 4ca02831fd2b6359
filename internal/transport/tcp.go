package transport

// TCP is the real wire transport behind the Network seam: length-prefixed
// framed messages over pooled TCP connections, with the same traffic-class
// discipline as the in-process Fabric. One process runs one listener; every
// node Registered in that process is served behind it, and frames carry the
// destination name so a feisu-node process can host a master, stem, or
// leaf (or, in conformance tests, a whole cluster). Calls to local nodes
// still cross the socket — the point of this transport is that nothing is
// delivered by function call.
//
// TCP shares Fabric's delivery core: the caller side runs the same call
// (resolve, intercept, count, bill) with a socket round trip, and the
// server side delivers through the same serve step, so seeded chaos
// schedules behave identically on both transports.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
)

// TCPOptions configure the wire transport on top of the shared Options.
type TCPOptions struct {
	// ListenAddr is the shared listener address for every node Registered
	// in this process. Default "127.0.0.1:0" (ephemeral loopback).
	ListenAddr string
	// DataConns caps in-flight data-lane (Write/Read/Shuffle) calls per
	// peer address; Control has its own uncapped lane. <=0 means unlimited
	// client-side — the server-side per-endpoint DataSlots still apply.
	DataConns int
}

// TCP implements Network over real sockets.
type TCP struct {
	// core hosts the nodes served behind the listener; its mu also guards
	// peers, downRemote, pools and closed.
	core
	tcpOpt TCPOptions
	ln     net.Listener
	addr   string

	// WireBytes counts real encoded bytes per class (requests + replies,
	// measured after gob encoding). The embedded ClassCounters mirror the
	// Fabric contract and count the caller-declared simulated sizes.
	WireBytes [4]metrics.Counter

	peers      map[string]string // remote node -> dial address
	downRemote map[string]bool   // SetDown for non-local nodes
	pools      map[string]*peerPool
	closed     bool

	baseCtx   context.Context
	baseStop  context.CancelFunc
	acceptErr error
	wg        sync.WaitGroup
}

// NewTCP starts the process's listener and returns the transport.
func NewTCP(topo *Topology, opt Options, tcpOpt TCPOptions) (*TCP, error) {
	if tcpOpt.ListenAddr == "" {
		tcpOpt.ListenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", tcpOpt.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", tcpOpt.ListenAddr, err)
	}
	ctx, stop := context.WithCancel(context.Background())
	t := &TCP{
		tcpOpt:     tcpOpt,
		ln:         ln,
		addr:       ln.Addr().String(),
		peers:      make(map[string]string),
		downRemote: make(map[string]bool),
		pools:      make(map[string]*peerPool),
		baseCtx:    ctx,
		baseStop:   stop,
	}
	t.init(topo, opt)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener address (host:port) other processes dial.
func (t *TCP) Addr() string { return t.addr }

// SetDown marks a node unreachable without removing it. For hosted nodes
// the serve step refuses delivery; for remote nodes the caller side refuses.
func (t *TCP) SetDown(node string, down bool) {
	if t.setDown(node, down) {
		return
	}
	t.mu.Lock()
	t.downRemote[node] = down
	t.mu.Unlock()
}

// AddPeer records where a remote node can be dialed (static discovery,
// the -peers flag of cmd/feisu-node).
func (t *TCP) AddPeer(node, addr string) {
	t.mu.Lock()
	t.peers[node] = addr
	t.mu.Unlock()
}

// Discover dials addr, handshakes, and records every node hosted there.
// It returns the discovered node names.
func (t *TCP) Discover(ctx context.Context, addr string) ([]string, error) {
	wc, err := t.dialPeer(ctx, addr)
	if err != nil {
		return nil, err
	}
	wc.c.Close()
	t.mu.RLock()
	var nodes []string
	for n, a := range t.peers {
		if a == addr {
			nodes = append(nodes, n)
		}
	}
	t.mu.RUnlock()
	return nodes, nil
}

// Nodes returns hosted and known-remote node names.
func (t *TCP) Nodes() []string {
	out := t.core.Nodes()
	t.mu.RLock()
	defer t.mu.RUnlock()
	for n := range t.peers {
		if _, hosted := t.hosts[n]; !hosted {
			out = append(out, n)
		}
	}
	return out
}

// Close stops the listener and tears down every pool and connection.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	pools := t.pools
	t.pools = make(map[string]*peerPool)
	t.mu.Unlock()
	t.baseStop()
	err := t.ln.Close()
	for _, p := range pools {
		p.close()
	}
	t.wg.Wait()
	return err
}

// resolve maps a destination node to a dial address and snapshots the
// fault hook. A hosted node that is down, or a node neither hosted nor a
// known live peer, fails here, before the hook is consulted.
func (t *TCP) resolve(to string) (string, Interceptor, error) {
	ep, hosted, icpt := t.lookup(to)
	if ep != nil {
		return t.addr, icpt, nil
	}
	if !hosted {
		t.mu.RLock()
		addr, ok := t.peers[to]
		ok = ok && !t.downRemote[to]
		t.mu.RUnlock()
		if ok {
			return addr, icpt, nil
		}
	}
	return "", nil, unknownNode(to)
}

// Call delivers a message over the wire and waits for the reply, through
// the same call core as Fabric.Call.
func (t *TCP) Call(ctx context.Context, from, to string, class Class, payload any, size int64) (any, error) {
	addr, icpt, err := t.resolve(to)
	if err != nil {
		return nil, err
	}
	return t.call(ctx, icpt, &wireCall{t: t, addr: addr}, from, to, class, payload, size)
}

// wireCall is one TCP call's round trip: the resolved peer address, and
// the payload encoded on the first delivery and reused by a duplicate.
type wireCall struct {
	t    *TCP
	addr string
	body []byte
}

// roundTrip performs one request/reply exchange on a pooled connection.
func (w *wireCall) roundTrip(ctx context.Context, from, to string, class Class, payload any, size int64) (any, error) {
	t := w.t
	if payload != nil && w.body == nil {
		body, err := EncodePayload(payload)
		if err != nil {
			return nil, err
		}
		w.body = body
	}
	bag := stashBaggage(ctx)
	defer unstashBaggage(bag)

	pool := t.poolFor(w.addr)
	wc, err := pool.get(ctx, class)
	if err != nil {
		return nil, callError(class, from, to, err)
	}
	broken := true
	defer func() { pool.put(wc, class, broken) }()

	// Context plumbing: honor the deadline directly, and unblock the
	// socket (via an immediate deadline) if the context is canceled while
	// the call is in flight. A canceled call abandons the connection.
	if d, ok := ctx.Deadline(); ok {
		wc.c.SetDeadline(d)
	} else {
		wc.c.SetDeadline(time.Time{})
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			wc.c.SetDeadline(time.Unix(1, 0))
		case <-watchDone:
		}
	}()

	hdr, err := encodeGob(callHeader{From: from, To: to, Class: int(class), Size: size, Baggage: bag})
	if err != nil {
		return nil, err
	}
	cf := frame{kind: frameCall, class: byte(class), body: hdr}
	if payload == nil {
		cf.flags |= flagNilPayload
	}
	if err := writeFrame(wc.c, cf); err != nil {
		return nil, callErr(ctx, class, from, to, err)
	}
	if payload != nil {
		if err := writeChunks(wc.c, byte(class), w.body); err != nil {
			return nil, callErr(ctx, class, from, to, err)
		}
		t.WireBytes[class].Add(int64(len(w.body)))
	}

	rf, err := readFrame(wc.c)
	if err != nil {
		return nil, callErr(ctx, class, from, to, err)
	}
	switch rf.kind {
	case frameError:
		broken = false
		return nil, decodeErrorFrame(rf)
	case frameReply:
		if rf.flags&flagNilPayload != 0 {
			broken = false
			return nil, nil
		}
		rb, err := readChunks(wc.c)
		if err != nil {
			return nil, callErr(ctx, class, from, to, err)
		}
		t.WireBytes[class].Add(int64(len(rb)))
		out, err := DecodePayload(rb)
		if err != nil {
			return nil, err
		}
		broken = false
		return out, nil
	default:
		return nil, callError(class, from, to, fmt.Errorf("unexpected reply frame kind %d", rf.kind))
	}
}

func callErr(ctx context.Context, class Class, from, to string, err error) error {
	if ctx.Err() != nil {
		err = ctx.Err()
	}
	return callError(class, from, to, err)
}

func (t *TCP) poolFor(addr string) *peerPool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.pools[addr]; ok {
		return p
	}
	p := newPeerPool(addr, t.tcpOpt.DataConns, t.dialPeer)
	t.pools[addr] = p
	return p
}

// dialPeer opens and handshakes one connection, learning the nodes hosted
// at addr.
func (t *TCP) dialPeer(ctx context.Context, addr string) (*wireConn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	var self string
	if hosted := t.core.Nodes(); len(hosted) > 0 {
		self = hosted[0]
	}
	hello, err := encodeGob(helloMsg{Version: CodecVersion, From: self})
	if err != nil {
		c.Close()
		return nil, err
	}
	if d, ok := ctx.Deadline(); ok {
		c.SetDeadline(d)
	}
	if err := writeFrame(c, frame{kind: frameHello, body: hello}); err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake write to %s: %w", addr, err)
	}
	af, err := readFrame(c)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake read from %s: %w", addr, err)
	}
	if af.kind == frameError {
		c.Close()
		return nil, decodeErrorFrame(af)
	}
	if af.kind != frameHelloAck {
		c.Close()
		return nil, fmt.Errorf("transport: handshake with %s: unexpected frame kind %d", addr, af.kind)
	}
	var ack helloAck
	if err := decodeGob(af.body, &ack); err != nil {
		c.Close()
		return nil, err
	}
	if ack.Version != CodecVersion {
		c.Close()
		return nil, fmt.Errorf("transport: peer %s speaks codec version %d, want %d", addr, ack.Version, CodecVersion)
	}
	c.SetDeadline(time.Time{})
	// Handshake doubles as discovery: remember which nodes answer here.
	t.mu.Lock()
	for _, n := range ack.Nodes {
		if _, hosted := t.hosts[n]; !hosted {
			t.peers[n] = addr
		}
	}
	t.mu.Unlock()
	return &wireConn{c: c}, nil
}

// --- server side -----------------------------------------------------------

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			t.mu.Lock()
			if !t.closed {
				t.acceptErr = err
			}
			t.mu.Unlock()
			return
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		t.wg.Add(1)
		go t.serveConn(c)
	}
}

func (t *TCP) serveConn(c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	ctx, cancel := context.WithCancel(t.baseCtx)
	defer cancel()
	stop := context.AfterFunc(t.baseCtx, func() { c.SetDeadline(time.Unix(1, 0)) })
	defer stop()

	// Handshake first: version check, then advertise hosted nodes.
	hf, err := readFrame(c)
	if err != nil || hf.kind != frameHello {
		return
	}
	var hello helloMsg
	if err := decodeGob(hf.body, &hello); err != nil {
		return
	}
	if hello.Version != CodecVersion {
		writeFrame(c, encodeErrorFrame(0, fmt.Errorf("transport: codec version %d not supported (want %d)", hello.Version, CodecVersion)))
		return
	}
	ab, err := encodeGob(helloAck{Version: CodecVersion, Nodes: t.core.Nodes()})
	if err != nil {
		return
	}
	if err := writeFrame(c, frame{kind: frameHelloAck, body: ab}); err != nil {
		return
	}

	// One request at a time per connection; the pools on the caller side
	// provide the concurrency.
	for {
		cf, err := readFrame(c)
		if err != nil || cf.kind != frameCall {
			return
		}
		var hdr callHeader
		if decodeGob(cf.body, &hdr) != nil {
			return
		}
		var payload any
		if cf.flags&flagNilPayload == 0 {
			pb, err := readChunks(c)
			if err != nil {
				return
			}
			payload, err = DecodePayload(pb)
			if err != nil {
				writeFrame(c, encodeErrorFrame(cf.class, err))
				continue
			}
		}
		var body []byte
		reply, err := t.serveCall(ctx, hdr, payload)
		if err == nil && reply != nil {
			body, err = EncodePayload(reply)
		}
		if writeReply(c, cf.class, body, err) != nil {
			return
		}
	}
}

// writeReply answers one call: an error frame when err is set, otherwise a
// reply frame followed by the encoded body (flagged nil when body is nil).
func writeReply(c net.Conn, class byte, body []byte, err error) error {
	if err != nil {
		return writeFrame(c, encodeErrorFrame(class, err))
	}
	rf := frame{kind: frameReply, class: class}
	if body == nil {
		rf.flags |= flagNilPayload
		return writeFrame(c, rf)
	}
	if err := writeFrame(c, rf); err != nil {
		return err
	}
	return writeChunks(c, class, body)
}

// serveCall delivers one decoded call through the shared serve step, with
// the caller's baggage layered under the connection context.
func (t *TCP) serveCall(ctx context.Context, hdr callHeader, payload any) (any, error) {
	ep, _, _ := t.lookup(hdr.To)
	return ep.serve(withBaggage(ctx, hdr.Baggage), hdr.From, hdr.To, Class(hdr.Class), payload)
}
