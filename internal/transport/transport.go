// Package transport is Feisu's in-process message fabric, standing in for
// the production RPC channels. It keeps the paper's traffic-flow discipline
// (§V-C): control/state flow has the highest priority and always gets
// through (the production system reserves switch bandwidth for it via TOS),
// write flow (intermediate data to global storage) comes second, and read
// data flow has the lowest priority. Endpoint capacity models a server's
// RPC worker pool: control messages use a reserved lane, while write and
// read messages compete for the remaining slots.
//
// Every call charges simulated network cost (bytes over the topology-derived
// hop count) to the sim.Bill carried by the context, so the benchmark
// harness can reconstruct cluster-scale timings.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Class is a traffic class (paper §V-C).
type Class int

// Traffic classes in descending priority.
const (
	// Control carries cluster commands, heartbeats, task dispatch.
	Control Class = iota
	// Write carries intermediate results toward global storage.
	Write
	// Read carries analyzed data back to the requester.
	Read
	// Shuffle carries keyed repartition frames between shuffle stages. It
	// shares the data lane with Write/Read (competes for DataSlots) but is
	// counted separately so EXPLAIN ANALYZE can attribute transfer bytes to
	// the shuffle segment.
	Shuffle
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Control:
		return "control"
	case Write:
		return "write"
	case Read:
		return "read"
	case Shuffle:
		return "shuffle"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ErrUnknownNode is returned when the destination is not registered.
var ErrUnknownNode = errors.New("transport: unknown node")

// ErrInjected is the default error for messages failed by an Interceptor
// (fault injection); recovery paths treat it like any delivery failure.
var ErrInjected = errors.New("transport: injected fault")

// Fault is an Interceptor's decision for one message. The zero value
// delivers the message untouched.
type Fault struct {
	// Drop fails the call without delivering.
	Drop bool
	// Err overrides the error returned for a dropped message
	// (defaults to ErrInjected).
	Err error
	// Delay pauses delivery (bounded by the call context).
	Delay time.Duration
	// Duplicate delivers the message twice, modeling at-least-once
	// retransmission; handlers are expected to be idempotent.
	Duplicate bool
}

// Interceptor inspects every Call before delivery and can inject faults —
// the hook the chaos plane (internal/chaos) drives. Implementations must be
// safe for concurrent use.
type Interceptor interface {
	Intercept(ctx context.Context, from, to string, class Class, size int64) Fault
}

// Handler processes one message addressed to a node.
type Handler func(ctx context.Context, from string, payload any) (any, error)

// ClassCounters tracks delivered messages and bytes per traffic class.
// The delivery core embeds it, so both transports count identically.
type ClassCounters struct {
	Msgs  [4]metrics.Counter
	Bytes [4]metrics.Counter
}

// Counters exposes the per-class counters behind the Network interface.
func (c *ClassCounters) Counters() *ClassCounters { return c }

func (c *ClassCounters) count(class Class, size int64) {
	c.Msgs[class].Inc()
	c.Bytes[class].Add(size)
}

// Network is the cluster messaging seam: the in-process Fabric (the
// deterministic test double) and the TCP wire transport both satisfy it,
// so masters, stems and leaves are transport-agnostic.
type Network interface {
	// Call delivers a message and waits for the reply. size is the
	// simulated payload size in bytes, fed to the cost model and counters.
	Call(ctx context.Context, from, to string, class Class, payload any, size int64) (any, error)
	// Register attaches a handler to a node name.
	Register(node string, h Handler)
	// Deregister removes a node (server crash).
	Deregister(node string)
	// SetDown marks a node unreachable without removing it.
	SetDown(node string, down bool)
	// SetInterceptor installs (or, with nil, removes) the fault hook.
	SetInterceptor(i Interceptor)
	// Topology returns the placement map used for hop accounting.
	Topology() *Topology
	// Nodes returns the registered node names (live and down).
	Nodes() []string
	// Counters returns the per-class delivery counters.
	Counters() *ClassCounters
}

// Topology records node placement for hop counts and locality decisions.
type Topology struct {
	mu     sync.RWMutex
	rackOf map[string]string
	dcOf   map[string]string
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{rackOf: make(map[string]string), dcOf: make(map[string]string)}
}

// Place records a node's rack and datacenter.
func (t *Topology) Place(node, rack, dc string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rackOf[node] = rack
	t.dcOf[node] = dc
}

// Distance returns 0 for the same node, 1 within a rack, 2 within a
// datacenter and 3 across datacenters. Unknown nodes are assumed remote.
func (t *Topology) Distance(a, b string) int {
	if a == b {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	ra, oka := t.rackOf[a], true
	rb, okb := t.rackOf[b], true
	if ra == "" {
		oka = false
	}
	if rb == "" {
		okb = false
	}
	if !oka || !okb {
		return 3
	}
	if ra == rb {
		return 1
	}
	if t.dcOf[a] == t.dcOf[b] {
		return 2
	}
	return 3
}

// Hops converts a distance into switch hops for cost accounting.
func (t *Topology) Hops(a, b string) int {
	switch t.Distance(a, b) {
	case 0:
		return 0
	case 1:
		return 2
	case 2:
		return 4
	default:
		return 6
	}
}

// Options configure a Fabric.
type Options struct {
	// Model prices transfers; nil disables cost accounting.
	Model *sim.CostModel
	// DataSlots is each endpoint's worker capacity shared by Write and
	// Read traffic; Control always has a free lane. <=0 means unlimited.
	DataSlots int
}

// Both transports satisfy the seam.
var (
	_ Network = (*Fabric)(nil)
	_ Network = (*TCP)(nil)
)

// core is the delivery discipline both transports embed: the table of
// nodes hosted in this process, the fault hook, the per-class counters and
// transfer billing. Fabric and TCP differ only in the round trip that
// carries a message from the call core to the serve step.
type core struct {
	opt  Options
	topo *Topology
	ClassCounters

	mu          sync.RWMutex
	hosts       map[string]*host
	gen         uint64 // bumped on every Register; stamps hosts
	interceptor Interceptor
}

// host is one node registered in this process.
type host struct {
	owner   *core
	handler Handler
	slots   chan struct{} // nil when unlimited
	down    bool
	gen     uint64 // registration generation; a restart gets a new one
}

// roundTripper runs one delivery of a resolved call: Fabric serves the
// endpoint snapshotted at resolve time, TCP exchanges frames over a pooled
// connection with the serve step on the far side.
type roundTripper interface {
	roundTrip(ctx context.Context, from, to string, class Class, payload any, size int64) (any, error)
}

func (c *core) init(topo *Topology, opt Options) {
	if topo == nil {
		topo = NewTopology()
	}
	c.opt, c.topo, c.hosts = opt, topo, make(map[string]*host)
}

// Topology returns the placement map used for hop accounting.
func (c *core) Topology() *Topology { return c.topo }

// Register hosts a handler under a node name. Re-registering a name (a
// restarted server) installs a fresh endpoint with a new generation; calls
// that snapshotted the previous endpoint fail instead of reaching the dead
// handler.
func (c *core) Register(node string, h Handler) {
	ep := &host{owner: c, handler: h}
	if c.opt.DataSlots > 0 {
		ep.slots = make(chan struct{}, c.opt.DataSlots)
	}
	c.mu.Lock()
	c.gen++
	ep.gen = c.gen
	c.hosts[node] = ep
	c.mu.Unlock()
}

// Deregister removes a hosted node (server crash).
func (c *core) Deregister(node string) {
	c.mu.Lock()
	delete(c.hosts, node)
	c.mu.Unlock()
}

// SetDown marks a hosted node unreachable without removing it (partition /
// crash injection for fault-tolerance tests).
func (c *core) SetDown(node string, down bool) { c.setDown(node, down) }

// setDown flips a hosted node's down flag and reports whether node is
// hosted here.
func (c *core) setDown(node string, down bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep, ok := c.hosts[node]
	if ok {
		ep.down = down
	}
	return ok
}

// SetInterceptor installs (or, with nil, removes) the fault-injection hook
// consulted on every Call.
func (c *core) SetInterceptor(i Interceptor) {
	c.mu.Lock()
	c.interceptor = i
	c.mu.Unlock()
}

// Nodes returns the hosted node names (live and down).
func (c *core) Nodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.hosts))
	for n := range c.hosts {
		out = append(out, n)
	}
	return out
}

// lookup snapshots the fault hook and node's endpoint. ep is nil when node
// is not hosted here or is down; hosted reports whether it is registered.
func (c *core) lookup(node string) (ep *host, hosted bool, icpt Interceptor) {
	c.mu.RLock()
	ep, hosted = c.hosts[node]
	if hosted && ep.down {
		ep = nil
	}
	icpt = c.interceptor
	c.mu.RUnlock()
	return ep, hosted, icpt
}

// call is the client side of every delivery, on both transports. The
// destination is already resolved into rt, so an unknown or down node has
// failed before the fault hook is consulted. The hook may drop, delay or
// duplicate the message; each delivery then counts the class, bills the
// transfer hops and runs one round trip. The last successful reply wins
// (one success is enough, and a failed copy must not mask it); with none,
// the last error surfaces.
func (c *core) call(ctx context.Context, icpt Interceptor, rt roundTripper, from, to string, class Class, payload any, size int64) (any, error) {
	deliveries := 1
	if icpt != nil {
		fault := icpt.Intercept(ctx, from, to, class, size)
		if fault.Drop {
			err := fault.Err
			if err == nil {
				err = ErrInjected
			}
			return nil, callError(class, from, to, err)
		}
		if fault.Delay > 0 {
			select {
			case <-time.After(fault.Delay):
			case <-ctx.Done():
				return nil, callError(class, from, to, ctx.Err())
			}
		}
		if fault.Duplicate {
			// At-least-once retransmission: both copies cross the wire, so
			// both count against the class counters and the transfer bill.
			deliveries = 2
		}
	}
	var (
		reply     any
		lastErr   error
		delivered bool
	)
	for i := 0; i < deliveries; i++ {
		c.count(class, size)
		if b := storage.BillFrom(ctx); b != nil && c.opt.Model != nil {
			if hops := c.topo.Hops(from, to); hops > 0 {
				b.ChargeTransfer(c.opt.Model, size, hops)
			}
		}
		r, err := rt.roundTrip(ctx, from, to, class, payload, size)
		if err != nil {
			lastErr = err
			continue
		}
		reply, delivered = r, true
	}
	if delivered {
		return reply, nil
	}
	return nil, lastErr
}

// serve is the hosting side of every delivery, on both transports: take a
// data slot unless the class is Control (the reserved lane), re-check that
// the snapshotted endpoint is still the live, up registration, then invoke
// its handler. Without the re-check a Deregister+Register (leaf restart)
// while the message waited would hand it to the dead handler; the slot
// token always returns to the snapshot's own channel. A nil h (nothing
// hosted under to) fails like a stale one.
func (h *host) serve(ctx context.Context, from, to string, class Class, payload any) (any, error) {
	if h == nil {
		return nil, unknownNode(to)
	}
	if class != Control && h.slots != nil {
		select {
		case h.slots <- struct{}{}:
			defer func() { <-h.slots }()
		case <-ctx.Done():
			return nil, callError(class, from, to, ctx.Err())
		}
	}
	h.owner.mu.RLock()
	cur := h.owner.hosts[to]
	stale := cur == nil || cur.gen != h.gen || cur.down
	h.owner.mu.RUnlock()
	if stale {
		return nil, unknownNode(to)
	}
	return h.handler(ctx, from, payload)
}

// roundTrip is Fabric's delivery: serve the endpoint snapshotted by Call.
func (h *host) roundTrip(ctx context.Context, from, to string, class Class, payload any, _ int64) (any, error) {
	return h.serve(ctx, from, to, class, payload)
}

func unknownNode(node string) error { return fmt.Errorf("%w: %q", ErrUnknownNode, node) }

func callError(class Class, from, to string, err error) error {
	return fmt.Errorf("transport: %s call %s->%s: %w", class, from, to, err)
}

// Fabric is the in-process transport: a call is delivered by invoking the
// destination's handler directly (in-process payloads are passed by
// reference; the declared size feeds the cost model and counters).
type Fabric struct {
	core
}

// NewFabric returns a fabric over the topology.
func NewFabric(topo *Topology, opt Options) *Fabric {
	f := &Fabric{}
	f.init(topo, opt)
	return f
}

// Call delivers a message and waits for the reply. size is the simulated
// payload size in bytes.
func (f *Fabric) Call(ctx context.Context, from, to string, class Class, payload any, size int64) (any, error) {
	ep, _, icpt := f.lookup(to)
	if ep == nil {
		return nil, unknownNode(to)
	}
	return f.call(ctx, icpt, ep, from, to, class, payload, size)
}
