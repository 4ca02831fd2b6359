package transport

// Transport conformance battery: every behavioral contract of the Network
// seam, run identically against the in-process Fabric (the deterministic
// test double) and the TCP wire transport. The cluster-level suites
// (differential, metamorphic, chaos equivalence) get the same guarantee via
// FEISU_TRANSPORT=tcp; this battery is the fast, focused version.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

type confPayload struct {
	N    int
	S    string
	Blob []byte
}

type confReply struct {
	Echo string
	N    int
	Blob []byte
}

func init() {
	RegisterPayload(confPayload{})
	RegisterPayload(confReply{})
}

type netCase struct {
	name string
	mk   func(t *testing.T, topo *Topology, opt Options) Network
}

func netCases() []netCase {
	return []netCase{
		{"fabric", func(t *testing.T, topo *Topology, opt Options) Network {
			return NewFabric(topo, opt)
		}},
		{"tcp", func(t *testing.T, topo *Topology, opt Options) Network {
			tr, err := NewTCP(topo, opt, TCPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })
			return tr
		}},
	}
}

// fixedFault returns the same Fault for every message.
type fixedFault struct{ f Fault }

func (ff fixedFault) Intercept(ctx context.Context, from, to string, class Class, size int64) Fault {
	return ff.f
}

func TestConformanceRoundTrip(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			n.Register("leaf1", func(ctx context.Context, from string, payload any) (any, error) {
				p := payload.(confPayload)
				if from != "master" {
					return nil, fmt.Errorf("from = %q", from)
				}
				return confReply{Echo: p.S, N: p.N * 2, Blob: p.Blob}, nil
			})
			got, err := n.Call(context.Background(), "master", "leaf1", Control, confPayload{N: 21, S: "hi", Blob: []byte{1, 2, 3}}, 100)
			if err != nil {
				t.Fatal(err)
			}
			r := got.(confReply)
			if r.Echo != "hi" || r.N != 42 || len(r.Blob) != 3 {
				t.Errorf("reply = %+v", r)
			}
			c := n.Counters()
			if c.Msgs[Control].Value() != 1 || c.Bytes[Control].Value() != 100 {
				t.Errorf("counters = %d msgs %d bytes", c.Msgs[Control].Value(), c.Bytes[Control].Value())
			}
		})
	}
}

func TestConformanceNilPayloadAndReply(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			n.Register("x", func(ctx context.Context, from string, payload any) (any, error) {
				if payload != nil {
					return nil, fmt.Errorf("payload = %v, want nil", payload)
				}
				return nil, nil
			})
			got, err := n.Call(context.Background(), "m", "x", Control, nil, 0)
			if err != nil || got != nil {
				t.Fatalf("nil round trip = %v, %v", got, err)
			}
		})
	}
}

func TestConformanceUnknownDownDeregister(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			if _, err := n.Call(context.Background(), "m", "ghost", Control, nil, 0); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("unknown = %v", err)
			}
			n.Register("x", func(context.Context, string, any) (any, error) { return nil, nil })
			n.SetDown("x", true)
			if _, err := n.Call(context.Background(), "m", "x", Control, nil, 0); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("down = %v", err)
			}
			n.SetDown("x", false)
			if _, err := n.Call(context.Background(), "m", "x", Control, nil, 0); err != nil {
				t.Errorf("up again = %v", err)
			}
			n.Deregister("x")
			if _, err := n.Call(context.Background(), "m", "x", Control, nil, 0); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("deregistered = %v", err)
			}
		})
	}
}

// Handler errors must preserve both the message and typed sentinels across
// the transport: the stem's failover logic switches on
// errors.Is(err, ErrUnknownNode).
func TestConformanceHandlerErrors(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			n.Register("x", func(ctx context.Context, from string, payload any) (any, error) {
				switch payload.(string) {
				case "plain":
					return nil, errors.New("scan failed: extent 7 corrupt")
				case "unknown":
					return nil, fmt.Errorf("forwarding: %w", ErrUnknownNode)
				default:
					return nil, fmt.Errorf("chaos: %w", ErrInjected)
				}
			})
			_, err := n.Call(context.Background(), "m", "x", Control, "plain", 0)
			if err == nil || !strings.Contains(err.Error(), "extent 7 corrupt") {
				t.Errorf("plain error = %v", err)
			}
			if _, err := n.Call(context.Background(), "m", "x", Control, "unknown", 0); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("sentinel ErrUnknownNode lost: %v", err)
			}
			if _, err := n.Call(context.Background(), "m", "x", Control, "injected", 0); !errors.Is(err, ErrInjected) {
				t.Errorf("sentinel ErrInjected lost: %v", err)
			}
		})
	}
}

func TestConformanceInterceptorDropAndDelay(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			var calls atomic.Int32
			n.Register("x", func(context.Context, string, any) (any, error) {
				calls.Add(1)
				return "ok", nil
			})
			custom := errors.New("link flap")
			n.SetInterceptor(fixedFault{Fault{Drop: true, Err: custom}})
			if _, err := n.Call(context.Background(), "m", "x", Control, "p", 1); !errors.Is(err, custom) {
				t.Errorf("drop err = %v", err)
			}
			if calls.Load() != 0 {
				t.Error("dropped message reached handler")
			}
			n.SetInterceptor(fixedFault{Fault{Drop: true}})
			if _, err := n.Call(context.Background(), "m", "x", Control, "p", 1); !errors.Is(err, ErrInjected) {
				t.Errorf("default drop err = %v", err)
			}
			n.SetInterceptor(fixedFault{Fault{Delay: 20 * time.Millisecond}})
			start := time.Now()
			if _, err := n.Call(context.Background(), "m", "x", Control, "p", 1); err != nil {
				t.Fatal(err)
			}
			if time.Since(start) < 20*time.Millisecond {
				t.Error("delay not applied")
			}
			// A delay longer than the deadline fails the call.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			n.SetInterceptor(fixedFault{Fault{Delay: time.Second}})
			if _, err := n.Call(ctx, "m", "x", Control, "p", 1); err == nil {
				t.Error("delayed past deadline should fail")
			}
		})
	}
}

// Satellite regression: at-least-once duplication delivers twice, bills
// both copies through the cost model and counters, and the caller sees the
// surviving reply even when one copy fails.
func TestConformanceDuplicateBillsBothDeliveries(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			topo := NewTopology()
			topo.Place("m", "r1", "dc1")
			topo.Place("l", "r2", "dc1") // same dc: 4 hops
			model := sim.DefaultCostModel()
			n := nc.mk(t, topo, Options{Model: model})
			var calls atomic.Int32
			n.Register("l", func(context.Context, string, any) (any, error) {
				calls.Add(1)
				return "ok", nil
			})
			n.SetInterceptor(fixedFault{Fault{Duplicate: true}})
			bill := sim.NewBill()
			ctx := storage.WithBill(context.Background(), bill)
			got, err := n.Call(ctx, "m", "l", Read, "p", 1000)
			if err != nil || got != "ok" {
				t.Fatalf("call = %v, %v", got, err)
			}
			if calls.Load() != 2 {
				t.Errorf("handler invoked %d times, want 2", calls.Load())
			}
			want := 2 * model.TransferCost(1000, 4)
			if bill.Time() != want {
				t.Errorf("bill = %v, want %v (both deliveries billed)", bill.Time(), want)
			}
			c := n.Counters()
			if c.Msgs[Read].Value() != 2 || c.Bytes[Read].Value() != 2000 {
				t.Errorf("counters = %d msgs %d bytes, want 2 / 2000", c.Msgs[Read].Value(), c.Bytes[Read].Value())
			}
		})
	}
}

func TestConformanceDuplicateSurvivingReply(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			var calls atomic.Int32
			failOn := func(k int32) Handler {
				return func(context.Context, string, any) (any, error) {
					if calls.Add(1) == k {
						return nil, errors.New("transient")
					}
					return "survived", nil
				}
			}
			n.SetInterceptor(fixedFault{Fault{Duplicate: true}})

			// First delivery fails, duplicate succeeds: the duplicate's reply
			// must surface (this was masked before the fix).
			n.Register("x", failOn(1))
			got, err := n.Call(context.Background(), "m", "x", Control, "p", 1)
			if err != nil || got != "survived" {
				t.Errorf("first-fails: got %v, %v; want surviving reply", got, err)
			}

			// First succeeds, duplicate fails: still a success.
			calls.Store(0)
			n.Register("x", failOn(2))
			got, err = n.Call(context.Background(), "m", "x", Control, "p", 1)
			if err != nil || got != "survived" {
				t.Errorf("second-fails: got %v, %v; want surviving reply", got, err)
			}

			// Both fail: the error surfaces.
			n.Register("x", func(context.Context, string, any) (any, error) {
				return nil, errors.New("hard down")
			})
			if _, err = n.Call(context.Background(), "m", "x", Control, "p", 1); err == nil {
				t.Error("both-fail: want error")
			}
		})
	}
}

func TestConformanceControlBypassesDataSlots(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{DataSlots: 1})
			block := make(chan struct{})
			started := make(chan struct{})
			var once sync.Once
			n.Register("leaf", func(ctx context.Context, from string, payload any) (any, error) {
				if payload.(string) == "slow" {
					once.Do(func() { close(started) })
					<-block
				}
				return "ok", nil
			})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = n.Call(context.Background(), "m", "leaf", Read, "slow", 1)
			}()
			<-started

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			if _, err := n.Call(ctx, "m", "leaf", Write, "fast", 1); err == nil {
				t.Error("data call should time out while slot is held")
			}
			got, err := n.Call(context.Background(), "m", "leaf", Control, "ping", 1)
			if err != nil || got != "ok" {
				t.Errorf("control call = %v, %v", got, err)
			}
			close(block)
			wg.Wait()
		})
	}
}

// Large payloads and replies must survive intact (over TCP this exercises
// the streamed framePayload chain: bodies above 256 KiB span frames).
func TestConformanceLargeStreamingPayload(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			n.Register("leaf", func(ctx context.Context, from string, payload any) (any, error) {
				p := payload.(confPayload)
				return confReply{N: len(p.Blob), Blob: p.Blob}, nil
			})
			blob := make([]byte, 700_000)
			for i := range blob {
				blob[i] = byte(i * 31)
			}
			got, err := n.Call(context.Background(), "m", "leaf", Read, confPayload{Blob: blob}, int64(len(blob)))
			if err != nil {
				t.Fatal(err)
			}
			r := got.(confReply)
			if r.N != len(blob) || len(r.Blob) != len(blob) {
				t.Fatalf("reply sizes = %d, %d", r.N, len(r.Blob))
			}
			for i := range blob {
				if r.Blob[i] != blob[i] {
					t.Fatalf("byte %d corrupted: %d != %d", i, r.Blob[i], blob[i])
				}
			}
		})
	}
}

func TestConformanceConcurrentCalls(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{DataSlots: 4})
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("leaf%d", i)
				n.Register(name, func(ctx context.Context, from string, payload any) (any, error) {
					p := payload.(confPayload)
					return confReply{N: p.N + 1, Echo: name}, nil
				})
			}
			classes := []Class{Control, Write, Read, Shuffle}
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := 0; k < 20; k++ {
						to := fmt.Sprintf("leaf%d", (g+k)%4)
						got, err := n.Call(context.Background(), "m", to, classes[k%4], confPayload{N: k}, 64)
						if err != nil {
							errs <- err
							return
						}
						r := got.(confReply)
						if r.N != k+1 || r.Echo != to {
							errs <- fmt.Errorf("reply %+v for to=%s k=%d", r, to, k)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// A leaf restart while a call is parked in the data-slot queue: the serve
// step's post-slot re-check must fail the call instead of delivering to the
// dead handler (the token is released back to the snapshot endpoint's own
// channel, never leaked into the new incarnation's). Over TCP the snapshot
// is taken server-side, so the restart waits until the queued call has
// passed the fault hook and had time to park.
func TestConformanceStaleEndpointInSlotQueue(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{DataSlots: 1})
			var oldCalls atomic.Int32
			block := make(chan struct{})
			started := make(chan struct{})
			var once sync.Once
			n.Register("leaf", func(ctx context.Context, from string, payload any) (any, error) {
				oldCalls.Add(1)
				if payload.(string) == "slow" {
					once.Do(func() { close(started) })
					<-block
				}
				return "old", nil
			})

			// Occupy the single data slot.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = n.Call(context.Background(), "m", "leaf", Read, "slow", 1)
			}()
			<-started

			// Second call queues on the slot; restart the leaf, then free the slot.
			gate := &gateInterceptor{entered: make(chan struct{}), release: make(chan struct{})}
			close(gate.release) // signal only, never stall
			n.SetInterceptor(gate)
			done := make(chan error, 1)
			go func() {
				_, err := n.Call(context.Background(), "m", "leaf", Read, "queued", 1)
				done <- err
			}()
			<-gate.entered
			time.Sleep(50 * time.Millisecond) // let the call park on the slot channel
			n.Deregister("leaf")
			n.Register("leaf", func(context.Context, string, any) (any, error) { return "new", nil })
			close(block)
			wg.Wait()

			if err := <-done; !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("queued call after restart: err = %v, want ErrUnknownNode", err)
			}
			if got := oldCalls.Load(); got != 1 {
				t.Errorf("old handler calls = %d, want only the pre-restart one", got)
			}
		})
	}
}

// countingFault delivers every message untouched and counts how often the
// fault hook was consulted.
type countingFault struct{ n atomic.Int32 }

func (c *countingFault) Intercept(ctx context.Context, from, to string, class Class, size int64) Fault {
	c.n.Add(1)
	return Fault{}
}

// The destination is resolved before the fault hook: a call to an unknown
// or down node fails with ErrUnknownNode without consuming a chaos draw, so
// a seeded schedule sees the same decision stream on both transports.
func TestConformanceResolveBeforeIntercept(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			hook := &countingFault{}
			n.SetInterceptor(hook)
			n.Register("x", func(context.Context, string, any) (any, error) { return "ok", nil })
			n.SetDown("x", true)
			for _, to := range []string{"ghost", "x"} {
				if _, err := n.Call(context.Background(), "m", to, Control, "p", 1); !errors.Is(err, ErrUnknownNode) {
					t.Errorf("call to %s = %v, want ErrUnknownNode", to, err)
				}
			}
			if got := hook.n.Load(); got != 0 {
				t.Errorf("fault hook consulted %d times for unresolvable destinations, want 0", got)
			}
			n.SetDown("x", false)
			if got, err := n.Call(context.Background(), "m", "x", Control, "p", 1); err != nil || got != "ok" {
				t.Fatalf("call to live node = %v, %v", got, err)
			}
			if got := hook.n.Load(); got != 1 {
				t.Errorf("fault hook consulted %d times for one live call, want 1", got)
			}
		})
	}
}
