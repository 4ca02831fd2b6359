package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

func TestTopologyDistance(t *testing.T) {
	topo := NewTopology()
	topo.Place("a", "r1", "dc1")
	topo.Place("b", "r1", "dc1")
	topo.Place("c", "r2", "dc1")
	topo.Place("d", "r9", "dc2")
	cases := []struct {
		x, y string
		want int
	}{
		{"a", "a", 0}, {"a", "b", 1}, {"a", "c", 2}, {"a", "d", 3}, {"a", "unknown", 3},
	}
	for _, c := range cases {
		if got := topo.Distance(c.x, c.y); got != c.want {
			t.Errorf("Distance(%s,%s) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
	if topo.Hops("a", "a") != 0 || topo.Hops("a", "b") != 2 || topo.Hops("a", "c") != 4 || topo.Hops("a", "d") != 6 {
		t.Error("hops mapping wrong")
	}
}

func TestCallRoundTrip(t *testing.T) {
	f := NewFabric(nil, Options{})
	f.Register("leaf1", func(ctx context.Context, from string, payload any) (any, error) {
		return payload.(int) * 2, nil
	})
	got, err := f.Call(context.Background(), "master", "leaf1", Control, 21, 100)
	if err != nil || got.(int) != 42 {
		t.Fatalf("call = %v, %v", got, err)
	}
	if f.Msgs[Control].Value() != 1 || f.Bytes[Control].Value() != 100 {
		t.Errorf("counters = %d msgs %d bytes", f.Msgs[Control].Value(), f.Bytes[Control].Value())
	}
}

func TestCallUnknownAndDown(t *testing.T) {
	f := NewFabric(nil, Options{})
	if _, err := f.Call(context.Background(), "m", "ghost", Control, nil, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown = %v", err)
	}
	f.Register("n", func(context.Context, string, any) (any, error) { return nil, nil })
	f.SetDown("n", true)
	if _, err := f.Call(context.Background(), "m", "n", Control, nil, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("down = %v", err)
	}
	f.SetDown("n", false)
	if _, err := f.Call(context.Background(), "m", "n", Control, nil, 0); err != nil {
		t.Errorf("up again = %v", err)
	}
	f.Deregister("n")
	if _, err := f.Call(context.Background(), "m", "n", Control, nil, 0); err == nil {
		t.Error("deregistered should fail")
	}
}

func TestBilling(t *testing.T) {
	topo := NewTopology()
	topo.Place("m", "r1", "dc1")
	topo.Place("l", "r2", "dc1") // same dc: 4 hops
	model := sim.DefaultCostModel()
	f := NewFabric(topo, Options{Model: model})
	f.Register("l", func(context.Context, string, any) (any, error) { return nil, nil })

	bill := sim.NewBill()
	ctx := storage.WithBill(context.Background(), bill)
	if _, err := f.Call(ctx, "m", "l", Read, nil, 1000); err != nil {
		t.Fatal(err)
	}
	want := model.TransferCost(1000, 4)
	if bill.Time() != want {
		t.Errorf("bill = %v, want %v", bill.Time(), want)
	}
	// Local (same-node) calls are free.
	f.Register("m", func(context.Context, string, any) (any, error) { return nil, nil })
	before := bill.Time()
	if _, err := f.Call(ctx, "m", "m", Read, nil, 1000); err != nil {
		t.Fatal(err)
	}
	if bill.Time() != before {
		t.Error("same-node call should not charge network")
	}
}

func TestControlBypassesDataSlots(t *testing.T) {
	f := NewFabric(nil, Options{DataSlots: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	f.Register("leaf", func(ctx context.Context, from string, payload any) (any, error) {
		if payload == "slow" {
			close(started)
			<-block
		}
		return "ok", nil
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = f.Call(context.Background(), "m", "leaf", Read, "slow", 1)
	}()
	<-started

	// A second data-class call must block (slot taken): give it a short
	// deadline and expect failure.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := f.Call(ctx, "m", "leaf", Write, "fast", 1); err == nil {
		t.Error("data call should time out while slot is held")
	}

	// Control traffic must get through immediately.
	got, err := f.Call(context.Background(), "m", "leaf", Control, "ping", 1)
	if err != nil || got != "ok" {
		t.Errorf("control call = %v, %v", got, err)
	}

	close(block)
	wg.Wait()
}

func TestClassString(t *testing.T) {
	if Control.String() != "control" || Write.String() != "write" || Read.String() != "read" {
		t.Error("class names")
	}
	if Class(9).String() != "class(9)" {
		t.Error("unknown class")
	}
}

func TestNodes(t *testing.T) {
	f := NewFabric(nil, Options{})
	f.Register("a", func(context.Context, string, any) (any, error) { return nil, nil })
	f.Register("b", func(context.Context, string, any) (any, error) { return nil, nil })
	if got := f.Nodes(); len(got) != 2 {
		t.Errorf("nodes = %v", got)
	}
}

// The call core allocates nothing on the sim fabric's common path: no
// fault hook, a bill on the context and a transfer with hops > 0. Every
// cluster RPC of an in-process deployment runs through it.
func TestFabricCallZeroAllocs(t *testing.T) {
	topo := NewTopology()
	topo.Place("m", "r1", "dc1")
	topo.Place("l", "r2", "dc1") // same dc: 4 hops
	f := NewFabric(topo, Options{Model: sim.DefaultCostModel(), DataSlots: 4})
	reply := any("ok")
	f.Register("l", func(context.Context, string, any) (any, error) { return reply, nil })
	bill := sim.NewBill()
	ctx := storage.WithBill(context.Background(), bill)
	for _, class := range []Class{Control, Read} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := f.Call(ctx, "m", "l", class, nil, 1000); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s Call allocates %v per call, want 0", class, allocs)
		}
	}
	if bill.Time() == 0 {
		t.Error("transfers were not billed; the guard measured the wrong path")
	}
}
