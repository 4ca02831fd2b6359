package ring

import (
	"slices"
	"testing"
)

func TestRingOrdersAndOverwrite(t *testing.T) {
	r := New[int](3)
	if r.Len() != 0 || r.Oldest() != nil || r.Newest() == nil || len(r.Newest()) != 0 {
		t.Fatalf("empty ring: len %d oldest %v newest %v", r.Len(), r.Oldest(), r.Newest())
	}
	for v := 1; v <= 5; v++ {
		overwrote := r.Push(v)
		if want := v > 3; overwrote != want {
			t.Errorf("Push(%d) overwrote = %v, want %v", v, overwrote, want)
		}
		n := min(v, 3)
		if r.Len() != n {
			t.Errorf("after %d pushes Len = %d, want %d", v, r.Len(), n)
		}
		var want []int
		for w := v - n + 1; w <= v; w++ {
			want = append(want, w)
		}
		if got := r.Oldest(); !slices.Equal(got, want) {
			t.Errorf("after %d pushes Oldest = %v, want %v", v, got, want)
		}
		slices.Reverse(want)
		if got := r.Newest(); !slices.Equal(got, want) {
			t.Errorf("after %d pushes Newest = %v, want %v", v, got, want)
		}
	}
}

// Copies are detached: mutating one never reaches the ring.
func TestRingCopiesAreDetached(t *testing.T) {
	r := New[int](2)
	r.Push(1)
	r.Push(2)
	r.Oldest()[0] = 9
	r.Newest()[0] = 9
	if got := r.Oldest(); !slices.Equal(got, []int{1, 2}) {
		t.Errorf("ring mutated through a copy: %v", got)
	}
}
