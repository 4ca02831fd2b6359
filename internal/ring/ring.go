// Package ring is the bounded, overwrite-oldest buffer behind the stores of
// finished records: the flight recorder's journal, the slow-query log and
// the trace store. A Ring is not safe for concurrent use; each owner keeps
// its own lock, sequence numbering and drop accounting.
package ring

// Ring retains the last n values pushed into it.
type Ring[T any] struct {
	buf  []T
	next int  // slot for the next Push
	full bool // buf has wrapped at least once
}

// New returns a ring retaining the last n values (n > 0).
func New[T any](n int) Ring[T] { return Ring[T]{buf: make([]T, n)} }

// Push stores v, overwriting the oldest value once the ring is full, and
// reports whether a value was overwritten.
func (r *Ring[T]) Push(v T) (overwrote bool) {
	overwrote = r.full
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	return overwrote
}

// Len reports how many values are retained.
func (r *Ring[T]) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Oldest returns a copy of the retained values, oldest first (nil when
// empty).
func (r *Ring[T]) Oldest() []T {
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Newest returns a copy of the retained values, newest first (empty, not
// nil, when nothing is retained).
func (r *Ring[T]) Newest() []T {
	out := make([]T, r.Len())
	for i := range out {
		out[i] = r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
	}
	return out
}
