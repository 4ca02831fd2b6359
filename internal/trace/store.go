package trace

import (
	"sync"
	"time"

	"repro/internal/ring"
)

// StoredTrace is one finished query's trace plus the identifiers used to
// look it up: the query's causal ID and its normalized plan fingerprint.
type StoredTrace struct {
	QueryID     string
	Fingerprint string
	SQL         string
	When        time.Time
	Wall        time.Duration
	Sim         time.Duration
	Root        *Span
}

// Store retains the last N finished query traces in a ring, so "why was
// that query slow" stays answerable after the query is gone. Lookups
// accept either a query ID or a plan fingerprint (newest match wins).
// All methods are nil-safe.
type Store struct {
	mu     sync.Mutex
	traces ring.Ring[StoredTrace]
}

// DefaultStoreSize is the trace retention used when NewStore is given
// n <= 0.
const DefaultStoreSize = 32

// NewStore builds a trace store retaining the last n traces.
func NewStore(n int) *Store {
	if n <= 0 {
		n = DefaultStoreSize
	}
	return &Store{traces: ring.New[StoredTrace](n)}
}

// Add retains one finished trace, evicting the oldest when full. Traces
// without a root span are ignored.
func (st *Store) Add(t StoredTrace) {
	if st == nil || t.Root == nil {
		return
	}
	st.mu.Lock()
	st.traces.Push(t)
	st.mu.Unlock()
}

// Traces returns the retained traces, newest first.
func (st *Store) Traces() []StoredTrace {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.traces.Newest()
}

// Get returns the newest retained trace whose query ID or plan
// fingerprint equals id.
func (st *Store) Get(id string) (StoredTrace, bool) {
	for _, t := range st.Traces() {
		if t.QueryID == id || t.Fingerprint == id {
			return t, true
		}
	}
	return StoredTrace{}, false
}

// Len reports how many traces are retained.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.traces.Len()
}
