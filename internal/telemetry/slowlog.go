package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ring"
	"repro/internal/trace"
)

// StageTiming is one per-stage line of a slow query's breakdown, extracted
// from the query's trace spans.
type StageTiming struct {
	Name string
	Sim  time.Duration
	Wall time.Duration
}

// SlowQuery is one slow-query log entry: identity (SQL + plan
// fingerprint), timings, scheduling outcome, the per-stage breakdown and
// the aggregated index/cache counters from the trace.
type SlowQuery struct {
	// Seq is the entry's monotonically increasing sequence number (later
	// entries have larger Seq, surviving ring-buffer wraparound).
	Seq         int64
	When        time.Time
	SQL         string
	Fingerprint string
	Wall        time.Duration
	Sim         time.Duration
	Tasks       int
	Reused      int
	Backups     int
	Failed      int
	Stages      []StageTiming
	Counters    map[string]int64
	// CriticalPath is the critical-path analyzer's one-line attribution
	// ("scan @ leaf2 61%, transfer 22%, ..."), empty when no trace was kept.
	CriticalPath string
}

// Slowlog is a fixed-capacity ring buffer of slow queries. A query is slow
// when its wall time or simulated time exceeds the configured threshold
// (either may be disabled with <=0; with both disabled nothing is ever
// recorded). Safe for concurrent use.
type Slowlog struct {
	wallThresh time.Duration
	simThresh  time.Duration

	mu      sync.Mutex
	entries ring.Ring[SlowQuery]
	seq     int64 // entries ever recorded; the last one's Seq
}

// NewSlowlog returns a ring of the given capacity (default 128 when <=0).
func NewSlowlog(capacity int, wallThresh, simThresh time.Duration) *Slowlog {
	if capacity <= 0 {
		capacity = 128
	}
	return &Slowlog{entries: ring.New[SlowQuery](capacity), wallThresh: wallThresh, simThresh: simThresh}
}

// Enabled reports whether any threshold is active.
func (l *Slowlog) Enabled() bool {
	return l != nil && (l.wallThresh > 0 || l.simThresh > 0)
}

// Slow reports whether a query with these timings crosses a threshold.
func (l *Slowlog) Slow(wall, sim time.Duration) bool {
	if l == nil {
		return false
	}
	return (l.wallThresh > 0 && wall >= l.wallThresh) ||
		(l.simThresh > 0 && sim >= l.simThresh)
}

// Record appends an entry, evicting the oldest once the ring is full. The
// entry's Seq is assigned here.
func (l *Slowlog) Record(q SlowQuery) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	q.Seq = l.seq
	l.entries.Push(q)
	l.mu.Unlock()
}

// Entries returns a copy of the retained entries, newest first.
func (l *Slowlog) Entries() []SlowQuery {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries.Newest()
}

// Total returns how many slow queries have ever been recorded (including
// entries the ring has since evicted).
func (l *Slowlog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// StagesFromTrace extracts a per-stage breakdown from a query's root span:
// the root's direct children (master/load-dims, master/execute,
// master/finalize) plus an aggregated busy total over all leaf task spans,
// so the breakdown shows both the critical path and the fan-out volume.
func StagesFromTrace(root *trace.Span) []StageTiming {
	if root == nil {
		return nil
	}
	var out []StageTiming
	for _, c := range root.Children() {
		out = append(out, StageTiming{Name: c.Name(), Sim: c.Sim(), Wall: c.Wall()})
	}
	leaves := root.FindAll("leaf/")
	if len(leaves) > 0 {
		agg := StageTiming{Name: fmt.Sprintf("leaf tasks ×%d (busy total)", len(leaves))}
		for _, l := range leaves {
			agg.Sim += l.Sim()
			agg.Wall += l.Wall()
		}
		out = append(out, agg)
	}
	return out
}

// CountersFromTrace sums every named counter across the whole span tree
// (index.hit, cache.miss, rows.scanned, ...).
func CountersFromTrace(root *trace.Span) map[string]int64 {
	if root == nil {
		return nil
	}
	out := make(map[string]int64)
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		for k, v := range s.Counts() {
			out[k] += v
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
	if len(out) == 0 {
		return nil
	}
	return out
}

// RenderSlowlog formats entries (as returned by Entries, newest first) for
// the \slowlog command and /debug/slowlog endpoint.
func RenderSlowlog(entries []SlowQuery) string {
	if len(entries) == 0 {
		return "slowlog is empty\n"
	}
	var sb strings.Builder
	for _, q := range entries {
		fmt.Fprintf(&sb, "#%d %s wall=%s sim=%s tasks=%d reused=%d backups=%d failed=%d\n",
			q.Seq, q.When.Format(time.RFC3339), q.Wall.Round(time.Microsecond),
			q.Sim.Round(time.Microsecond), q.Tasks, q.Reused, q.Backups, q.Failed)
		fmt.Fprintf(&sb, "  query: %s\n", q.SQL)
		if q.Fingerprint != "" && q.Fingerprint != q.SQL {
			fmt.Fprintf(&sb, "  fingerprint: %s\n", q.Fingerprint)
		}
		for _, st := range q.Stages {
			fmt.Fprintf(&sb, "  stage %-28s sim=%-12s wall=%s\n",
				st.Name, st.Sim.Round(time.Microsecond), st.Wall.Round(time.Microsecond))
		}
		if q.CriticalPath != "" {
			fmt.Fprintf(&sb, "  critical path: %s\n", q.CriticalPath)
		}
		if len(q.Counters) > 0 {
			keys := make([]string, 0, len(q.Counters))
			for k := range q.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s=%d", k, q.Counters[k])
			}
			fmt.Fprintf(&sb, "  counters: %s\n", strings.Join(parts, " "))
		}
	}
	return sb.String()
}
