package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	feisu "repro"
)

// setupRepeats is how many times a run builds its deployment; setup_s is
// the median, and only the last deployment is measured.
const setupRepeats = 3

// Rounds bound how many answers are held before they are checked: the
// clients stop at a round boundary, the answers are checked untimed, and
// the next round starts. Only round walls count as measured time.
const (
	roundWall = time.Second
	roundOps  = 512
)

// fixture is one deployment, loaded and warmed up, ready for measurement.
type fixture struct {
	sys     *feisu.System
	clients int
	// ops is the measured query stream; query i is ops[i%len(ops)].
	ops []string
	// warm is the untimed warm-up prefix the deployment already ran.
	warm []string
	// writeEvery > 0 writes one ingest batch after every writeEvery
	// queries; write ingests the k-th. Only one-client workloads write, so
	// each answer's ingest epoch is the number of writes before it.
	writeEvery int
	write      func(ctx context.Context, k int) error
	// close stops sys and everything else the fixture started.
	close func()
}

// mix is one named workload: a traffic mix and its checks.
type mix struct {
	setup     func(ctx context.Context, o options) (*fixture, error)
	reference func(ctx context.Context, o options) (*reference, error)
	// replay builds the traced per-layer replay over fx's data.
	replay func(ctx context.Context, o options, fx *fixture) (*replayer, error)
}

var workloads = map[string]*mix{
	"sessions":   sessionsWorkload,
	"dashboards": dashboardsWorkload,
	"adhoc":      adhocWorkload,
}

// sample is one completed query of the measured phase.
type sample struct {
	sql string
	lat time.Duration
	sim time.Duration
	res *feisu.Result
	err error
}

// usage is process resource use at one instant.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
	}
}

func (u usage) sub(o usage) usage {
	return usage{cpu: u.cpu - o.cpu, mallocs: u.mallocs - o.mallocs, bytes: u.bytes - o.bytes, numGC: u.numGC - o.numGC}
}

// setupMedian builds the workload's deployment setupRepeats times and
// returns the last one with the median set-up time in seconds.
func setupMedian(ctx context.Context, w *mix, o options) (*fixture, float64, error) {
	var times []float64
	var fx *fixture
	for i := 0; i < setupRepeats; i++ {
		if fx != nil {
			fx.close()
			fx = nil
		}
		runtime.GC()
		start := time.Now()
		f, err := w.setup(ctx, o)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		fx = f
	}
	return fx, median(times), nil
}

// measured accumulates the measured phase of an untraced run.
type measured struct {
	wall    time.Duration
	use     usage
	sim     time.Duration
	lats    []float64 // ms
	queries int64
	failed  int64
	writes  []float64 // ms per ingest batch
}

func (m *measured) addRound(samples []sample, wall time.Duration, use usage) {
	m.wall += wall
	m.use.cpu += use.cpu
	m.use.mallocs += use.mallocs
	m.use.bytes += use.bytes
	for _, s := range samples {
		m.queries++
		m.lats = append(m.lats, float64(s.lat)/float64(time.Millisecond))
		m.sim += s.sim
	}
}

// runTimed is the untraced end-to-end measurement.
func runTimed(w *mix, o options) (*report, error) {
	ctx := context.Background()
	fx, setupS, err := setupMedian(ctx, w, o)
	if err != nil {
		return nil, err
	}
	refStart := time.Now()
	ref, err := w.reference(ctx, o)
	if err != nil {
		fx.close()
		return nil, fmt.Errorf("reference: %w", err)
	}
	fmt.Fprintf(o.log, "setup_s median %.3f over %d set-ups; reference built in %.3fs\n",
		setupS, setupRepeats, time.Since(refStart).Seconds())
	var checkTime time.Duration
	var m measured
	var next atomic.Int64
	budget := time.Duration(o.seconds * float64(time.Second))
	for m.wall < budget {
		k := len(m.writes)
		samples, writeMs, wall, use := runRound(ctx, fx, &next, budget-m.wall, k)
		m.addRound(samples, wall, use)
		// Checks run between rounds, outside the measured walls.
		t0 := time.Now()
		m.failed += ref.check(ctx, o, samples)
		checkTime += time.Since(t0)
		if writeMs >= 0 {
			m.writes = append(m.writes, writeMs)
			if err := ref.write(ctx, k); err != nil {
				fx.close()
				ref.close()
				return nil, fmt.Errorf("reference write: %w", err)
			}
		}
	}
	ref.close()
	ref = nil
	// A writing workload's caches fill up between writes, so its live heap
	// is read at the same point of the cycle: just before the next write.
	for fx.writeEvery > 0 && next.Load() < int64(len(m.writes)+1)*int64(fx.writeEvery) {
		sql := fx.ops[int(next.Add(1)-1)%len(fx.ops)]
		if _, err := fx.sys.Query(ctx, sql); err != nil {
			fx.close()
			return nil, fmt.Errorf("finishing the write cycle: %q: %w", sql, err)
		}
	}
	heapMB := liveHeapMB()
	fx.close()
	if m.queries == 0 {
		return nil, errors.New("no query completed in the measured phase")
	}

	q := float64(m.queries)
	sort.Float64s(m.lats)
	p50, _ := percentile(m.lats, 0.50)
	p99, above := percentile(m.lats, 0.99)
	fmt.Fprintf(o.log, "samples %d queries, %d above p99, %d ingest batches, measured %.3fs\n",
		m.queries, above, len(m.writes), m.wall.Seconds())
	fmt.Fprintf(o.log, "failed_ratio = %d / %d (checks took %.3fs)\n", m.failed, m.queries, checkTime.Seconds())
	if len(m.writes) > 0 {
		fmt.Fprintf(o.log, "ingest_ms_per_batch median %.4f over %d batches\n", median(m.writes), len(m.writes))
	}
	return &report{
		Correct:   m.failed == 0,
		Attempted: m.queries,
		Failed:    m.failed,
		Metrics: map[string]metric{
			"qps":                {q / m.wall.Seconds(), "1/s"},
			"p50_ms":             {p50, "ms"},
			"p99_ms":             {p99, "ms"},
			"cpu_us_per_query":   {float64(m.use.cpu) / float64(time.Microsecond) / q, "us"},
			"allocs_per_query":   {float64(m.use.mallocs) / q, "count"},
			"alloc_kb_per_query": {float64(m.use.bytes) / 1024 / q, "KiB"},
			"sim_ms_per_query":   {float64(m.sim) / float64(time.Millisecond) / q, "ms"},
			"live_heap_mb":       {heapMB, "MiB"},
			"setup_s":            {setupS, "s"},
		},
	}, nil
}

// runRound runs the closed loop until the round's wall or op budget is
// spent, or until write k is due, in which case the client that sees it
// due writes it and the round ends. It returns the completed queries, the
// write's wall in ms (-1 without a write), the round wall and the
// resources the round used.
func runRound(ctx context.Context, fx *fixture, next *atomic.Int64, left time.Duration, k int) ([]sample, float64, time.Duration, usage) {
	left = min(left, roundWall)
	var (
		mu      sync.Mutex
		samples []sample
		writeMs = -1.0
		stop    atomic.Bool
		started atomic.Int64
		wg      sync.WaitGroup
	)
	before := readUsage()
	start := time.Now()
	for c := 0; c < fx.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for !stop.Load() && started.Add(1) <= roundOps {
				if fx.writeEvery > 0 && next.Load() >= int64(k+1)*int64(fx.writeEvery) && stop.CompareAndSwap(false, true) {
					t0 := time.Now()
					if err := fx.write(ctx, k); err != nil {
						local = append(local, sample{sql: fmt.Sprintf("ingest batch %d", k), err: err})
					}
					writeMs = float64(time.Since(t0)) / float64(time.Millisecond)
					break
				}
				if time.Since(start) >= left {
					break
				}
				sql := fx.ops[int(next.Add(1)-1)%len(fx.ops)]
				t0 := time.Now()
				res, st, err := fx.sys.QueryStats(ctx, sql)
				s := sample{sql: sql, lat: time.Since(t0), res: res, err: err}
				if st != nil {
					s.sim = st.SimTime
				}
				local = append(local, s)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	return samples, writeMs, wall, readUsage().sub(before)
}

// liveHeapMB is HeapAlloc after forced collections. Goroutines of the
// deployments closed earlier in the run can hold their data for a moment
// after Close returns, so it collects until the heap stops shrinking.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	prev := uint64(math.MaxUint64)
	for i := 0; i < 10; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= prev-prev/100 {
			break
		}
		prev = ms.HeapAlloc
		time.Sleep(50 * time.Millisecond)
	}
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile returns the nearest-rank percentile of sorted values and how
// many samples lie strictly above it.
func percentile(sorted []float64, p float64) (float64, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	v := sorted[rank]
	above := 0
	for _, x := range sorted[rank+1:] {
		if x > v {
			above++
		}
	}
	return v, above
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
