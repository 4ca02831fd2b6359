package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	feisu "repro"
	"repro/internal/core"
	"repro/internal/resultcache"
	"repro/internal/types"
)

// wireClasses names the transport classes in counter order.
var wireClasses = []string{"control", "write", "read", "shuffle"}

// counters are the deployment's own cumulative counters.
type counters struct {
	idx                core.Stats
	rc                 resultcache.Stats
	ssdHits, ssdMisses int64
	wire               [4]int64
	msgs               int64
}

func readCounters(sys *feisu.System) counters {
	c := counters{idx: sys.IndexStats(), rc: sys.ResultCache().Snapshot()}
	for name, v := range sys.Metrics().Snapshot() {
		switch {
		case strings.HasSuffix(name, ".cache.hits"):
			c.ssdHits += v
		case strings.HasSuffix(name, ".cache.misses"):
			c.ssdMisses += v
		}
	}
	if tcp := sys.WireTransport(); tcp != nil {
		for i := range c.wire {
			c.wire[i] = tcp.WireBytes[i].Value()
			c.msgs += tcp.Counters().Msgs[i].Value()
		}
	}
	return c
}

// sameAnswer compares two engines' answers as bags, floats to a relative
// 1e-9 for small answers.
func sameAnswer(got, want [][]types.Value) bool {
	return answerDigest(got) == answerDigest(want) ||
		(len(want) <= toleranceRows && sameWithin(got, want))
}

// tracedRun accumulates the traced replay.
type tracedRun struct {
	attempted, failed int64
	// replayWall and sysWall sum the replay's and the deployment's walls of
	// the replayed queries; spans and allocReads count the tracing work in
	// them.
	replayed            int64
	replayWall, sysWall time.Duration
	spans, allocReads   int64
	tasks, reused       int64
	rowsScanned, spill  int64
	shuffleQueries      int64
	shuffleWall         [3]time.Duration // map, transfer, reduce
	ingestMs, convertMs []float64
	convertRows         int64
}

// runTraced replays the measured stream one op at a time. Each query runs
// untraced on the deployment, then through the traced replay. The cost of
// the tracing itself is measured per span and per allocation-counter read
// and taken out of the replay wall, which gives the tracing overhead and,
// against the deployment's wall, the cluster's own time. A repartitioned
// query also runs once more on the deployment with its trace on, for the
// walls of the shuffle stages. Every deployment answer is checked against
// the reference and every replay answer against the deployment's.
func runTraced(w *mix, o options) (*report, error) {
	ctx := context.Background()
	fx, err := w.setup(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer fx.close()
	ref, err := w.reference(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer ref.close()
	rp, err := w.replay(ctx, o, fx)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for _, q := range fx.warm {
		if _, _, err := rp.query(ctx, q); err != nil {
			return nil, fmt.Errorf("replay warm-up %q: %w", q, err)
		}
	}

	var t tracedRun
	rp.tr.on = true
	before := readCounters(fx.sys)
	gc0 := readUsage().numGC
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		if fx.writeEvery > 0 && i > 0 && i%fx.writeEvery == 0 {
			if err := t.write(ctx, fx, rp, ref, len(t.ingestMs)); err != nil {
				return nil, err
			}
		}
		t.query(ctx, o, fx, rp, ref, fx.ops[i%len(fx.ops)])
	}
	gcCycles := readUsage().numGC - gc0
	after := readCounters(fx.sys)
	rp.tr.on = false
	if t.replayed == 0 {
		return nil, fmt.Errorf("too few queries replayed (%d)", t.attempted)
	}
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	if err := rp.tr.write(path); err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	fmt.Fprintf(o.log, "replayed %d of %d queries, %d spans written to %s\n",
		t.replayed, t.attempted, len(rp.tr.spans), path)
	return &report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   t.metrics(o, rp, before, after, gcCycles),
	}, nil
}

func (t *tracedRun) write(ctx context.Context, fx *fixture, rp *replayer, ref *reference, k int) error {
	t0 := time.Now()
	if err := fx.write(ctx, k); err != nil {
		return fmt.Errorf("write %d: %w", k, err)
	}
	t.ingestMs = append(t.ingestMs, float64(time.Since(t0))/float64(time.Millisecond))
	t0 = time.Now()
	rows, err := rp.convert(ctx)
	if err != nil {
		return fmt.Errorf("replay of write %d: %w", k, err)
	}
	t.convertMs = append(t.convertMs, float64(time.Since(t0))/float64(time.Millisecond))
	t.convertRows += rows
	return ref.write(ctx, k)
}

func (t *tracedRun) query(ctx context.Context, o options, fx *fixture, rp *replayer, ref *reference, sql string) {
	t.attempted++
	t0 := time.Now()
	res, st, err := fx.sys.QueryStats(ctx, sql)
	sysWall := time.Since(t0)
	if err != nil {
		t.failed++
		fmt.Fprintf(o.log, "query failed %q: %v\n", sql, err)
		return
	}
	spans0, reads0 := len(rp.tr.spans), rp.allocReads
	t0 = time.Now()
	rres, repartition, rerr := rp.query(ctx, sql)
	t.replayWall += time.Since(t0)
	t.sysWall += sysWall
	t.replayed++
	t.spans += int64(len(rp.tr.spans) - spans0)
	t.allocReads += rp.allocReads - reads0
	t.tasks += int64(st.Tasks)
	t.reused += int64(st.ReusedTasks)
	t.rowsScanned += st.Scan.RowsScanned
	t.spill += st.ShuffleSpillBytes
	ok := true
	if repartition {
		_, tst, err := fx.sys.QueryStats(ctx, sql, feisu.WithTrace())
		if err != nil {
			fmt.Fprintf(o.log, "traced rerun failed %q: %v\n", sql, err)
			ok = false
		} else {
			t.shuffleQueries++
			for i, name := range []string{"shuffle-map", "shuffle-transfer", "shuffle-reduce"} {
				for _, s := range tst.Trace.FindAll(name) {
					t.shuffleWall[i] += s.Wall()
				}
			}
		}
	}
	ok = ref.verify(ctx, o, sql, res.Rows) && ok
	if rerr != nil || !sameAnswer(rres.Rows, res.Rows) {
		fmt.Fprintf(o.log, "replay answer differs from the deployment's on %q (%v)\n", sql, rerr)
		ok = false
	}
	if !ok {
		t.failed++
	}
}

// metrics computes the per-layer figures: span figures from the replay,
// ratios from the deployment's counters over the run.
func (t *tracedRun) metrics(o options, rp *replayer, before, after counters, gcCycles uint32) map[string]metric {
	lt := rp.tr.totals()
	get := func(name string) *layerTotals {
		if x := lt[name]; x != nil {
			return x
		}
		return &layerTotals{}
	}
	us := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(time.Microsecond) / float64(n)
	}
	per := func(v, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	q := t.attempted
	nT := t.replayed
	perSpan, perRead := tracingCost()
	tracing := time.Duration(float64(t.spans)*perSpan + float64(t.allocReads)*perRead)
	untraced := t.replayWall - tracing
	fmt.Fprintf(o.log, "tracing: %d spans at %.1fns and %d allocation reads at %.1fns, %v of %v replay wall\n",
		t.spans, perSpan, t.allocReads, perRead, tracing, t.replayWall)
	executed := get("exec.finalize").n
	task := get("exec.task")
	lookups := get("core.lookup")
	idxHits := after.idx.Hits + after.idx.DerivedHits - before.idx.Hits - before.idx.DerivedHits
	idxMisses := after.idx.Misses - before.idx.Misses
	rcHits := after.rc.Hits - before.rc.Hits
	rcSub := after.rc.SubsumedHits - before.rc.SubsumedHits
	rcLookups := rcHits + rcSub + after.rc.Misses - before.rc.Misses
	log := o.log

	m := map[string]metric{
		"sqlparser.parse_us":         {us(get("sqlparser.parse").total, nT), "us"},
		"sqlparser.allocs":           {per(int64(rp.parseAllocs), nT), "count"},
		"plan.plan_us":               {us(get("plan.plan").total, nT), "us"},
		"plan.atoms":                 {per(rp.atoms, nT), "count"},
		"resultcache.lookup_us":      {us(get("resultcache.lookup").total, get("resultcache.lookup").n), "us"},
		"resultcache.hit_ratio":      {ratio(log, "resultcache.hit_ratio", float64(rcHits+rcSub), float64(rcLookups)), "ratio"},
		"resultcache.subsumed_ratio": {ratio(log, "resultcache.subsumed_ratio", float64(rcSub), float64(rcLookups)), "ratio"},
		"resultcache.invalidations":  {float64(after.rc.Invalidations - before.rc.Invalidations), "count"},
		"core.lookup_us":             {us(lookups.total, lookups.n), "us"},
		"core.store_us":              {us(get("core.store").total, get("core.store").n), "us"},
		"core.lookups_per_query":     {per(lookups.n, nT), "count"},
		"core.hit_ratio":             {ratio(log, "core.hit_ratio", float64(idxHits), float64(idxHits+idxMisses)), "ratio"},
		"core.striped_hit_ratio": {ratio(log, "core.striped_hit_ratio",
			float64(after.idx.StripedHits-before.idx.StripedHits), float64(idxHits)), "ratio"},
		"core.evictions_per_query": {ratio(log, "core.evictions_per_query",
			float64(after.idx.EvictedLRU+after.idx.EvictedTTL-before.idx.EvictedLRU-before.idx.EvictedTTL), float64(q)), "count"},
		"cache.hit_ratio": {ratio(log, "cache.hit_ratio", float64(after.ssdHits-before.ssdHits),
			float64(after.ssdHits+after.ssdMisses-before.ssdHits-before.ssdMisses)), "ratio"},
		"colstore.column_us":          {us(get("colstore.column").total, get("colstore.column").n), "us"},
		"colstore.columns_per_query":  {per(get("colstore.column").n, nT), "count"},
		"exec.task_self_us":           {us(task.self, task.n), "us"},
		"exec.allocs_per_task":        {per(int64(rp.taskAllocs), task.n), "count"},
		"exec.tasks_per_query":        {per(t.tasks, q), "count"},
		"exec.rows_scanned_per_query": {per(t.rowsScanned, q), "count"},
		"exec.merge_us":               {us(get("exec.merge").total, executed), "us"},
		"exec.finalize_us":            {us(get("exec.finalize").total, executed), "us"},
		"ingest_ms_per_batch":         {median(t.ingestMs), "ms"},
		"ingest.convert_ms_per_batch": {median(t.convertMs), "ms"},
		"ingest.rows_per_s":           {rowsPerSecond(t.convertRows, t.convertMs), "1/s"},
		"cluster.self_us":             {us(t.sysWall-untraced, nT), "us"},
		"cluster.reused_ratio":        {ratio(log, "cluster.reused_ratio", float64(t.reused), float64(t.tasks)), "ratio"},
		"shuffle.map_us":              {us(t.shuffleWall[0], t.shuffleQueries), "us"},
		"shuffle.transfer_us":         {us(t.shuffleWall[1], t.shuffleQueries), "us"},
		"shuffle.reduce_us":           {us(t.shuffleWall[2], t.shuffleQueries), "us"},
		"shuffle.spill_kb_per_query":  {per(t.spill, q) / 1024, "KiB"},
		"transport.msgs_per_query":    {per(after.msgs-before.msgs, q), "count"},
		"runtime.gc_cycles_per_query": {per(int64(gcCycles), q), "count"},
		"trace.overhead_pct":          {100 * float64(tracing) / float64(untraced), "%"},
		"failed_ratio":                {ratio(log, "failed_ratio", float64(t.failed), float64(q)), "ratio"},
	}
	for i, class := range wireClasses {
		m["transport.wire_kb_per_query."+class] = metric{per(after.wire[i]-before.wire[i], q) / 1024, "KiB"}
	}
	fmt.Fprintf(log, "replay: %d tasks, %d index lookups, %d column reads, %d repartitioned queries replayed\n",
		task.n, lookups.n, get("colstore.column").n, rp.shuffles)
	return m
}

func rowsPerSecond(rows int64, ms []float64) float64 {
	var total float64
	for _, x := range ms {
		total += x
	}
	if total == 0 {
		return 0
	}
	return float64(rows) / (total / 1000)
}

// ratio prints a ratio with its numerator and denominator and returns it
// (0 when the denominator is 0: the layer did no such work).
func ratio(log io.Writer, name string, num, den float64) float64 {
	fmt.Fprintf(log, "ratio %s = %g / %g\n", name, num, den)
	if den == 0 {
		return 0
	}
	return num / den
}
