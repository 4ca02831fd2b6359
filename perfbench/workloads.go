package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	feisu "repro"
	"repro/internal/plan"
	"repro/internal/sqltest"
	"repro/internal/types"
	"repro/internal/workload"
)

// Every deployment keeps background heartbeats on (HeartbeatInterval 0
// means every 10s): the master declares a leaf dead after a minute without
// one, and from then on every query fails.

// ---------------------------------------------------------------------------
// sessions: the paper's trial-and-error analyst log over T1, two clients,
// SmartIndex with the heat tier under a budget of half the index working
// set, and the SSD column cache sized below its column working set.

const (
	sessionsClients = 2
	sessionsWarm    = 1000
	sessionsOps     = 40000
	// The budgets are half of what the unbudgeted probe (--probe, seeds 1
	// and 3) holds after the warm-up: 0.74-0.90 MB of index in 2.2-2.6k
	// entries and 1.79 MB of cached columns, each over 4 leaves. The index
	// working set keeps growing along the stream (2.4 MB after 20,000 more
	// queries), so both budgets bind for the whole measured phase.
	sessionsIndexBudget = 104 << 10
	sessionsCacheBytes  = 224 << 10
	// sessionsHeavyHitters and sessionsHotShare are the zipfidx settings.
	sessionsHeavyHitters = 64
	sessionsHotShare     = 0.9
)

var sessionsWorkload = &mix{
	setup: func(ctx context.Context, o options) (*fixture, error) {
		return setupSessions(ctx, o, sessionsIndexBudget, sessionsCacheBytes)
	},
	reference: t1Reference,
	replay:    replaySessions,
}

// t1Spec is T1 (8 partitions of 4096 rows, 200 columns) with its data
// seeded by the run's seed.
func t1Spec(o options) workload.DatasetSpec {
	spec := workload.T1Spec()
	spec.Seed = o.seed*1_000_003 + 101
	if o.short {
		spec.Partitions, spec.RowsPerPart, spec.Fields = 2, 512, 24
	}
	return spec
}

// sessionsLog is the warm-up prefix followed by the measured stream.
func sessionsLog(o options) (warm, ops []string) {
	nWarm, nOps := sessionsWarm, sessionsOps
	if o.short {
		nWarm, nOps = 40, 200
	}
	cfg := workload.DefaultLogConfig()
	cfg.Seed = o.seed
	cfg.Duration = time.Duration(nWarm+nOps) * 24 * time.Hour / time.Duration(cfg.QueriesPerDay)
	var all []string
	for _, e := range workload.GenerateLog(cfg) {
		all = append(all, e.SQL)
	}
	if len(all) < nWarm+1 {
		panic("sessions: query log shorter than its warm-up")
	}
	return all[:nWarm], all[nWarm:]
}

func sessionsConfig(indexBudget, cacheBytes int64) feisu.Config {
	return feisu.Config{
		Leaves:            4,
		IndexMemoryBytes:  indexBudget,
		IndexHeavyHitters: sessionsHeavyHitters,
		IndexHotShare:     sessionsHotShare,
		CacheBytes:        cacheBytes,
		CachePrefixes:     []string{"/hdfs/t1"},
		// Affinity keeps each partition on one leaf, so what the index and
		// the SSD cache hold does not depend on which client was faster.
		CacheAffinity: true,
	}
}

func setupSessions(ctx context.Context, o options, indexBudget, cacheBytes int64) (*fixture, error) {
	sys, err := feisu.New(sessionsConfig(indexBudget, cacheBytes))
	if err != nil {
		return nil, err
	}
	if err := loadT1(ctx, sys, o); err != nil {
		sys.Close()
		return nil, err
	}
	warm, stream := sessionsLog(o)
	for _, q := range warm {
		if _, err := sys.Query(ctx, q); err != nil {
			sys.Close()
			return nil, fmt.Errorf("warm-up %q: %w", q, err)
		}
	}
	return &fixture{sys: sys, clients: sessionsClients, ops: stream, warm: warm, close: sys.Close}, nil
}

// probeSessions runs the warm-up and the first probeOps measured queries
// with unbounded index and cache budgets, and prints the working sets the
// sessions budgets are derived from at checkpoints along the stream.
func probeSessions(ctx context.Context, o options) error {
	fx, err := setupSessions(ctx, o, 0, 1<<40)
	if err != nil {
		return err
	}
	defer fx.close()
	report := func(done int) {
		st := fx.sys.IndexStats()
		fmt.Fprintf(o.log, "after warm-up + %d queries: index %d bytes in %d entries, columns %.0f bytes (4 leaves)\n",
			done, st.Bytes, st.Entries, familySum(fx.sys, "feisu_cache_bytes"))
	}
	report(0)
	for i, q := range fx.ops[:min(20000, len(fx.ops))] {
		if _, err := fx.sys.Query(ctx, q); err != nil {
			return err
		}
		if n := i + 1; n == 2000 || n == 5000 || n == 10000 || n == 20000 {
			report(n)
		}
	}
	return nil
}

// familySum adds up every sample of one metric family.
func familySum(sys *feisu.System, name string) float64 {
	var sum float64
	for _, f := range sys.Metrics().Families() {
		if f.Name == name {
			for _, s := range f.Samples {
				sum += s.Value
			}
		}
	}
	return sum
}

func loadT1(ctx context.Context, sys *feisu.System, o options) error {
	meta, err := workload.Generate(ctx, sys.Router(), t1Spec(o))
	if err != nil {
		return err
	}
	return sys.RegisterTable(ctx, meta)
}

// referenceConfig turns every optional mechanism off: no index, no result
// cache, no SSD cache, serial scans.
func referenceConfig() feisu.Config {
	return feisu.Config{Leaves: 4, Index: feisu.IndexNone, ScanWorkers: -1}
}

func t1Reference(ctx context.Context, o options) (*reference, error) {
	ref, err := feisu.New(referenceConfig())
	if err != nil {
		return nil, err
	}
	if err := loadT1(ctx, ref, o); err != nil {
		ref.Close()
		return nil, err
	}
	return newReference(systemAnswer(ref), nil, ref.Close), nil
}

func systemAnswer(sys *feisu.System) func(ctx context.Context, sql string) ([][]types.Value, error) {
	return func(ctx context.Context, sql string) ([][]types.Value, error) {
		res, err := sys.Query(ctx, sql)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

// ---------------------------------------------------------------------------
// dashboards: one client repeating dashboard queries over an `events`
// table loaded from JSON lines, with the result cache on, and a fixed
// number of ingest batches spread through the measured stream.

const (
	dashInitBatches = 16
	dashInitRows    = 4096
	dashBatchRows   = 512
	// One batch of dashBatchRows is written after every dashWriteEvery
	// queries, so every query pays the same share of writes and
	// invalidations; at about 4,000 queries per second a 20 s run writes
	// some 32 batches and grows the table by a quarter.
	dashWriteEvery  = 2500
	dashWarm        = 200
	dashOps         = 200000
	dashZipfS       = 1.2
	dashResultCache = 64 << 20
	eventsRaw       = "/raw/events"
	eventsDst       = "/hdfs/events"
)

var eventsSchema = feisu.MustSchema(
	feisu.Field{Name: "ts", Type: feisu.Int64},
	feisu.Field{Name: "uid", Type: feisu.Int64},
	feisu.Field{Name: "clicks", Type: feisu.Int64},
	feisu.Field{Name: "region", Type: feisu.String},
	feisu.Field{Name: "dwell", Type: feisu.Float64},
)

var eventRegions = []string{"bj", "sh", "gz", "sz", "cd", "wh"}

var dashboardsWorkload = &mix{
	setup:     setupDashboards,
	reference: dashboardsReference,
	replay:    replayDashboards,
}

// dashSizes are the initial batch count and rows per initial batch.
func dashSizes(o options) (batches, rows int) {
	if o.short {
		return 2, 256
	}
	return dashInitBatches, dashInitRows
}

// eventsBatch renders ingest batch b as JSON lines. Batches below the
// initial count hold the initial load; later ones are the measured writes.
func eventsBatch(o options, b int) []byte {
	initBatches, rows := dashSizes(o)
	if b >= initBatches {
		rows = dashBatchRows
	}
	rng := rand.New(rand.NewSource(o.seed*7919 + int64(b)))
	var sb strings.Builder
	for r := 0; r < rows; r++ {
		fmt.Fprintf(&sb, `{"ts": %d, "uid": %d, "clicks": %d, "region": "%s", "dwell": %d.%d}`+"\n",
			b*100000+r, rng.Intn(5000), rng.Intn(20), eventRegions[rng.Intn(len(eventRegions))],
			rng.Intn(300), rng.Intn(10))
	}
	return []byte(sb.String())
}

func batchPath(b int) string { return fmt.Sprintf("%s/b%05d.json", eventsRaw, b) }

// ingestBatch writes batch b's raw file and converts it into the table.
func ingestBatch(ctx context.Context, sys *feisu.System, data []byte, b int) error {
	if err := sys.Router().WriteFile(ctx, batchPath(b), data); err != nil {
		return err
	}
	_, err := sys.IngestOnce(ctx, "events", eventsSchema, eventsRaw, eventsDst)
	return err
}

// loadEvents writes the initial batches and ingests them in one call.
func loadEvents(ctx context.Context, sys *feisu.System, o options) error {
	initBatches, _ := dashSizes(o)
	for b := 0; b < initBatches; b++ {
		if err := sys.Router().WriteFile(ctx, batchPath(b), eventsBatch(o, b)); err != nil {
			return err
		}
	}
	_, err := sys.IngestOnce(ctx, "events", eventsSchema, eventsRaw, eventsDst)
	return err
}

// dashboardPool is the distinct dashboard queries in popularity order:
// wide filters the result cache can subsume, filtered counts and sums, and
// GROUP BY region, interleaved so every kind has popular and rare members.
// The order is fixed, so a seed changes the draws but not what is popular.
func dashboardPool() []string {
	var filters, counts, sums, groups, mixed []string
	for x := 19; x >= 12; x-- {
		filters = append(filters, fmt.Sprintf("SELECT uid, clicks FROM events WHERE clicks > %d", x))
	}
	for _, r := range eventRegions {
		counts = append(counts, fmt.Sprintf("SELECT COUNT(*) FROM events WHERE region = '%s'", r))
	}
	for d := 250; d >= 50; d -= 50 {
		sums = append(sums, fmt.Sprintf("SELECT SUM(clicks) FROM events WHERE dwell > %d", d))
	}
	groups = append(groups, "SELECT region, COUNT(*), SUM(clicks) FROM events GROUP BY region")
	for x := 15; x >= 5; x -= 5 {
		groups = append(groups, fmt.Sprintf("SELECT region, COUNT(*), AVG(dwell) FROM events WHERE clicks > %d GROUP BY region", x))
	}
	for _, r := range eventRegions[:3] {
		for _, x := range []int{10, 5} {
			mixed = append(mixed, fmt.Sprintf("SELECT COUNT(*), SUM(clicks) FROM events WHERE clicks > %d AND region = '%s'", x, r))
		}
	}
	var p []string
	for i := 0; len(p) < len(filters)+len(counts)+len(sums)+len(groups)+len(mixed); i++ {
		for _, kind := range [][]string{groups, counts, filters, sums, mixed} {
			if i < len(kind) {
				p = append(p, kind[i])
			}
		}
	}
	return p
}

// dashboardsOps is the warm-up prefix and the measured query stream: Zipf
// popularity over the pool.
func dashboardsOps(o options) (warm, ops []string) {
	n := dashOps
	if o.short {
		n = 200
	}
	rng := rand.New(rand.NewSource(o.seed))
	pool := dashboardPool()
	zipf := rand.NewZipf(rng, dashZipfS, 1, uint64(len(pool)-1))
	for i := 0; i < dashWarm; i++ {
		warm = append(warm, pool[zipf.Uint64()])
	}
	for i := 0; i < n; i++ {
		ops = append(ops, pool[zipf.Uint64()])
	}
	return warm, ops
}

// dashWriteBatch is the batch number of the k-th measured write.
func dashWriteBatch(o options, k int) int {
	initBatches, _ := dashSizes(o)
	return initBatches + k
}

func setupDashboards(ctx context.Context, o options) (*fixture, error) {
	sys, err := feisu.New(feisu.Config{Leaves: 4, ResultCacheBytes: dashResultCache, CacheAffinity: true})
	if err != nil {
		return nil, err
	}
	if err := loadEvents(ctx, sys, o); err != nil {
		sys.Close()
		return nil, err
	}
	warm, ops := dashboardsOps(o)
	for _, q := range warm {
		if _, err := sys.Query(ctx, q); err != nil {
			sys.Close()
			return nil, fmt.Errorf("warm-up %q: %w", q, err)
		}
	}
	write := func(ctx context.Context, k int) error {
		b := dashWriteBatch(o, k)
		return ingestBatch(ctx, sys, eventsBatch(o, b), b)
	}
	every := dashWriteEvery
	if o.short {
		every = 50
	}
	return &fixture{sys: sys, clients: 1, ops: ops, warm: warm, writeEvery: every, write: write, close: sys.Close}, nil
}

func dashboardsReference(ctx context.Context, o options) (*reference, error) {
	ref, err := feisu.New(referenceConfig())
	if err != nil {
		return nil, err
	}
	if err := loadEvents(ctx, ref, o); err != nil {
		ref.Close()
		return nil, err
	}
	advance := func(ctx context.Context, k int) error {
		b := dashWriteBatch(o, k)
		return ingestBatch(ctx, ref, eventsBatch(o, b), b)
	}
	return newReference(systemAnswer(ref), advance, ref.Close), nil
}

// ---------------------------------------------------------------------------
// adhoc: one client over real loopback TCP, no index and no caches: T1
// GROUP BY at low and high group counts, and generated joins over two
// fact/dimension pairs, one broadcast and one repartitioned.

const (
	adhocOps         = 20000
	adhocJoinQueries = 24
	adhocQuerySeed   = 20250809
	// adhocBroadcast sits between the two dimensions' cataloged sizes, so
	// the small one is broadcast and the large one hash-repartitioned.
	adhocBroadcast = 16 << 10
)

// adhocPairs are the two generated fact/dimension pairs.
func adhocPairs(o options) []workload.JoinSpec {
	small := workload.DefaultJoinSpec()
	small.FactName, small.DimName, small.PathPrefix = "orders", "users", "/hdfs/join/small"
	small.FactPartitions, small.FactRowsPerPart = 4, 256
	small.DimPartitions, small.DimRowsPerPart, small.Keyspace = 2, 40, 30
	small.Seed = o.seed*31 + 1
	large := workload.DefaultJoinSpec()
	large.FactName, large.DimName, large.PathPrefix = "visits", "pages", "/hdfs/join/large"
	large.FactPartitions, large.FactRowsPerPart = 4, 256
	large.DimPartitions, large.DimRowsPerPart, large.Keyspace = 2, 512, 400
	large.Seed = o.seed*31 + 2
	if o.short {
		small.FactRowsPerPart, large.FactRowsPerPart = 32, 32
	}
	return []workload.JoinSpec{small, large}
}

// adhocGroupBys are the T1 aggregations: two with a handful of groups,
// two with over a thousand.
var adhocGroupBys = []string{
	"SELECT region, COUNT(*), SUM(clicks) FROM T1 GROUP BY region",
	"SELECT pos, AVG(dwell), MAX(score) FROM T1 WHERE spam = FALSE GROUP BY pos",
	"SELECT uid, COUNT(*) FROM T1 WHERE clicks = 3 GROUP BY uid",
	"SELECT url, SUM(clicks), MIN(dwell) FROM T1 WHERE pos = 2 GROUP BY url",
}

// adhocPool is the distinct queries. The join queries come from a fixed
// generator seed, so every run seed measures the same mix; the run seed
// changes the data and the draws.
func adhocPool(o options) []string {
	pool := append([]string(nil), adhocGroupBys...)
	for i, spec := range adhocPairs(o) {
		pool = append(pool, workload.JoinQueries(spec.FactName, spec.DimName, adhocQuerySeed+int64(i), adhocJoinQueries)...)
	}
	return pool
}

// adhocOpsFor draws the measured stream: a T1 GROUP BY one time in five,
// otherwise one of the join queries, uniformly within each kind.
func adhocOpsFor(o options) []string {
	n := adhocOps
	if o.short {
		n = 40
	}
	pool := adhocPool(o)
	groupBys, joins := pool[:len(adhocGroupBys)], pool[len(adhocGroupBys):]
	rng := rand.New(rand.NewSource(o.seed))
	ops := make([]string, n)
	for i := range ops {
		if rng.Intn(5) == 0 {
			ops[i] = groupBys[rng.Intn(len(groupBys))]
		} else {
			ops[i] = joins[rng.Intn(len(joins))]
		}
	}
	return ops
}

// adhocConfig runs over real loopback sockets. Cache affinity makes task
// placement a function of the partition: with load-aware placement, which
// leaves end up reading (and caching the footers of) which partitions, and
// so the simulated time and the live heap, depend on timing.
func adhocConfig() feisu.Config {
	return feisu.Config{Leaves: 4, Index: feisu.IndexNone, Transport: "tcp", BroadcastThreshold: adhocBroadcast, CacheAffinity: true}
}

var adhocWorkload = &mix{
	setup:     setupAdhoc,
	reference: adhocReference,
	replay:    replayAdhoc,
}

// loadJoins writes both pairs into sys and returns their rows as oracle
// tables.
func loadJoins(ctx context.Context, sys *feisu.System, o options) ([]*sqltest.Table, []*plan.TableMeta, error) {
	var tables []*sqltest.Table
	var metas []*plan.TableMeta
	for _, spec := range adhocPairs(o) {
		fm, dm, fr, dr, err := workload.GenerateJoin(ctx, sys.Router(), spec)
		if err != nil {
			return nil, nil, err
		}
		for _, m := range []*plan.TableMeta{fm, dm} {
			if err := sys.RegisterTable(ctx, m); err != nil {
				return nil, nil, err
			}
		}
		metas = append(metas, fm, dm)
		tables = append(tables,
			&sqltest.Table{Name: spec.FactName, Schema: workload.FactJoinSchema(), Rows: fr},
			&sqltest.Table{Name: spec.DimName, Schema: workload.DimJoinSchema(), Rows: dr})
	}
	return tables, metas, nil
}

func setupAdhoc(ctx context.Context, o options) (*fixture, error) {
	sys, err := feisu.New(adhocConfig())
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*fixture, error) {
		sys.Close()
		return nil, err
	}
	if err := loadT1(ctx, sys, o); err != nil {
		return fail(err)
	}
	_, metas, err := loadJoins(ctx, sys, o)
	if err != nil {
		return fail(err)
	}
	// The mix must run both join strategies.
	if b := metas[1].Bytes(); b >= adhocBroadcast {
		return fail(fmt.Errorf("small dimension is %d bytes, not below the %d-byte broadcast threshold", b, adhocBroadcast))
	}
	if b := metas[3].Bytes(); b < adhocBroadcast {
		return fail(fmt.Errorf("large dimension is %d bytes, not above the %d-byte broadcast threshold", b, adhocBroadcast))
	}
	// Warm-up: every distinct query once.
	warm := adhocPool(o)
	for _, q := range warm {
		if _, err := sys.Query(ctx, q); err != nil {
			return fail(fmt.Errorf("warm-up %q: %w", q, err))
		}
	}
	return &fixture{sys: sys, clients: 1, ops: adhocOpsFor(o), warm: warm, close: sys.Close}, nil
}

func adhocReference(ctx context.Context, o options) (*reference, error) {
	ref, err := feisu.New(referenceConfig())
	if err != nil {
		return nil, err
	}
	if err := loadT1(ctx, ref, o); err != nil {
		ref.Close()
		return nil, err
	}
	tables, _, err := loadJoins(ctx, ref, o)
	if err != nil {
		ref.Close()
		return nil, err
	}
	t1 := systemAnswer(ref)
	answer := func(ctx context.Context, sql string) ([][]types.Value, error) {
		if strings.Contains(sql, " FROM T1") {
			return t1(ctx, sql)
		}
		res, err := sqltest.Run(sql, tables...)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	return newReference(answer, nil, ref.Close), nil
}
