package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/bitmap"
	"repro/internal/cache"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

// replayer runs queries through each layer's public functions in this
// process, one call at a time, with spans around every call into a layer:
// sqlparser.Parse, plan.PlanWith, resultcache.Cache.Lookup/Store,
// exec.RunTaskModel over timing decorators of exec.PartitionReader and
// exec.IndexSource, the shuffle operators, exec.MergeResults and
// exec.Finalize. Tasks run on the same number of replay leaves as the
// deployment, each with its own reader stack and index, and scan serially
// so spans nest.
type replayer struct {
	cat    plan.Catalog
	opts   plan.Options
	rc     *resultcache.Cache
	leaves []replayLeaf
	// dims reads broadcast dimensions, as the master does before dispatch.
	dims  *exec.StoreReader
	model *sim.CostModel
	tr    *tracer
	// convert ingests one more raw batch into the replay's own copy of the
	// table and returns the converted rows (dashboards only).
	convert func(ctx context.Context) (int64, error)

	parseAllocs, taskAllocs uint64
	// allocReads counts heapAllocs calls made for tracing.
	allocReads int64
	atoms      int64
	shuffles   int64
}

type replayLeaf struct {
	reader exec.PartitionReader
	idx    exec.IndexSource
}

// newReplayer builds n replay leaves over router; mkReader wraps each
// leaf's store reader (the SSD cache) and mkIndex builds its index (nil for
// none).
func newReplayer(n int, router *storage.Router, cat plan.Catalog, opts plan.Options,
	mkReader func(exec.PartitionReader) exec.PartitionReader, mkIndex func() exec.IndexSource) *replayer {
	r := &replayer{cat: cat, opts: opts, dims: exec.NewStoreReader(router), model: sim.DefaultCostModel(), tr: &tracer{epoch: time.Now()}}
	for i := 0; i < n; i++ {
		var reader exec.PartitionReader = exec.NewStoreReader(router)
		if mkReader != nil {
			reader = mkReader(reader)
		}
		leaf := replayLeaf{reader: &timedReader{inner: reader, tr: r.tr}}
		if mkIndex != nil {
			idx := mkIndex()
			striped, _ := idx.(exec.StripedSource)
			leaf.idx = &timedIndex{inner: idx, striped: striped, tr: r.tr}
		}
		r.leaves = append(r.leaves, leaf)
	}
	return r
}

func replaySessions(ctx context.Context, o options, fx *fixture) (*replayer, error) {
	model := sim.DefaultCostModel()
	return newReplayer(4, fx.sys.Router(), fx.sys.Master().Jobs, plan.Options{},
		func(pr exec.PartitionReader) exec.PartitionReader {
			return cache.NewReader(pr, cache.Options{CapacityBytes: sessionsCacheBytes, Prefixes: []string{"/hdfs/t1"}, Model: model})
		},
		func() exec.IndexSource {
			return core.New(core.Options{
				MemoryBudget: sessionsIndexBudget, HeavyHitters: sessionsHeavyHitters,
				HotShare: sessionsHotShare, Model: model,
			})
		}), nil
}

func replayDashboards(ctx context.Context, o options, fx *fixture) (*replayer, error) {
	model := sim.DefaultCostModel()
	cat := plan.MapCatalog{"events": {Name: "events", Schema: eventsSchema}}
	r := newReplayer(4, fx.sys.Router(), cat, plan.Options{}, nil,
		func() exec.IndexSource { return core.New(core.Options{Model: model}) })
	r.rc = resultcache.New(resultcache.Config{CapacityBytes: dashResultCache, TTL: 5 * time.Minute})
	// The replay converts the same raw files into its own partitions.
	conv := &ingest.Converter{Router: fx.sys.Router(), Schema: eventsSchema, SrcPrefix: eventsRaw, DstPrefix: "/hdfs/events-replay"}
	r.convert = func(ctx context.Context) (int64, error) {
		parts, err := conv.ScanOnce(ctx)
		if err != nil {
			return 0, err
		}
		var rows int64
		for _, p := range parts {
			rows += p.Rows
		}
		cat["events"].Partitions = append(cat["events"].Partitions, parts...)
		r.rc.InvalidateTable("events")
		return rows, nil
	}
	if _, err := r.convert(ctx); err != nil {
		return nil, err
	}
	return r, nil
}

func replayAdhoc(ctx context.Context, o options, fx *fixture) (*replayer, error) {
	return newReplayer(4, fx.sys.Router(), fx.sys.Master().Jobs, plan.Options{BroadcastThreshold: adhocBroadcast}, nil, nil), nil
}

// heapAllocs is the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocs reads heapAllocs while tracing, and is 0 otherwise.
func (r *replayer) allocs() uint64 {
	if !r.tr.on {
		return 0
	}
	r.allocReads++
	return heapAllocs()
}

// query replays one statement and returns its answer and whether its plan
// repartitions.
func (r *replayer) query(ctx context.Context, sql string) (*exec.Result, bool, error) {
	root := r.tr.begin("query")
	defer r.tr.end(root)

	a0 := r.allocs()
	id := r.tr.begin("sqlparser.parse")
	stmt, err := sqlparser.Parse(sql)
	r.tr.end(id)
	r.parseAllocs += r.allocs() - a0
	if err != nil {
		return nil, false, err
	}
	id = r.tr.begin("plan.plan")
	p, err := plan.PlanWith(stmt, r.cat, r.opts)
	r.tr.end(id)
	if err != nil {
		return nil, false, err
	}
	for _, cl := range p.Filter.Clauses {
		r.atoms += int64(len(cl.Atoms))
	}
	repartition := p.Shuffle != nil && !p.Shuffle.GroupShuffle
	if r.rc != nil {
		id = r.tr.begin("resultcache.lookup")
		res, outcome := r.rc.Lookup(p)
		r.tr.end(id)
		if outcome != resultcache.Miss {
			return res, repartition, nil
		}
	}
	id = r.tr.begin("dims.load")
	err = loadDims(ctx, r.dims, p)
	r.tr.end(id)
	if err != nil {
		return nil, false, err
	}

	var merged *exec.TaskResult
	if repartition {
		merged, err = r.shuffle(ctx, p)
	} else {
		// A repartitioned GROUP BY merges the same partial groups the
		// leaves produce, so its answer is the plain task merge.
		merged, err = r.tasks(ctx, p)
	}
	if err != nil {
		return nil, false, err
	}
	if merged == nil {
		merged = &exec.TaskResult{}
		if p.Mode == plan.ModeAgg {
			merged.Groups = exec.NewGroups(len(p.Aggs))
		}
	}
	id = r.tr.begin("exec.finalize")
	res, err := exec.Finalize(p, merged)
	r.tr.end(id)
	if err != nil {
		return nil, false, err
	}
	if r.rc != nil {
		id = r.tr.begin("resultcache.store")
		r.rc.Store(p, "", res)
		r.tr.end(id)
	}
	return res, repartition, nil
}

// task runs one sub-plan on its replay leaf.
func (r *replayer) task(ctx context.Context, t plan.TaskSpec) (*exec.TaskResult, error) {
	t.Workers = 1
	leaf := r.leaves[t.Ordinal%len(r.leaves)]
	a0 := r.allocs()
	id := r.tr.begin("exec.task")
	res, err := exec.RunTaskModel(storage.WithBill(ctx, sim.NewBill()), t, leaf.reader, leaf.idx, r.model)
	r.tr.end(id)
	r.taskAllocs += r.allocs() - a0
	return res, err
}

func (r *replayer) tasks(ctx context.Context, p *plan.PhysicalPlan) (*exec.TaskResult, error) {
	var merged *exec.TaskResult
	for _, t := range p.Tasks() {
		res, err := r.task(ctx, t)
		if err != nil {
			return nil, err
		}
		id := r.tr.begin("exec.merge")
		merged = exec.MergeResults(p, merged, res)
		r.tr.end(id)
	}
	return merged, nil
}

// shuffle replays a repartition join: map tasks on both sides, rows routed
// by the engine's partition hash, one partitioned hash join per partition.
func (r *replayer) shuffle(ctx context.Context, p *plan.PhysicalPlan) (*exec.TaskResult, error) {
	sh := p.Shuffle
	parts := max(sh.Partitions, 1)
	route := func(mp *plan.PhysicalPlan) ([][][]types.Value, error) {
		out := make([][][]types.Value, parts)
		for _, t := range mp.Tasks() {
			res, err := r.task(ctx, t)
			if err != nil {
				return nil, err
			}
			id := r.tr.begin("shuffle.route")
			for _, row := range res.Rows {
				pi := exec.ShufflePartition(row, sh.Keys, parts)
				out[pi] = append(out[pi], row)
			}
			r.tr.end(id)
		}
		return out, nil
	}
	build, err := route(sh.BuildPlan)
	if err != nil {
		return nil, err
	}
	probe, err := route(sh.ProbePlan)
	if err != nil {
		return nil, err
	}
	var merged *exec.TaskResult
	for pi := 0; pi < parts; pi++ {
		id := r.tr.begin("shuffle.reduce")
		j := exec.NewPartitionedHashJoin(p, exec.NewMemSpillStore(), exec.ShuffleBilling{})
		err := j.PushBuild(build[pi])
		if err == nil {
			err = j.PushProbe(probe[pi])
		}
		var res *exec.TaskResult
		if err == nil {
			res, err = j.Flush()
		}
		r.tr.end(id)
		if err != nil {
			return nil, err
		}
		id = r.tr.begin("exec.merge")
		merged = exec.MergeResults(p, merged, res)
		r.tr.end(id)
	}
	r.shuffles++
	return merged, nil
}

// loadDims materializes each broadcast dimension's needed columns, as the
// master does before dispatch (repeated columns surface their first
// element).
func loadDims(ctx context.Context, reader *exec.StoreReader, p *plan.PhysicalPlan) error {
	for _, d := range p.Dims {
		if len(d.Needed) == 0 {
			d.Data = nil
			continue
		}
		var rows [][]types.Value
		for _, part := range d.Table.Meta.Partitions {
			meta, err := reader.Meta(ctx, part.Path)
			if err != nil {
				return err
			}
			ords := make([]int, len(d.Needed))
			for i, c := range d.Needed {
				if ords[i] = meta.Schema.Index(c); ords[i] < 0 {
					return fmt.Errorf("dimension %s lacks column %q", d.Table.Meta.Name, c)
				}
			}
			for bi := range meta.Blocks {
				cols := make([]*colstore.Column, len(ords))
				for i, ord := range ords {
					if cols[i], err = reader.Column(ctx, part.Path, meta, bi, ord); err != nil {
						return err
					}
				}
				for rec := 0; rec < meta.Blocks[bi].Stats.NumRows; rec++ {
					row := make([]types.Value, len(cols))
					for i, c := range cols {
						row[i] = firstValue(c, rec)
					}
					rows = append(rows, row)
				}
			}
		}
		d.Data = rows
	}
	return nil
}

func firstValue(c *colstore.Column, rec int) types.Value {
	if c.Offsets != nil {
		start, end := c.Offsets[rec], c.Offsets[rec+1]
		if start == end {
			return types.NullValue()
		}
		return c.Value(int(start))
	}
	return c.Value(rec)
}

// timedReader records a span around each partition read.
type timedReader struct {
	inner exec.PartitionReader
	tr    *tracer
}

func (r *timedReader) Meta(ctx context.Context, path string) (*colstore.FileMeta, error) {
	id := r.tr.begin("colstore.meta")
	defer r.tr.end(id)
	return r.inner.Meta(ctx, path)
}

func (r *timedReader) Column(ctx context.Context, path string, meta *colstore.FileMeta, block, col int) (*colstore.Column, error) {
	id := r.tr.begin("colstore.column")
	defer r.tr.end(id)
	return r.inner.Column(ctx, path, meta, block, col)
}

// timedIndex records a span around each index call. It forwards the
// striped probe so the executor keeps the hot tier's fast path.
type timedIndex struct {
	inner   exec.IndexSource
	striped exec.StripedSource
	tr      *tracer
}

func (x *timedIndex) Lookup(ctx context.Context, blockID string, atom plan.Atom, n int) (*bitmap.Bitmap, bool) {
	id := x.tr.begin("core.lookup")
	defer x.tr.end(id)
	return x.inner.Lookup(ctx, blockID, atom, n)
}

func (x *timedIndex) LookupStriped(ctx context.Context, blockID string, atom plan.Atom, n int) (*bitmap.Striped, bool) {
	if x.striped == nil {
		return nil, false
	}
	id := x.tr.begin("core.lookup")
	defer x.tr.end(id)
	return x.striped.LookupStriped(ctx, blockID, atom, n)
}

func (x *timedIndex) Store(blockID string, atom plan.Atom, bm *bitmap.Bitmap, stats colstore.Stats) {
	id := x.tr.begin("core.store")
	defer x.tr.end(id)
	x.inner.Store(blockID, atom, bm, stats)
}
