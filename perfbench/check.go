package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// digest identifies an answer as a bag of rows: the sums of two
// independent 64-bit hashes of each row, so row order does not matter and
// the reference keeps 16 bytes per distinct query.
type digest [2]uint64

func answerDigest(rows [][]types.Value) digest {
	var d digest
	for _, row := range rows {
		h := fnv.New64a()
		var buf [9]byte
		for _, v := range row {
			buf[0] = byte(v.T)
			switch v.T {
			case types.Float64:
				binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.F))
			case types.Bool:
				binary.LittleEndian.PutUint64(buf[1:], 0)
				if v.B {
					buf[1] = 1
				}
			default:
				binary.LittleEndian.PutUint64(buf[1:], uint64(v.I))
			}
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[1:], uint64(len(v.S)))
			h.Write(buf[1:])
			h.Write([]byte(v.S))
		}
		x := h.Sum64()
		d[0] += mix64(x)
		d[1] += mix64(x ^ 0x9e3779b97f4a7c15)
	}
	return d
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// toleranceRows bounds the answers the reference keeps in full for the
// float-tolerant comparison.
const toleranceRows = 1000

// sameWithin reports whether two answers are the same bag of rows, with
// floats equal to a relative 1e-9: engines that merge partial sums in a
// different order differ in the last bits.
func sameWithin(got, want [][]types.Value) bool {
	if len(got) != len(want) {
		return false
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return false
		}
		for j := range g[i] {
			a, b := g[i][j], w[i][j]
			if a.T == types.Float64 && b.T == types.Float64 {
				if math.Abs(a.F-b.F) > 1e-9*math.Max(1, math.Max(math.Abs(a.F), math.Abs(b.F))) {
					return false
				}
			} else if a != b {
				return false
			}
		}
	}
	return true
}

// sortedRows orders rows by their rendering with floats at 6 digits, so
// rows that differ only in float noise sort alike.
func sortedRows(rows [][]types.Value) [][]types.Value {
	keys := make([]string, len(rows))
	idx := make([]int, len(rows))
	for i, row := range rows {
		idx[i] = i
		var sb strings.Builder
		for _, v := range row {
			if v.T == types.Float64 {
				sb.WriteString(strconv.FormatFloat(v.F, 'g', 6, 64))
			} else {
				sb.WriteString(v.String())
			}
			sb.WriteByte('|')
		}
		keys[i] = sb.String()
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([][]types.Value, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

func hasFloat(rows [][]types.Value) bool {
	for _, row := range rows {
		for _, v := range row {
			if v.T == types.Float64 {
				return true
			}
		}
	}
	return false
}

// reference answers queries from a source with every optional mechanism
// off, memoized per (ingest epoch, SQL).
type reference struct {
	answer func(ctx context.Context, sql string) ([][]types.Value, error)
	// advance ingests the k-th write into the reference (nil for
	// read-only workloads).
	advance func(ctx context.Context, k int) error
	closeFn func()

	mu   sync.Mutex
	memo map[string]*refEntry
	// reported bounds how many mismatches are described in the log.
	reported atomic.Int32
}

type refEntry struct {
	once sync.Once
	d    digest
	// rows is kept for small answers holding floats.
	rows [][]types.Value
	err  error
}

func newReference(answer func(ctx context.Context, sql string) ([][]types.Value, error),
	advance func(ctx context.Context, k int) error, closeFn func()) *reference {
	return &reference{answer: answer, advance: advance, closeFn: closeFn, memo: map[string]*refEntry{}}
}

// want returns the reference entry for sql at the current epoch.
func (r *reference) want(ctx context.Context, sql string) *refEntry {
	r.mu.Lock()
	e := r.memo[sql]
	if e == nil {
		e = &refEntry{}
		r.memo[sql] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		rows, err := r.answer(ctx, sql)
		e.d, e.err = answerDigest(rows), err
		if len(rows) <= toleranceRows && hasFloat(rows) {
			e.rows = rows
		}
	})
	return e
}

// write applies the k-th write, moving the reference to the next ingest
// epoch.
func (r *reference) write(ctx context.Context, k int) error {
	if r.advance == nil {
		return errors.New("workload has no write path")
	}
	if err := r.advance(ctx, k); err != nil {
		return err
	}
	r.mu.Lock()
	r.memo = map[string]*refEntry{}
	r.mu.Unlock()
	return nil
}

// verify reports whether rows are the reference answer to sql.
func (r *reference) verify(ctx context.Context, o options, sql string, rows [][]types.Value) bool {
	want := r.want(ctx, sql)
	if want.err == nil && (answerDigest(rows) == want.d || (want.rows != nil && sameWithin(rows, want.rows))) {
		return true
	}
	if want.err != nil {
		r.report(o, "reference failed on %q: %v", sql, want.err)
	} else {
		r.report(o, "wrong answer (%d rows) to %q", len(rows), sql)
	}
	return false
}

// report describes one of the first few failures in the log.
func (r *reference) report(o options, format string, args ...any) {
	if r.reported.Add(1) > 3 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(o.log, format+"\n", args...)
}

// check verifies a round's samples on two goroutines and returns how many
// failed (an error counts as a failure).
func (r *reference) check(ctx context.Context, o options, samples []sample) int64 {
	var failed atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(samples) {
					return
				}
				s := samples[i]
				if s.err != nil {
					r.report(o, "query failed %q: %v", s.sql, s.err)
					failed.Add(1)
					continue
				}
				if !r.verify(ctx, o, s.sql, s.res.Rows) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return failed.Load()
}

func (r *reference) close() {
	if r.closeFn != nil {
		r.closeFn()
	}
}
