package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/types"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestShortModePrintsEveryMetric runs every workload in short mode, untraced
// and traced, and checks the last line names every metric of
// BENCHMARK.json with its unit and reports correct answers.
func TestShortModePrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for trace, want := range map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "5", "--seconds", "1", "--trace", trace, "--short", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, stdout.String())
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

// TestCheckRejectsPerturbedAnswer feeds the answer check a reference and
// perturbed copies of it.
func TestCheckRejectsPerturbedAnswer(t *testing.T) {
	want := [][]types.Value{
		{types.NewString("bj"), types.NewInt(7), types.NewFloat(0.1 + 0.2)},
		{types.NewString("sh"), types.NewInt(3), types.NewFloat(1.5)},
		{types.NullValue(), types.NewInt(0), types.NewFloat(-2)},
	}
	clone := func() [][]types.Value {
		out := make([][]types.Value, len(want))
		for i, row := range want {
			out[i] = append([]types.Value(nil), row...)
		}
		return out
	}
	ref := newReference(func(context.Context, string) ([][]types.Value, error) { return want, nil }, nil, nil)
	o := options{log: &bytes.Buffer{}}
	ctx := context.Background()

	reordered := clone()
	reordered[0], reordered[2] = reordered[2], reordered[0]
	noisy := clone()
	noisy[0][2] = types.NewFloat(0.3)
	for name, rows := range map[string][][]types.Value{"identical": clone(), "reordered": reordered, "float noise": noisy} {
		if !ref.verify(ctx, o, "q", rows) {
			t.Errorf("%s answer rejected", name)
		}
	}

	perturbed := map[string]func([][]types.Value) [][]types.Value{
		"int changed":    func(r [][]types.Value) [][]types.Value { r[1][1] = types.NewInt(4); return r },
		"string changed": func(r [][]types.Value) [][]types.Value { r[0][0] = types.NewString("gz"); return r },
		"null to value":  func(r [][]types.Value) [][]types.Value { r[2][0] = types.NewString(""); return r },
		"float changed":  func(r [][]types.Value) [][]types.Value { r[1][2] = types.NewFloat(1.5000001); return r },
		"row dropped":    func(r [][]types.Value) [][]types.Value { return r[:2] },
		"row duplicated": func(r [][]types.Value) [][]types.Value { return append(r, r[0]) },
		"cells swapped":  func(r [][]types.Value) [][]types.Value { r[0][1], r[1][1] = r[1][1], r[0][1]; return r },
	}
	for name, perturb := range perturbed {
		if ref.verify(ctx, o, "q", perturb(clone())) {
			t.Errorf("%s: perturbed answer accepted", name)
		}
	}
}

// streamBytes renders a workload's whole input for a seed: the query
// stream, the ingest batches it writes, and the data seed.
func streamBytes(name string, seed int64) string {
	o := options{seed: seed}
	var sb strings.Builder
	fmt.Fprintf(&sb, "T1 seed %d\n", t1Spec(o).Seed)
	switch name {
	case "sessions":
		warm, ops := sessionsLog(o)
		sb.WriteString(strings.Join(warm, "\n"))
		sb.WriteString(strings.Join(ops, "\n"))
	case "dashboards":
		warm, ops := dashboardsOps(o)
		sb.WriteString(strings.Join(warm, "\n"))
		sb.WriteString(strings.Join(ops, "\n"))
		for b := 0; b < dashWriteBatch(o, 64); b++ {
			sb.Write(eventsBatch(o, b))
		}
	case "adhoc":
		for _, spec := range adhocPairs(o) {
			fmt.Fprintf(&sb, "%+v\n", spec)
		}
		sb.WriteString(strings.Join(adhocOpsFor(o), "\n"))
	}
	return sb.String()
}

// TestStreamsFollowTheSeed checks that one seed yields a byte-identical
// query and write stream and another seed a different one.
func TestStreamsFollowTheSeed(t *testing.T) {
	for name := range workloads {
		a, b, c := streamBytes(name, 7), streamBytes(name, 7), streamBytes(name, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}
