package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// TestReplayMatchesDBSearch is the decomposition identity the traced runs
// rest on: DB.Search composed from public parts — index.Load, Query.Plan,
// Plan.Candidates, CandidateSet.Ranked and the engine call, over the
// timing store — returns byte-identical results and identical
// SearchStats in the scan, candidate-only and top-k modes.
func TestReplayMatchesDBSearch(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	c, err := buildCorpus(11, "d", 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	if err := ingestAll(ctx, dir, c); err != nil {
		t.Fatal(err)
	}
	var specs []searchSpec
	specs = append(specs, scanPool()[:8]...)
	for _, op := range newServeMix(rng(11, 1)).block(200, 1) {
		if !op.write {
			specs = append(specs, op.spec)
		}
	}
	type run struct {
		q    *query.Query
		opts query.SearchOptions
		res  []query.Result
		st   query.SearchStats
	}
	var runs []run
	for _, s := range specs {
		q, err := s.compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, topN} {
			runs = append(runs, run{q: q, opts: query.SearchOptions{TopN: n}})
		}
	}

	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if runs[i].res, runs[i].st, err = db.Search(ctx, runs[i].q, runs[i].opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	tr := newTracer()
	r, err := openReplayer(dir, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	modes := map[query.ExecMode]int{}
	stopped := 0
	for i, want := range runs {
		res, st, err := r.search(ctx, want.q, want.opts, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(res, want.res) {
			t.Fatalf("%s top %d: replay differs from DB.Search: %s", want.q, want.opts.TopN, diffResults(res, want.res))
		}
		if st != want.st {
			t.Fatalf("%s top %d: replay stats %+v, DB.Search stats %+v", want.q, want.opts.TopN, st, want.st)
		}
		modes[st.Mode]++
		if st.EarlyStopped {
			stopped++
		}
	}
	for _, m := range []query.ExecMode{query.ExecScan, query.ExecCandidateOnly, query.ExecTopK} {
		if modes[m] == 0 {
			t.Errorf("no search ran in mode %s (modes seen: %v)", m, modes)
		}
	}
	if stopped == 0 {
		t.Error("no top-k search stopped early; the early-stop path went untested")
	}
	ss := tr.set()
	if len(ss.byName["diskstore.GetBatch"]) == 0 || len(ss.byName["diskstore.Scan"]) == 0 {
		t.Error("the timing store saw no batched fetch or no scan")
	}
	for _, s := range ss.byName["query.Engine.SearchTopK"] {
		if self := ss.self(s); self < 0 || self > s.dur() {
			t.Fatalf("engine self time %d outside [0, %d]", self, s.dur())
		}
	}
}

// TestSelfTime checks self time against hand-computed intervals:
// overlapping children count once and parts outside the parent not at all.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 0, End: 50},
	}}
	if got := tr.set().self(&tr.spans[0]); got != 60 {
		t.Fatalf("self = %d, want 60", got)
	}
}

// TestStratifiedMix checks that every seed's serve-zipf schedule has the
// mix's proportions exactly and that every search can be planned.
func TestStratifiedMix(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		counts := map[string]int{}
		for _, op := range newServeMix(rng(seed, 1)).block(800, serveWritePool) {
			kind := "write"
			if !op.write {
				kind = op.spec.Mode + op.spec.Combine
				q, err := op.spec.compile()
				if err != nil {
					t.Fatal(err)
				}
				if !q.Plan(3).Prunable() {
					t.Errorf("%s cannot be pruned", q)
				}
			}
			counts[kind]++
		}
		want := map[string]int{"write": 80, "": 540, "and": 70, "or": 70, "fuzzy": 40}
		for k, n := range want {
			if counts[k] != n {
				t.Errorf("seed %d: %d %q requests, want %d", seed, counts[k], k, n)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and metric
// lists in step with what the program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// through its correctness gate, and checks the result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds staccatod and runs every workload")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build staccatod")
	}
	bin := filepath.Join(t.TempDir(), "staccatod")
	if out, err := exec.Command(gobin, "build", "-o", bin, "github.com/paper-repo/staccato-go/cmd/staccatod").CombinedOutput(); err != nil {
		t.Fatalf("building staccatod: %v\n%s", err, out)
	}
	for _, w := range []string{"serve-zipf", "scan-broad", "ingest-ocr"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				dir := t.TempDir()
				var out bytes.Buffer
				err := benchMain(context.Background(), &out, []string{
					"--workload", w, "--seed", "5", "--seconds", "1.5", "--trace", trace,
					"--docs", "300", "--setups", "2", "--staccatod", bin,
					"--work", filepath.Join(dir, "work"), "--trace-out", filepath.Join(dir, "trace.json"),
				})
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
					if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
						t.Fatalf("traced run wrote no spans: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit || math.IsNaN(got.Value) {
						t.Errorf("metric %s: got %+v", m.name, got)
					}
					if trace == "0" && !(got.Value > 0) {
						t.Errorf("end-to-end metric %s is %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}
