package query_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// candidateCorpus builds a MemStore + matching index + truth list.
func candidateCorpus(t *testing.T, n int, seed int64) (*store.MemStore, *index.Index, []string) {
	t.Helper()
	ctx := context.Background()
	cases, err := testgen.Docs(n, testgen.Config{Length: 30, Seed: seed}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMemStore()
	ix := index.New(3)
	truths := make([]string, len(cases))
	for i, c := range cases {
		if err := st.Put(ctx, c.Doc); err != nil {
			t.Fatal(err)
		}
		ix.Add(c.Doc)
		truths[i] = c.Truth
	}
	return st, ix, truths
}

// TestSearchCandidatesByteIdenticalToSearch is the engine's restricted
// execution contract: for random boolean queries whose plans prune,
// SearchCandidates — single-pass at TopN 0, bound-ordered top-k rounds
// otherwise — returns byte-identical output to the full-scan Search and
// to Search handed the same candidate set, at 1, 2, and 8 workers.
func TestSearchCandidatesByteIdenticalToSearch(t *testing.T) {
	ctx := context.Background()
	st, ix, truths := candidateCorpus(t, 60, 71)
	rng := rand.New(rand.NewSource(7))
	prunedRuns := 0
	for trial := 0; trial < 40; trial++ {
		q := buildRandomQuery(t, rng, truths, 2)
		cand := q.Plan(3).Candidates(ix)
		if cand == nil {
			continue // unprunable plan: SearchCandidates is not offered one
		}
		prunedRuns++
		opts := query.SearchOptions{MinProb: float64(trial%3) * 0.05, TopN: trial % 7}
		for _, workers := range []int{1, 2, 8} {
			eng := query.NewEngine(st, query.EngineOptions{Workers: workers})
			fullScan, err := eng.Search(ctx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			restrictedOpts := opts
			restrictedOpts.Candidates = cand
			restricted, err := eng.Search(ctx, q, restrictedOpts)
			if err != nil {
				t.Fatal(err)
			}
			var stats query.SearchStats
			candOpts := opts
			candOpts.Stats = &stats
			candOnly, err := eng.SearchCandidates(ctx, q, cand, candOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(candOnly, fullScan) || !reflect.DeepEqual(candOnly, restricted) {
				t.Fatalf("trial %d workers %d: query %s: modes disagree\n full:       %+v\n restricted: %+v\n cand:       %+v",
					trial, workers, q.String(), fullScan, restricted, candOnly)
			}
			wantMode := query.ExecCandidateOnly
			if opts.TopN > 0 {
				wantMode = query.ExecTopK
			}
			if stats.Mode != wantMode {
				t.Fatalf("trial %d: Mode = %q, want %q", trial, stats.Mode, wantMode)
			}
			if stats.CandidatesFetched+stats.BoundsSkipped != cand.Len() || stats.DocsScanned != stats.CandidatesFetched {
				t.Fatalf("trial %d: fetched %d + skipped %d / scanned %d, want %d (no concurrent deletes)",
					trial, stats.CandidatesFetched, stats.BoundsSkipped, stats.DocsScanned, cand.Len())
			}
			if wantMode == query.ExecCandidateOnly && (stats.BoundsSkipped != 0 || stats.EarlyStopped) {
				t.Fatalf("trial %d: top-k counters in a single-pass run: %+v", trial, stats)
			}
		}
	}
	if prunedRuns == 0 {
		t.Fatal("no trial produced a candidate set; the test is vacuous")
	}
}

// TestSearchCandidatesSkipsDeletedCandidate: a candidate deleted between
// planning and execution is skipped — never an error — matching a scan
// ordered after the delete. The stats must keep the fetch attempt and
// the evaluation apart: the deleted candidate is still fetched (the
// not-found answer IS a store fetch) but not scanned, and the gap is
// reported in CandidatesDeleted. Regression test for the bug that
// assigned one counter to both fields, which made a delete between plan
// and fetch invisible in the stats.
func TestSearchCandidatesSkipsDeletedCandidate(t *testing.T) {
	ctx := context.Background()
	st, ix, _ := candidateCorpus(t, 20, 73)
	ids, err := st.ListDocIDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Get(ctx, ids[7])
	if err != nil {
		t.Fatal(err)
	}
	term := doc.MAP()[5:11]
	q := mustQ(query.Substring(term))
	cand := q.Plan(3).Candidates(ix)
	if cand == nil || !cand.Has(ids[7]) {
		t.Fatalf("expected a candidate set containing %s; got %v", ids[7], cand.IDs())
	}
	if err := st.Delete(ctx, ids[7]); err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(st, query.EngineOptions{Workers: 2})
	var stats query.SearchStats
	res, err := eng.SearchCandidates(ctx, q, cand, query.SearchOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.DocID == ids[7] {
			t.Fatalf("deleted doc %s still in results %+v", ids[7], res)
		}
	}
	if stats.CandidatesFetched != cand.Len() {
		t.Fatalf("CandidatesFetched = %d, want %d (every candidate is a fetch attempt)",
			stats.CandidatesFetched, cand.Len())
	}
	if stats.DocsScanned != cand.Len()-1 {
		t.Fatalf("DocsScanned = %d, want %d (the deleted candidate is not evaluated)",
			stats.DocsScanned, cand.Len()-1)
	}
	if stats.CandidatesDeleted != 1 {
		t.Fatalf("CandidatesDeleted = %d, want 1", stats.CandidatesDeleted)
	}
}

// TestSearchCandidatesEmptySetTouchesNothing: a plan that proves no
// document can match yields an empty candidate set, and the engine must
// return instantly without a single store read.
func TestSearchCandidatesEmptySetTouchesNothing(t *testing.T) {
	st, _, _ := candidateCorpus(t, 10, 79)
	eng := query.NewEngine(failingGetStore{inner: st}, query.EngineOptions{Workers: 4})
	var stats query.SearchStats
	res, err := eng.SearchCandidates(context.Background(), mustQ(query.Substring("abcdef")),
		query.NewCandidateSet(), query.SearchOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || stats.CandidatesFetched != 0 || stats.Mode != query.ExecCandidateOnly {
		t.Fatalf("empty candidate set: res %+v stats %+v", res, stats)
	}
}

// failingGetStore fails every read — proof that a code path never
// touched the store.
type failingGetStore struct{ inner *store.MemStore }

func (f failingGetStore) Put(ctx context.Context, doc *staccato.Doc) error {
	return f.inner.Put(ctx, doc)
}
func (f failingGetStore) Get(ctx context.Context, id string) (*staccato.Doc, error) {
	return nil, errors.New("store read on a path that promised none")
}
func (f failingGetStore) Delete(ctx context.Context, id string) error {
	return f.inner.Delete(ctx, id)
}
func (f failingGetStore) Scan(ctx context.Context, fn func(doc *staccato.Doc) error) error {
	return errors.New("store scan on a path that promised none")
}
func (f failingGetStore) ListDocIDs(ctx context.Context) ([]string, error) {
	return nil, errors.New("store listing on a path that promised none")
}
func (f failingGetStore) GetBatch(ctx context.Context, ids []string) ([]*staccato.Doc, error) {
	return nil, errors.New("store read on a path that promised none")
}

// TestSearchCandidatesValidation: nil query and nil candidate set are
// contract violations, reported as errors rather than silent scans.
func TestSearchCandidatesValidation(t *testing.T) {
	st, _, _ := candidateCorpus(t, 5, 83)
	eng := query.NewEngine(st, query.EngineOptions{Workers: 2})
	ctx := context.Background()
	if _, err := eng.SearchCandidates(ctx, nil, query.NewCandidateSet("x"), query.SearchOptions{}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := eng.SearchCandidates(ctx, mustQ(query.Substring("abc")), nil, query.SearchOptions{}); err == nil {
		t.Error("nil candidate set accepted (would silently skip the whole corpus)")
	}
}

// TestSearchCandidatesReadErrorPropagates: a store failure mid-run
// cancels the whole call and surfaces the error.
func TestSearchCandidatesReadErrorPropagates(t *testing.T) {
	st, ix, _ := candidateCorpus(t, 20, 89)
	ids, err := st.ListDocIDs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Get(context.Background(), ids[3])
	if err != nil {
		t.Fatal(err)
	}
	q := mustQ(query.Substring(doc.MAP()[4:10]))
	cand := q.Plan(3).Candidates(ix)
	if cand == nil || cand.Len() == 0 {
		t.Fatal("expected a non-empty candidate set")
	}
	eng := query.NewEngine(failingGetStore{inner: st}, query.EngineOptions{Workers: 3})
	if _, err := eng.SearchCandidates(context.Background(), q, cand, query.SearchOptions{}); err == nil {
		t.Fatal("store read failure did not surface")
	}
}

// TestSearchCandidatesCancelledContext: a pre-cancelled context aborts
// the run with the context's error — in the single-pass and top-k modes
// alike, and even when the candidate set is empty, so a request past its
// deadline fails the same way whatever the plan proved.
func TestSearchCandidatesCancelledContext(t *testing.T) {
	st, ix, truths := candidateCorpus(t, 20, 97)
	q := mustQ(query.Substring(truths[0][0:6]))
	cand := q.Plan(3).Candidates(ix)
	if cand == nil {
		cand = query.NewCandidateSet("doc-0001")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := query.NewEngine(st, query.EngineOptions{Workers: 2})
	for _, set := range []*query.CandidateSet{cand, query.NewCandidateSet()} {
		for _, topN := range []int{0, 5} {
			if _, err := eng.SearchCandidates(ctx, q, set, query.SearchOptions{TopN: topN}); !errors.Is(err, context.Canceled) {
				t.Fatalf("%d candidates, TopN %d: err = %v, want context.Canceled", set.Len(), topN, err)
			}
		}
	}
}
