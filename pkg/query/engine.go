package query

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// Result is one document's answer to a corpus query. The JSON form is
// the wire shape of the staccatod search endpoint.
type Result struct {
	DocID string  `json:"doc_id"`
	Prob  float64 `json:"prob"`
}

// ExecMode names the execution path a query run took.
type ExecMode string

const (
	// ExecScan is the unrestricted path: every live document is read,
	// decoded, and evaluated.
	ExecScan ExecMode = "scan"
	// ExecCandidateOnly is the restricted single-pass path: only the
	// candidate set's members are ever touched — no corpus ID listing —
	// so cost scales with the candidate count, not the corpus size.
	ExecCandidateOnly ExecMode = "candidate-only"
	// ExecTopK is the restricted ranked path: candidates are processed
	// best-bound-first in growing rounds and the run stops as soon as the
	// running k-th result provably beats every remaining bound, so cost
	// scales with how discriminating the bounds are, not the candidate
	// count.
	ExecTopK ExecMode = "top-k"
)

// SearchStats reports how a query executed: how much of the corpus the
// planner pruned away versus how much the DP actually evaluated. The
// engine fills Mode and the Docs*/CandidatesFetched counters; callers
// that planned the query (such as staccatodb.DB) fill the planner
// fields — and, for candidate runs, the corpus-level DocsTotal and
// DocsPruned the engine never observes.
// The JSON form is the wire shape of the staccatod search and explain
// endpoints.
type SearchStats struct {
	// Mode is the execution path the run took.
	Mode ExecMode `json:"mode"`
	// DocsTotal is the number of live documents the run considered —
	// pruned and evaluated alike. A candidate run never sees the corpus,
	// so the engine leaves DocsTotal zero; staccatodb.DB fills it from
	// the store's live-document count.
	DocsTotal int `json:"docs_total"`
	// DocsScanned is the number of documents the DP actually evaluated.
	DocsScanned int `json:"docs_scanned"`
	// DocsPruned is the number of documents skipped via the candidate set
	// without being evaluated. Filled by the caller in candidate runs,
	// like DocsTotal.
	DocsPruned int `json:"docs_pruned"`
	// CandidatesFetched is the number of store fetches the candidate
	// modes attempted (zero in scan mode) — deleted candidates that came
	// back not-found included, so it can exceed DocsScanned. It runs
	// below the candidate set's size only when top-k early termination
	// skipped the rest (see BoundsSkipped).
	CandidatesFetched int `json:"candidates_fetched"`
	// CandidatesDeleted is how many fetched candidates turned out deleted
	// between planning and fetching: CandidatesFetched - DocsScanned.
	CandidatesDeleted int `json:"candidates_deleted"`
	// BoundsSkipped is the number of candidates top-k execution never
	// fetched because their probability upper bound could not affect the
	// result — cut up front by MinProb or left behind by an early stop.
	// Zero in every other mode.
	BoundsSkipped int `json:"bounds_skipped"`
	// EarlyStopped reports that a top-k run proved the remaining bounds
	// beaten and stopped before exhausting the candidate set.
	EarlyStopped bool `json:"early_stopped"`
	// IndexUsed reports whether a candidate set restricted the run at all.
	IndexUsed bool `json:"index_used"`
	// PlanGrams is the number of distinct grams the planner consulted.
	PlanGrams int `json:"plan_grams"`
	// Plan is the rendered Plan the run executed under.
	Plan string `json:"plan"`
}

// EngineOptions configures a new Engine.
type EngineOptions struct {
	// Workers is how many documents are evaluated concurrently. Zero or
	// negative selects runtime.GOMAXPROCS(0).
	Workers int
}

// Engine executes compiled Queries against the documents of a DocStore.
// Every run goes through one batched core: documents travel in batches
// of up to candidateBatchSize — IDs the worker fetches with
// DocStore.GetBatch, or documents DocStore.Scan already decoded — across
// a fixed worker pool, and the results are ranked (or, for ForEach,
// delivered in ID order) afterwards, so every run over an unchanged store
// is deterministic regardless of worker count. An Engine is stateless
// apart from its configuration and may be shared across goroutines.
//
// When a candidate set from a Plan restricts a run, only its members are
// fetched and evaluated; the no-false-negative planner contract makes
// the restricted and unrestricted runs byte-identical.
type Engine struct {
	st      store.DocStore
	workers int
}

// NewEngine returns an Engine reading from st. st must be non-nil.
func NewEngine(st store.DocStore, opts EngineOptions) *Engine {
	if st == nil {
		panic("query: NewEngine requires a non-nil DocStore")
	}
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{st: st, workers: w}
}

// Workers returns the engine's worker pool size.
func (e *Engine) Workers() int { return e.workers }

// SearchOptions narrows, ranks, and instruments what Search returns.
type SearchOptions struct {
	// MinProb drops documents whose probability is below the threshold.
	// Documents with probability exactly zero are always dropped.
	MinProb float64
	// TopN keeps only the N best-ranked documents; zero keeps all.
	TopN int
	// Candidates, when non-nil, restricts evaluation to its members;
	// documents outside it are treated as guaranteed non-matches. Obtain
	// one from Plan.Candidates — a set that can drop true matches breaks
	// the engine's result guarantees.
	Candidates *CandidateSet
	// Stats, when non-nil, receives the run's execution counters.
	Stats *SearchStats
	// Rescore, when non-nil, transforms each document before evaluation —
	// the lexicon rescoring hook (fuzzy.Lexicon.Rescorer). The transform
	// must be deterministic and support-preserving: it may move
	// probability mass between a chunk's alternatives but must keep every
	// alternative's probability strictly positive, or candidate pruning
	// (computed from the untransformed index) could drop true matches. It
	// must not mutate its argument, which workers share with the store.
	Rescore func(*staccato.Doc) *staccato.Doc
}

// Search evaluates q against every stored document and returns the
// matches ranked by descending probability (ties broken by ascending
// DocID), filtered and truncated per opts. The ranking is fully
// deterministic: the same store contents and query produce identical
// results at any worker count, with or without a candidate set.
//
// Without opts.Candidates, Search reads the corpus through DocStore.Scan
// and reports ExecScan. With it, Search is SearchCandidates over that set.
func (e *Engine) Search(ctx context.Context, q *Query, opts SearchOptions) ([]Result, error) {
	if opts.Candidates != nil {
		return e.SearchCandidates(ctx, q, opts.Candidates, opts)
	}
	if q == nil || q.expr == nil {
		return nil, errors.New("query: Search requires a compiled, non-nil Query")
	}
	t := tally{minProb: opts.MinProb}
	err := e.evalBatches(ctx, q, opts.Rescore, e.workers, func(ctx context.Context, send func(*batch) error) error {
		b := &batch{}
		err := e.st.Scan(ctx, func(d *staccato.Doc) error {
			b.docs = append(b.docs, d)
			if len(b.docs) < candidateBatchSize {
				return nil
			}
			full := b
			b = &batch{}
			return send(full)
		})
		if err != nil || len(b.docs) == 0 {
			return err
		}
		return send(b)
	}, t.add)
	if err != nil {
		return nil, err
	}
	if opts.Stats != nil {
		opts.Stats.Mode = ExecScan
		opts.Stats.DocsTotal = t.evaluated
		opts.Stats.DocsScanned = t.evaluated
	}
	return rankResults(t.out, opts.TopN), nil
}

// rankResults orders matches by descending probability (ties by
// ascending DocID) and applies the TopN cut — the one ranking every
// Search path shares, which is what makes their outputs byte-identical.
func rankResults(out []Result, topN int) []Result {
	slices.SortFunc(out, func(a, b Result) int {
		//lint:allow floateq sort comparators need exact comparison — an epsilon tie-break is not a strict weak order and would make the ranking itself nondeterministic
		if a.Prob != b.Prob {
			if a.Prob > b.Prob {
				return -1
			}
			return 1
		}
		return strings.Compare(a.DocID, b.DocID)
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// candidateBatchSize is how many documents one worker job carries.
// Batching amortizes store locking and channel hand-offs and lets a disk
// backend sort a GetBatch by record offset into a near-sequential read;
// the size is small enough that a handful of candidates still spreads
// across the pool.
const candidateBatchSize = 64

// boundSlack widens stored bounds by one part in 10⁹ wherever the engine
// compares an evaluated probability against one. The bound DP and the
// evaluation DP sum the same products in different association orders, so
// an exact-in-real-arithmetic "P ≤ bound" can come out a few ulps the
// wrong way in floats; comparing against bound*boundSlack keeps every
// skip decision provably safe without giving up meaningful pruning.
const boundSlack = 1 + 1e-9

// SearchCandidates evaluates q against the members of cand and returns
// the matches ranked, filtered, and truncated exactly like Search. cand
// must come from a Plan (or otherwise honor the no-false-negative
// contract): every document outside it has match probability zero and
// Search discards zero results, so the output is byte-identical to an
// unrestricted Search at any worker count — while cost scales with
// cand.Len(), not the corpus size. Candidates are fetched with
// DocStore.GetBatch; one deleted between planning and fetching is
// skipped, matching what a scan started after the delete would return.
// opts.Candidates is ignored (cand is the candidate set).
//
// With opts.TopN > 0 and no opts.Rescore the run is ranked (ExecTopK):
// candidates are processed best-bound-first in rounds of fixed,
// worker-independent sizes (candidateBatchSize, doubling each round), and
// the run stops as soon as the running TopN-th probability strictly beats
// every remaining candidate's slack-widened upper bound — at which point
// no remaining candidate can enter the top N or win a tie (ties break
// toward ascending DocID, and a tie would require probability equal to
// the k-th, which the strict inequality excludes). Candidates whose
// widened bound falls below opts.MinProb are skipped without a fetch,
// like the early-stopped tail; both are counted in Stats.BoundsSkipped.
// The bounds must be admissible (never below the true match probability
// of stored documents), which Plan.Candidates over a BoundedPostingSource
// guarantees; a set without bounds reads every bound as 1 and never
// stops early. A rescorer moves probability mass the bounds do not
// account for, so a rescored run — like any run with TopN == 0 — makes
// one pass over every candidate (ExecCandidateOnly).
//
// opts.Stats, when non-nil, receives Mode, DocsScanned, the Candidates*
// counters, BoundsSkipped, and EarlyStopped — corpus-level counters
// (DocsTotal, DocsPruned) are the caller's to fill, since the engine
// never observes the corpus.
func (e *Engine) SearchCandidates(ctx context.Context, q *Query, cand *CandidateSet, opts SearchOptions) ([]Result, error) {
	if q == nil || q.expr == nil {
		return nil, errors.New("query: SearchCandidates requires a compiled, non-nil Query")
	}
	if cand == nil {
		return nil, errors.New("query: SearchCandidates requires a non-nil candidate set; use Search for unrestricted runs")
	}
	// An expired context fails the run even when no candidate is left to
	// fetch, so a deadline is reported the same way at any set size.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := tally{minProb: opts.MinProb}
	mode, skipped, earlyStopped := ExecCandidateOnly, 0, false
	if opts.TopN <= 0 || opts.Rescore != nil {
		// Ascending IDs: deterministic batching, near-sequential disk reads.
		if err := e.evalIDs(ctx, q, cand.IDs(), opts.Rescore, &t); err != nil {
			return nil, err
		}
	} else {
		mode = ExecTopK
		ranked := cand.Ranked()
		// Candidates whose bound already sits below MinProb cannot produce
		// a reportable result; ranked is bound-descending, so they form a
		// tail.
		usable := len(ranked)
		if opts.MinProb > 0 {
			usable = sort.Search(len(ranked), func(i int) bool {
				return ranked[i].Bound*boundSlack < opts.MinProb
			})
		}
		skipped = len(ranked) - usable
		for next, size := 0, candidateBatchSize; next < usable; size *= 2 {
			end := min(next+size, usable)
			ids := make([]string, 0, end-next)
			for _, c := range ranked[next:end] {
				ids = append(ids, c.ID)
			}
			sort.Strings(ids) // near-sequential reads; ranking is fetch-order-independent
			if err := e.evalIDs(ctx, q, ids, nil, &t); err != nil {
				return nil, err
			}
			next = end
			// Keeping only the running top N between rounds is lossless:
			// the ranking is a total order, so the global top N is the top
			// N of the per-round top-N union.
			t.out = rankResults(t.out, opts.TopN)
			if next < usable && len(t.out) == opts.TopN && t.out[opts.TopN-1].Prob > ranked[next].Bound*boundSlack {
				earlyStopped = true
				skipped += usable - next
				break
			}
		}
	}
	if opts.Stats != nil {
		opts.Stats.Mode = mode
		opts.Stats.DocsScanned = t.evaluated
		opts.Stats.CandidatesFetched = t.fetched
		opts.Stats.CandidatesDeleted = t.fetched - t.evaluated
		opts.Stats.BoundsSkipped = skipped
		opts.Stats.EarlyStopped = earlyStopped
	}
	return rankResults(t.out, opts.TopN), nil
}

// SearchTopK is SearchCandidates under the name of its ranked path, kept
// for callers that name the top-k run explicitly.
func (e *Engine) SearchTopK(ctx context.Context, q *Query, cand *CandidateSet, opts SearchOptions) ([]Result, error) {
	return e.SearchCandidates(ctx, q, cand, opts)
}

// forEachBatchesPerWorker is how many batches per worker ForEach fetches
// and evaluates before delivering them: its window, which bounds how many
// decoded documents a stream holds at once.
const forEachBatchesPerWorker = 4

// ForEach evaluates q against every stored document and streams one
// Result per document — unfiltered, probability zero included — to fn in
// ascending DocID order. fn runs on the caller's goroutine.
// Returning store.ErrStopScan from fn ends the stream early without
// error; any other error ends it and is returned.
// Cancelling ctx aborts the stream with ctx's error: once cancellation
// is observed, fn is not called again.
func (e *Engine) ForEach(ctx context.Context, q *Query, fn func(Result) error) error {
	return e.ForEachPruned(ctx, q, nil, fn)
}

// ForEachPruned is ForEach restricted by a candidate set: documents
// outside cand stream out with probability zero without being read or
// evaluated. A nil cand evaluates everything, exactly like ForEach.
//
// The stream walks DocStore.ListDocIDs in windows of
// forEachBatchesPerWorker batches per worker: each window's candidates
// are fetched and evaluated by the batch core, then delivered in ID
// order, so the documents held at once are bounded by the window, not
// the corpus. A document deleted between the listing and its fetch is
// left out. cand is a snapshot: a document added to the store after cand
// was computed but before this run lists it may stream out at
// probability zero even if it matches — callers needing a write to be
// visible must compute the candidate set after the write completes.
func (e *Engine) ForEachPruned(ctx context.Context, q *Query, cand *CandidateSet, fn func(Result) error) error {
	if q == nil || q.expr == nil {
		return errors.New("query: ForEach requires a compiled, non-nil Query")
	}
	ids, err := e.st.ListDocIDs(ctx)
	if err != nil {
		return err
	}
	window := e.workers * forEachBatchesPerWorker * candidateBatchSize
	for len(ids) > 0 {
		// Cut the next window: as many listed IDs as it takes to collect
		// window candidates, or the rest of the list.
		var fetch []string
		n := 0
		for ; n < len(ids) && len(fetch) < window; n++ {
			if cand.Has(ids[n]) {
				fetch = append(fetch, ids[n])
			}
		}
		batches := idBatches(fetch)
		if err := e.evalBatches(ctx, q, nil, len(batches), sendAll(batches), nil); err != nil {
			return err
		}
		k := 0 // position in fetch
		for _, id := range ids[:n] {
			r := Result{DocID: id}
			if cand.Has(id) {
				b := batches[k/candidateBatchSize]
				i := k % candidateBatchSize
				k++
				if b.docs[i] == nil {
					continue // deleted between listing and fetching
				}
				r.Prob = b.probs[i]
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(r); err != nil {
				if errors.Is(err, store.ErrStopScan) {
					return nil
				}
				return err
			}
		}
		ids = ids[n:]
	}
	return ctx.Err()
}

// batch is one worker job: up to candidateBatchSize documents, named by
// ids (the worker fetches them with GetBatch) or already decoded in docs
// (Scan's batches, which carry no ids). The worker leaves docs aligned
// with ids — nil where the store no longer has the document — and fills
// probs, aligned with docs.
type batch struct {
	ids   []string
	docs  []*staccato.Doc
	probs []float64
}

// idBatches cuts ids into consecutive batches of candidateBatchSize.
func idBatches(ids []string) []*batch {
	out := make([]*batch, 0, (len(ids)+candidateBatchSize-1)/candidateBatchSize)
	for len(ids) > 0 {
		n := min(len(ids), candidateBatchSize)
		out = append(out, &batch{ids: ids[:n]})
		ids = ids[n:]
	}
	return out
}

// sendAll is the evalBatches feed for batches already in hand.
func sendAll(batches []*batch) func(context.Context, func(*batch) error) error {
	return func(_ context.Context, send func(*batch) error) error {
		for _, b := range batches {
			if err := send(b); err != nil {
				return err
			}
		}
		return nil
	}
}

// evalIDs fetches and evaluates the documents named by ids, adding the
// matches and counters to t. The pool never starts more workers than
// there are batches.
func (e *Engine) evalIDs(ctx context.Context, q *Query, ids []string, rescore func(*staccato.Doc) *staccato.Doc, t *tally) error {
	batches := idBatches(ids)
	return e.evalBatches(ctx, q, rescore, len(batches), sendAll(batches), t.add)
}

// evalBatches is the engine's one evaluation core. feed runs on the
// calling goroutine and hands batches to send; min(e.workers, maxWorkers)
// workers fetch each ID batch with GetBatch, evaluate every document
// (through rescore, when non-nil), and pass the finished batch to done —
// on the worker's goroutine, so done must be safe for concurrent use; a
// nil done leaves the results in the batches for the caller. The first
// failure — a store error, feed's error, or ctx ending — stops the run and
// is returned once every worker has exited.
func (e *Engine) evalBatches(ctx context.Context, q *Query, rescore func(*staccato.Doc) *staccato.Doc, maxWorkers int,
	feed func(ctx context.Context, send func(*batch) error) error, done func(*batch)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	jobs := make(chan *batch)
	var wg sync.WaitGroup
	for range min(e.workers, maxWorkers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range jobs {
				if err := e.evalBatch(ctx, q, rescore, b); err != nil {
					fail(err)
					return
				}
				if done != nil {
					done(b)
				}
			}
		}()
	}
	err := feed(ctx, func(b *batch) error {
		select {
		case jobs <- b:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	if err != nil {
		fail(err)
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// evalBatch fetches b's documents when it carries IDs and evaluates each
// one, checking ctx between documents to bound cancellation latency to
// one evaluation.
func (e *Engine) evalBatch(ctx context.Context, q *Query, rescore func(*staccato.Doc) *staccato.Doc, b *batch) error {
	if b.ids != nil {
		docs, err := e.st.GetBatch(ctx, b.ids)
		if err != nil {
			return err
		}
		b.docs = docs
	}
	b.probs = make([]float64, len(b.docs))
	for i, doc := range b.docs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if doc == nil {
			continue // deleted between planning and fetching
		}
		if rescore != nil {
			doc = rescore(doc)
		}
		b.probs[i] = q.Eval(doc)
	}
	return nil
}

// tally collects a run's matches and counters from the worker pool: every
// fetch attempt, every evaluated document, and the results that survive
// the MinProb filter, unranked.
type tally struct {
	minProb            float64
	mu                 sync.Mutex
	out                []Result
	fetched, evaluated int
}

func (t *tally) add(b *batch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fetched += len(b.ids)
	for i, doc := range b.docs {
		if doc == nil {
			continue
		}
		t.evaluated++
		if p := b.probs[i]; p > 0 && p >= t.minProb {
			t.out = append(t.out, Result{DocID: doc.ID, Prob: p})
		}
	}
}
