package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// scan-broad settings: the corpus size, and how many queries of each of
// the pool's four kinds it holds.
const (
	scanDocs      = 10000
	scanPoolKinds = 8
)

// scanSetup is one scan-broad set-up product: a store built from the
// corpus and reopened cold.
type scanSetup struct {
	dir    string
	corpus *corpus
	db     *staccatodb.DB
}

func (s *scanSetup) drop() {
	if s == nil {
		return
	}
	if s.db != nil {
		s.db.Close()
	}
	os.RemoveAll(s.dir)
}

func runScan(ctx context.Context, cfg config) (*outcome, error) {
	docs := cfg.docs
	if docs == 0 {
		docs = scanDocs
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var reopens []float64
	st, setupS, err := timeSetup(cfg.setups, func() (*scanSetup, error) {
		c, err := buildCorpus(cfg.seed, "d", 0, docs)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(cfg.workDir, "store-")
		if err != nil {
			return nil, err
		}
		s := &scanSetup{dir: dir, corpus: c}
		if err := ingestAll(ctx, dir, c); err != nil {
			s.drop()
			return nil, err
		}
		var d time.Duration
		if s.db, d, err = timedOpen(dir, tr); err != nil {
			s.drop()
			return nil, err
		}
		reopens = append(reopens, d.Seconds())
		return s, nil
	}, (*scanSetup).drop)
	if err != nil {
		return nil, err
	}
	defer st.drop()

	pool := scanPool()
	qs := make([]*query.Query, len(pool))
	for i, p := range pool {
		if qs[i], err = p.compile(); err != nil {
			return nil, err
		}
		if qs[i].Plan(index.DefaultGramSize).Prunable() {
			return nil, fmt.Errorf("scan pool query %s can be pruned", qs[i])
		}
	}
	want := bruteForce(st.corpus.Docs, qs, topN)
	order := rng(cfg.seed, 4).Perm(len(pool))

	// One closed-loop caller. The traced run spends half its time here
	// and replays the same sequence composed from public parts.
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	o := &outcome{}
	var lat []float64
	var seq []int
	var scanned int
	var busy time.Duration
	start := time.Now()
	nextReopen := start.Add(dur / reopenSamples)
	for i := 0; time.Since(start) < dur; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// One open varies by a fifth from the next, and the machine's speed
		// drifts; reopen_s is the median of opens spread over the run.
		if !cfg.trace && time.Now().After(nextReopen) {
			if err := st.db.Close(); err != nil {
				return nil, err
			}
			var d time.Duration
			if st.db, d, err = timedOpen(st.dir, nil); err != nil {
				return nil, err
			}
			reopens = append(reopens, d.Seconds())
			nextReopen = nextReopen.Add(dur / reopenSamples)
		}
		qi := order[i%len(order)]
		sp := tr.begin("staccatodb.Search", 0, int64(i+1))
		t0 := time.Now()
		res, stats, err := st.db.Search(ctx, qs[qi], query.SearchOptions{TopN: topN})
		d := time.Since(t0)
		tr.end(sp, nil)
		o.attempted++
		if err != nil {
			o.failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		if stats.Mode != query.ExecScan || stats.DocsScanned != len(st.corpus.Docs) {
			return nil, fmt.Errorf("%s ran %s over %d docs, want a scan of %d", qs[qi], stats.Mode, stats.DocsScanned, len(st.corpus.Docs))
		}
		if !sameResults(res, want[qi]) {
			return nil, fmt.Errorf("%s differs from brute force: %s", qs[qi], diffResults(res, want[qi]))
		}
		lat = append(lat, ms(d))
		seq = append(seq, qi)
		scanned += stats.DocsScanned
		busy += d
	}
	dbst := st.db.Stats()
	segBytes, idxBytes, err := storeBytes(st.dir, dbst)
	if err != nil {
		return nil, err
	}
	tr.record("staccatodb.Stats", 0, 0, time.Now(), time.Now(), map[string]float64{"disk_bytes": float64(segBytes), "index_file_bytes": float64(idxBytes)})
	if err := st.db.Close(); err != nil {
		return nil, err
	}
	st.db = nil

	if cfg.trace {
		if err := replayScan(ctx, st, qs, seq, tr); err != nil {
			return nil, err
		}
		layerMetrics(o, tr)
		return o, tr.write(cfg.traceOut)
	}
	docsPerS := float64(scanned) / busy.Seconds()
	o.set("setup_s", "s", setupS)
	o.set("latency_p50_ms", "ms", median(lat))
	o.set("latency_p90_ms", "ms", quantile(lat, 0.9))
	o.set("throughput_per_s", "1/s", docsPerS)
	o.set("bytes_per_text_byte", "B/B", float64(segBytes+idxBytes)/float64(st.corpus.TextBytes))
	o.set("reopen_s", "s", median(reopens))
	o.note("scan-broad: %d docs, %d unprunable queries, one closed-loop caller for %v", len(st.corpus.Docs), len(pool), dur)
	o.note("scan_query_p50_ms %.3f ms, scan_query_p90_ms %.3f ms (%d searches)", median(lat), quantile(lat, 0.9), len(lat))
	o.note("scan_docs_per_s %.0f 1/s (%d docs evaluated in %v)", docsPerS, scanned, busy.Round(time.Millisecond))
	o.note("failed_frac %.4f (%d of %d failed)", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	o.note("every result matched brute force")
	return o, nil
}

// replayScan replays the measured query sequence composed from public
// parts over a timing store, checks it against brute force, and times the
// per-document decode and evaluation the scans paid.
func replayScan(ctx context.Context, st *scanSetup, qs []*query.Query, seq []int, tr *tracer) error {
	r, err := openReplayer(st.dir, tr, 0)
	if err != nil {
		return err
	}
	defer r.close()
	want := bruteForce(st.corpus.Docs, qs, topN)
	for i, qi := range seq {
		res, _, err := r.search(ctx, qs[qi], query.SearchOptions{TopN: topN}, int64(i+1))
		if err != nil {
			return err
		}
		if !sameResults(res, want[qi]) {
			return fmt.Errorf("replayed %s differs from brute force: %s", qs[qi], diffResults(res, want[qi]))
		}
	}
	// Decode and evaluation run inside the store and the engine workers,
	// where the benchmark has no seam; replay them on a sample.
	sample := st.corpus.Docs[:min(1000, len(st.corpus.Docs))]
	encoded := make([][]byte, len(sample))
	for i, d := range sample {
		if encoded[i], err = store.Encode(d); err != nil {
			return err
		}
	}
	start := time.Now()
	for _, b := range encoded {
		if _, err := store.Decode(b); err != nil {
			return err
		}
	}
	tr.record("store.Decode", 0, 0, start, time.Now(), map[string]float64{"docs": float64(len(encoded)), "replayed": 1})
	for _, q := range qs {
		evalSample(q, sample, tr)
	}
	return nil
}

// evalSample times q.Eval over docs as one replayed span.
func evalSample(q *query.Query, docs []*staccato.Doc, tr *tracer) {
	start := time.Now()
	for _, d := range docs {
		q.Eval(d)
	}
	tr.record("query.Eval", 0, 0, start, time.Now(), map[string]float64{"docs": float64(len(docs)), "replayed": 1})
}
