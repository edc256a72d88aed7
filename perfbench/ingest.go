package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
	"github.com/paper-repo/staccato-go/pkg/store"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// ingestDocs is how many raw transducers one ingest-ocr round loads into
// a fresh store. Raw transducers take about 19 KiB each in memory, which
// is what bounds it.
const ingestDocs = 4096

// round is one load of every raw transducer into a fresh store.
type round struct {
	loadS    float64   // Build and Ingest of every batch: SFST to durable commit
	batchMS  []float64 // the same, per batch
	reopenS  float64
	segBytes int64
	idxBytes int64
}

func runIngest(ctx context.Context, cfg config) (*outcome, error) {
	n := cfg.docs
	if n == 0 {
		n = ingestDocs
	}
	raws, setupS, err := timeSetup(cfg.setups, func() ([]rawDoc, error) {
		return generateRaw(cfg.seed, "d", 0, n)
	}, func([]rawDoc) {})
	if err != nil {
		return nil, err
	}
	var text int64
	for _, r := range raws {
		text += int64(len(r.Truth))
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Rounds run until the measured time is spent; the round in progress
	// finishes. A traced run alternates untraced and traced rounds, so the
	// tracing overhead is measured within the run.
	o := &outcome{}
	var rounds []*round
	dur := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < dur; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var inner *tracer
		if cfg.trace && i%2 == 1 {
			inner = tr
		}
		t0 := time.Now()
		r, err := ingestRound(ctx, cfg.workDir, raws, inner)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		tr.record("ingest.round", 0, int64(i+1), t0, time.Now(), map[string]float64{"docs": float64(n), "load_ns": r.loadS * 1e9, "traced": b2f(inner != nil)})
		o.attempted += int64(len(r.batchMS))
		rounds = append(rounds, r)
	}
	if cfg.trace {
		layerMetrics(o, tr)
		return o, tr.write(cfg.traceOut)
	}
	var batchMS, rates, reopens []float64
	for _, r := range rounds {
		batchMS = append(batchMS, r.batchMS...)
		rates = append(rates, float64(n)/r.loadS)
		reopens = append(reopens, r.reopenS)
	}
	last := rounds[len(rounds)-1]
	o.set("setup_s", "s", setupS)
	o.set("latency_p50_ms", "ms", median(batchMS))
	o.set("latency_p90_ms", "ms", quantile(batchMS, 0.9))
	o.set("throughput_per_s", "1/s", median(rates))
	o.set("bytes_per_text_byte", "B/B", float64(last.segBytes+last.idxBytes)/float64(text))
	o.set("reopen_s", "s", median(reopens))
	o.note("ingest-ocr: %d raw SFSTs per round, Build at (%d,%d), Ingest in batches of %d with fsync, %d rounds", n, dialChunks, dialK, ingestBatch, len(rounds))
	o.note("ingest_docs_per_s %.0f 1/s (median of %d rounds)", median(rates), len(rounds))
	o.note("batch_p50_ms %.3f ms, batch_p90_ms %.3f ms (%d batches)", median(batchMS), quantile(batchMS, 0.9), len(batchMS))
	o.note("bytes_per_text_byte %.3f B/B (%d segment + %d INDEX bytes for %d truth bytes)", float64(last.segBytes+last.idxBytes)/float64(text), last.segBytes, last.idxBytes, text)
	o.note("reopen_s %.4f s (median of %d)", median(reopens), len(reopens))
	o.note("failed_frac %.4f (%d of %d batches failed)", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	o.note("every round reopened with %d docs, its index loaded without a rebuild, and sampled docs read back equal", n)
	return o, nil
}

// ingestRound loads raws into a fresh store, closes it, times a cold
// reopen and checks what the reopened store holds. With a tracer it also
// replays the parts of Build and Ingest that have no seam.
func ingestRound(ctx context.Context, workDir string, raws []rawDoc, tr *tracer) (*round, error) {
	dir, err := os.MkdirTemp(workDir, "ingest-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	db, err := staccatodb.Open(dir)
	if err != nil {
		return nil, err
	}
	defer func() { db.Close() }() // whichever handle is open when the round ends
	r := &round{}
	built := make([]*staccato.Doc, 0, len(raws))
	var load time.Duration
	for i := 0; i < len(raws); i += ingestBatch {
		batch := raws[i:min(i+ingestBatch, len(raws))]
		req := int64(i/ingestBatch + 1)
		t0 := time.Now()
		bsp := tr.begin("ingest.batch", 0, req)
		docs := make([]*staccato.Doc, 0, len(batch))
		for _, raw := range batch {
			b0 := time.Now()
			d, err := staccato.Build(raw.FST, raw.ID, dialChunks, dialK)
			if err != nil {
				return nil, err
			}
			tr.record("staccato.Build", bsp, req, b0, time.Now(), map[string]float64{"docs": 1})
			docs = append(docs, d)
		}
		sp := tr.begin("staccatodb.Ingest", bsp, req)
		err := db.Ingest(ctx, docs)
		tr.end(sp, map[string]float64{"docs": float64(len(docs))})
		tr.end(bsp, map[string]float64{"docs": float64(len(docs))})
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		load += d
		r.batchMS = append(r.batchMS, ms(d))
		built = append(built, docs...)
	}
	r.loadS = load.Seconds()
	if err := db.Close(); err != nil {
		return nil, err
	}

	idxPath := filepath.Join(dir, index.FileName)
	before, err := os.Stat(idxPath)
	if err != nil {
		return nil, err
	}
	db, d, err := timedOpen(dir, tr)
	if err != nil {
		return nil, err
	}
	r.reopenS = d.Seconds()
	st := db.Stats()
	if st.Docs != len(raws) || st.IndexDocs != len(raws) {
		return nil, fmt.Errorf("reopened store holds %d docs and indexes %d, want %d", st.Docs, st.IndexDocs, len(raws))
	}
	for i := 0; i < len(built); i += 61 {
		got, err := db.Get(ctx, built[i].ID)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(got, built[i]) {
			return nil, fmt.Errorf("doc %s read back differs from the doc built", built[i].ID)
		}
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	after, err := os.Stat(idxPath)
	if err != nil {
		return nil, err
	}
	if !os.SameFile(before, after) || !before.ModTime().Equal(after.ModTime()) || before.Size() != after.Size() {
		return nil, fmt.Errorf("reopen rebuilt the index")
	}
	r.segBytes, r.idxBytes = st.DiskBytes, after.Size()
	tr.record("staccatodb.Stats", 0, 0, time.Now(), time.Now(), map[string]float64{"disk_bytes": float64(r.segBytes), "index_file_bytes": float64(r.idxBytes)})
	if tr != nil {
		if err := replayIngestParts(dir, raws, built, tr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// replayIngestParts times, on the round's own inputs, the calls Build and
// Ingest make internally: Chunk and TopK inside Build; the index entry
// and the store encoding inside Ingest; and the two halves of a reopen.
// The spans are marked replayed: they repeat work, they are not the
// round's own time.
func replayIngestParts(dir string, raws []rawDoc, built []*staccato.Doc, tr *tracer) error {
	for _, raw := range raws {
		t0 := time.Now()
		segs, err := staccato.Chunk(raw.FST, dialChunks)
		if err != nil {
			return err
		}
		tr.record("staccato.Chunk", 0, 0, t0, time.Now(), map[string]float64{"docs": 1, "replayed": 1})
		for _, seg := range segs {
			t0 := time.Now()
			if _, err := staccato.TopK(seg, dialK); err != nil {
				return err
			}
			tr.record("staccato.TopK", 0, 0, t0, time.Now(), map[string]float64{"segments": 1, "replayed": 1})
		}
	}
	grams, bytes := 0, 0
	t0 := time.Now()
	for _, d := range built {
		grams += len(index.EntryFor(d, index.DefaultGramSize).Grams)
	}
	tr.record("index.EntryFor", 0, 0, t0, time.Now(), map[string]float64{"docs": float64(len(built)), "grams": float64(grams), "replayed": 1})
	t0 = time.Now()
	for _, d := range built {
		b, err := store.Encode(d)
		if err != nil {
			return err
		}
		bytes += len(b)
	}
	tr.record("store.Encode", 0, 0, t0, time.Now(), map[string]float64{"docs": float64(len(built)), "bytes": float64(bytes), "replayed": 1})

	sp := tr.begin("index.Load", 0, 0)
	_, _, err := index.Load(filepath.Join(dir, index.FileName), index.DefaultGramSize)
	tr.end(sp, nil)
	if err != nil {
		return err
	}
	sp = tr.begin("diskstore.Open", 0, 0)
	st, err := diskstore.Open(dir, diskstore.Options{})
	tr.end(sp, nil)
	if err != nil {
		return err
	}
	return st.Close()
}
