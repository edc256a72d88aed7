package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// serve-zipf settings. The open-loop rate sits well below the closed-loop
// capacity measured on a 2-core sandbox, so the open loop measures
// service time and the queueing a steady load causes, not saturation.
const (
	serveDocs      = 10000
	serveRate      = 15.0 // arrivals per second, searches and writes together
	serveOpenShare = 0.75 // share of --seconds run open-loop; the rest is closed-loop
	serveWindows   = 4
	serveWritePool = 512
	serveProbes    = 8
	requestTimeout = 10 * time.Second
)

// serveOp is one request of the serve-zipf mix, encoded ahead of time so
// the load generator only sends bytes.
type serveOp struct {
	write bool
	spec  searchSpec // searches
	doc   int        // writes: index into the write pool
	body  []byte
}

// serveInputs is everything serve-zipf sends, derived from the seed.
type serveInputs struct {
	corpus *corpus
	writes *corpus // documents the mix ingests, one per write request
	ops    []serveOp
	probes []searchSpec
}

// makeServeInputs builds the corpus, the write pool and a sequence of at
// least nOps requests, drawn in blocks that each have the mix's
// proportions.
func makeServeInputs(seed int64, docs, nOps int) (*serveInputs, error) {
	c, err := buildCorpus(seed, "d", 0, docs)
	if err != nil {
		return nil, err
	}
	w, err := buildCorpus(seed, "w", docs, serveWritePool)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{corpus: c, writes: w}
	// The request schedule is the same for every seed; the seed varies the
	// corpus, the written documents and the probes. A search's cost spans
	// three orders of magnitude with its terms' frequency, so a few
	// hundred searches drawn afresh per seed moved the median latency by
	// a fifth from seed to seed.
	mix := newServeMix(rng(0, 1))
	for len(in.ops) < nOps {
		in.ops = append(in.ops, mix.block(500, serveWritePool)...)
	}
	for i := range in.ops {
		op := &in.ops[i]
		if op.write {
			op.body, err = json.Marshal(map[string]any{"docs": w.Docs[op.doc : op.doc+1]})
		} else {
			op.body, err = json.Marshal(op.spec)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, op := range newServeMix(rng(seed, 3)).block(4*serveProbes, serveWritePool) {
		if !op.write && len(in.probes) < serveProbes {
			in.probes = append(in.probes, op.spec)
		}
	}
	return in, nil
}

// daemon is a running staccatod child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// bannerWriter watches staccatod's standard output for the line that
// announces the bound address.
type bannerWriter struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
	sent bool
}

func (b *bannerWriter) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if !b.sent {
		if i := bytes.Index(b.buf, []byte(" on http://")); i >= 0 {
			rest := b.buf[i+len(" on "):]
			if j := bytes.IndexByte(rest, '\n'); j >= 0 {
				b.addr <- string(rest[:j])
				b.sent = true
			}
		}
	}
	return len(p), nil
}

// startDaemon starts staccatod over the store in dir on a loopback port
// of the kernel's choosing and waits until it answers /healthz.
func startDaemon(ctx context.Context, bin, dir string, log io.Writer) (*daemon, error) {
	bw := &bannerWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-store", dir, "-addr", "127.0.0.1:0")
	cmd.Stdout = bw
	cmd.Stderr = log
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting staccatod: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	select {
	case d.base = <-bw.addr:
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("staccatod exited before serving: %v", err)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("staccatod did not announce its address within 60s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("staccatod health check: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("staccatod health check: status %d", resp.StatusCode)
	}
	return d, nil
}

// stop asks staccatod to drain and exit, kills it if it has not exited
// within 30 seconds, and waits for it either way.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process reports its status through done
	select {
	case err := <-d.done:
		d.done <- err
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		err := <-d.done
		d.done <- err
		return fmt.Errorf("staccatod did not stop within 30s: %v", err)
	}
}

// serveStore is one set-up product: a store directory served by a
// running staccatod.
type serveStore struct {
	dir string
	d   *daemon
}

func (s *serveStore) drop() {
	if s == nil {
		return
	}
	s.d.stop()
	os.RemoveAll(s.dir)
}

// ingestAll loads docs into a fresh store at dir in ingestBatch batches
// with fsync on, and closes it.
func ingestAll(ctx context.Context, dir string, c *corpus) error {
	db, err := staccatodb.Open(dir)
	if err != nil {
		return err
	}
	for i := 0; i < len(c.Docs); i += ingestBatch {
		if err := db.Ingest(ctx, c.Docs[i:min(i+ingestBatch, len(c.Docs))]); err != nil {
			db.Close()
			return err
		}
	}
	return db.Close()
}

// sample is one request of the load phases.
type sample struct {
	op       int
	write    bool
	due      time.Time // open loop only
	dispatch time.Time // when the generator released it
	sent     time.Time
	done     time.Time
	status   int // 0 on a transport error
}

func (s *sample) ok() bool { return s.status == http.StatusOK }

// latencyMS is an open-loop request's latency from its due time; a failed
// request is +Inf.
func (s *sample) latencyMS() float64 {
	if !s.ok() {
		return math.Inf(1)
	}
	return ms(s.done.Sub(s.due))
}

type loadClient struct {
	base string
	hc   *http.Client
	ops  []serveOp
}

func newLoadClient(base string, conns int, ops []serveOp) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadClient{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}, ops: ops}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// do sends op i and fills the sample's send, done and status fields.
func (c *loadClient) do(ctx context.Context, s *sample) {
	op := c.ops[s.op%len(c.ops)]
	s.write = op.write
	path := "/v1/search"
	if op.write {
		path = "/v1/ingest"
	}
	s.sent = time.Now()
	defer func() { s.done = time.Now() }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(op.body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil {
		s.status = resp.StatusCode
	}
}

// openLoop releases ops first..first+n-1 at a fixed rate from one generator and
// sends them over at most conns connections; a request waits for a free
// connection, and its latency counts from when it was due.
func (c *loadClient) openLoop(ctx context.Context, first, n int, rate float64, conns int) []sample {
	samples := make([]sample, n)
	queue := make(chan int, n) // sized to the whole schedule so the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				c.do(ctx, &samples[i])
			}
		}()
	}
	start := time.Now().Add(20 * time.Millisecond)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		samples[i].op, samples[i].due, samples[i].dispatch = first+i, due, time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// closedLoop runs conns callers back to back from op first onwards until
// the deadline and returns every request they sent.
func (c *loadClient) closedLoop(ctx context.Context, first int, d time.Duration, conns int) ([]sample, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]sample, conns)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				s := sample{op: int(next.Add(1) - 1)}
				c.do(ctx, &s)
				per[w] = append(per[w], s)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// serverStats is the part of staccatod's /v1/stats the benchmark reads.
type serverStats struct {
	Server struct {
		Rejected   int64 `json:"rejected"`
		QueryCache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"query_cache"`
	} `json:"server"`
}

func (c *loadClient) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// search sends one search and decodes its ranking.
func (c *loadClient) search(ctx context.Context, s searchSpec) ([]query.Result, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/search", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/search: status %d", resp.StatusCode)
	}
	var out struct {
		Results []query.Result `json:"results"`
	}
	return out.Results, json.NewDecoder(resp.Body).Decode(&out)
}

// storeBytes is the store's segment bytes plus its INDEX file.
func storeBytes(dir string, st staccatodb.Stats) (segs, idx int64, err error) {
	fi, err := os.Stat(filepath.Join(dir, index.FileName))
	if err != nil {
		return 0, 0, err
	}
	return st.DiskBytes, fi.Size(), nil
}

// reopenSamples is how many timed opens reopen_s takes the median of: one
// open varies by about a fifth from the next on a 2-core sandbox.
const reopenSamples = 7

// timedOpen opens the database in dir cold and times the Open. Garbage
// left by earlier work is collected first, so the Open pays only for its
// own allocations.
func timedOpen(dir string, tr *tracer) (*staccatodb.DB, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	db, err := staccatodb.Open(dir)
	end := time.Now()
	if err != nil {
		return nil, 0, err
	}
	tr.record("staccatodb.Open", 0, 0, start, end, nil)
	return db, end.Sub(start), nil
}

// timeReopen opens and closes the database in dir n times and returns
// the median open time and the stats of the last open.
func timeReopen(dir string, n int, tr *tracer) (float64, staccatodb.Stats, error) {
	var secs []float64
	var st staccatodb.Stats
	for i := 0; i < n; i++ {
		db, d, err := timedOpen(dir, tr)
		if err != nil {
			return 0, st, err
		}
		secs = append(secs, d.Seconds())
		st = db.Stats()
		if err := db.Close(); err != nil {
			return 0, st, err
		}
	}
	return median(secs), st, nil
}

func runServe(ctx context.Context, cfg config) (*outcome, error) {
	docs := cfg.docs
	if docs == 0 {
		docs = serveDocs
	}
	conns := runtime.NumCPU()
	openDur := time.Duration(cfg.seconds * serveOpenShare * float64(time.Second))
	closedDur := time.Duration(cfg.seconds*float64(time.Second)) - openDur
	nOpen := int(serveRate * openDur.Seconds())
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		closedDur = 0 // the traced run replays the open-loop requests only
	}

	var in *serveInputs
	st, setupS, err := timeSetup(cfg.setups, func() (*serveStore, error) {
		var err error
		in, err = makeServeInputs(cfg.seed, docs, nOpen+int(400*closedDur.Seconds()))
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(cfg.workDir, "store-")
		if err != nil {
			return nil, err
		}
		if err := ingestAll(ctx, dir, in.corpus); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		d, err := startDaemon(ctx, cfg.staccatod, dir, cfg.log)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		return &serveStore{dir: dir, d: d}, nil
	}, (*serveStore).drop)
	if err != nil {
		return nil, err
	}
	defer st.drop()

	// The open and closed phases alternate in serveWindows windows, so a
	// slow spell of the machine touches both rather than all of one. The
	// open loop sends requests 0..nOpen-1 whatever the closed loop's pace;
	// the closed loop continues from nOpen.
	client := newLoadClient(st.d.base, conns, in.ops)
	defer client.close()
	var open, closed []sample
	var closedElapsed time.Duration
	nextClosed := nOpen
	for w := 0; w < serveWindows; w++ {
		first := nOpen * w / serveWindows
		open = append(open, client.openLoop(ctx, first, nOpen*(w+1)/serveWindows-first, serveRate, conns)...)
		if closedDur > 0 {
			s, d := client.closedLoop(ctx, nextClosed, closedDur/serveWindows, conns)
			closed = append(closed, s...)
			closedElapsed += d
			nextClosed += len(s)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sst, err := client.stats(ctx)
	if err != nil {
		return nil, err
	}
	tr.record("server.stats", 0, 0, time.Now(), time.Now(), map[string]float64{
		"rejected": float64(sst.Server.Rejected), "cache_hits": float64(sst.Server.QueryCache.Hits), "cache_misses": float64(sst.Server.QueryCache.Misses)})

	// Failure accounting: every request counts; 429s must reconcile with
	// the server's own rejection counter.
	o := &outcome{}
	var rejected429 int64
	written := map[int]bool{}
	for _, s := range append(open[:len(open):len(open)], closed...) {
		o.attempted++
		if !s.ok() {
			o.failed++
		}
		if s.status == http.StatusTooManyRequests {
			rejected429++
		}
		if s.write && s.ok() {
			written[in.ops[s.op%len(in.ops)].doc] = true
		}
	}
	if rejected429 != sst.Server.Rejected {
		return nil, fmt.Errorf("clients saw %d 429s but the server counted %d rejections", rejected429, sst.Server.Rejected)
	}

	// Correctness gate, part 1: probe answers over HTTP, just before
	// shutdown, once every write has been acknowledged.
	probeRes := make([][]query.Result, len(in.probes))
	for i, p := range in.probes {
		if probeRes[i], err = client.search(ctx, p); err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
	}
	client.close()
	if err := st.d.stop(); err != nil {
		return nil, fmt.Errorf("stopping staccatod: %w", err)
	}

	reopenS, dbst, err := timeReopen(st.dir, reopenSamples, tr)
	if err != nil {
		return nil, err
	}
	segBytes, idxBytes, err := storeBytes(st.dir, dbst)
	if err != nil {
		return nil, err
	}
	text := in.corpus.TextBytes
	for d := range written {
		text += int64(in.writes.TextLen[d])
	}
	if want := len(in.corpus.Docs) + len(written); dbst.Docs != want {
		return nil, fmt.Errorf("final store holds %d docs, want %d", dbst.Docs, want)
	}
	tr.record("staccatodb.Stats", 0, 0, time.Now(), time.Now(), map[string]float64{"disk_bytes": float64(segBytes), "index_file_bytes": float64(idxBytes)})

	// Correctness gate, part 2: brute force over every live document.
	live, err := liveDocs(ctx, st.dir)
	if err != nil {
		return nil, err
	}
	pq := make([]*query.Query, len(in.probes))
	for i, p := range in.probes {
		if pq[i], err = p.compile(); err != nil {
			return nil, err
		}
	}
	for i, want := range bruteForce(live, pq, topN) {
		if !sameResults(probeRes[i], want) {
			return nil, fmt.Errorf("probe %d %s: HTTP answer differs from brute force: %s", i, pq[i], diffResults(probeRes[i], want))
		}
	}
	live = nil

	var searchLat, writeLat []float64
	for i := range open {
		if open[i].write {
			writeLat = append(writeLat, open[i].latencyMS())
		} else {
			searchLat = append(searchLat, open[i].latencyMS())
		}
	}
	if cfg.trace {
		for i := range open {
			s := &open[i]
			name := "server.search"
			if s.write {
				name = "server.ingest"
			}
			tr.record("client.queue", 0, int64(i+1), s.due, s.sent, map[string]float64{"lag_ns": float64(s.dispatch.Sub(s.due).Nanoseconds())})
			tr.record(name, 0, int64(i+1), s.sent, s.done, map[string]float64{"ok": b2f(s.ok())})
		}
		if err := replayServe(ctx, st.dir, in, open, tr); err != nil {
			return nil, err
		}
		layerMetrics(o, tr)
		return o, tr.write(cfg.traceOut)
	}

	var okClosed int
	for _, s := range closed {
		if s.ok() {
			okClosed++
		}
	}
	capacity := float64(okClosed) / closedElapsed.Seconds()
	o.set("setup_s", "s", setupS)
	o.set("latency_p50_ms", "ms", median(searchLat))
	o.set("latency_p90_ms", "ms", quantile(searchLat, 0.9))
	o.set("throughput_per_s", "1/s", capacity)
	o.set("bytes_per_text_byte", "B/B", float64(segBytes+idxBytes)/float64(text))
	o.set("reopen_s", "s", reopenS)
	o.note("serve-zipf: %d docs, open loop %.0f req/s for %v over %d connections, closed loop %v over %d connections",
		len(in.corpus.Docs), serveRate, openDur, conns, closedDur, conns)
	o.note("search_p50_ms %.3f ms, search_p99_ms %.3f ms (%d open-loop searches)", median(searchLat), quantile(searchLat, 0.99), len(searchLat))
	o.note("write_p90_ms %.3f ms (%d open-loop writes)", quantile(writeLat, 0.9), len(writeLat))
	o.note("serve_capacity_qps %.1f 1/s (%d closed-loop requests in %v)", capacity, len(closed), closedElapsed.Round(time.Millisecond))
	o.note("failed_frac %.4f (%d of %d failed; %d were 429s, all counted by the server)", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted, rejected429)
	o.note("query cache: %d hits, %d misses", sst.Server.QueryCache.Hits, sst.Server.QueryCache.Misses)
	o.note("probes: %d searches over HTTP match brute force over %d live docs", len(in.probes), dbst.Docs)
	return o, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// replayServe replays the open-loop searches against the final store
// twice — through DB.Search, and composed from public parts over a
// timing store — checks the two agree, and replays the writes through
// DB.Ingest. staccatod must have stopped: it holds the store's lock.
func replayServe(ctx context.Context, dir string, in *serveInputs, open []sample, tr *tracer) error {
	type replayed struct {
		req  int64
		q    *query.Query
		res  []query.Result
		stat query.SearchStats
	}
	var reqs []replayed
	for i := range open {
		if open[i].write {
			continue
		}
		spec := in.ops[open[i].op].spec
		start := time.Now()
		q, err := spec.compile()
		if err != nil {
			return err
		}
		end := time.Now()
		states, fuzzyLeaves := 0.0, 0.0
		if spec.Mode == "fuzzy" {
			for _, t := range spec.Terms {
				dfa, err := fuzzy.Compile(t, spec.Distance)
				if err != nil {
					return err
				}
				states += float64(dfa.NumStates())
				fuzzyLeaves++
			}
		}
		tr.record("query.compile", 0, int64(i+1), start, end, map[string]float64{"dfa_states": states, "fuzzy_leaves": fuzzyLeaves})
		reqs = append(reqs, replayed{req: int64(i + 1), q: q})
	}

	db, err := staccatodb.Open(dir)
	if err != nil {
		return err
	}
	for i := range reqs {
		sp := tr.begin("staccatodb.Search", 0, reqs[i].req)
		reqs[i].res, reqs[i].stat, err = db.Search(ctx, reqs[i].q, query.SearchOptions{TopN: topN})
		tr.end(sp, nil)
		if err != nil {
			db.Close()
			return err
		}
	}
	if err := db.Close(); err != nil {
		return err
	}

	r, err := openReplayer(dir, tr, 0)
	if err != nil {
		return err
	}
	counter := query.NewEngine(r.st.st, query.EngineOptions{})
	for _, q := range reqs {
		res, stat, err := r.search(ctx, q.q, query.SearchOptions{TopN: topN}, q.req)
		if err != nil {
			r.close()
			return err
		}
		if !sameResults(res, q.res) || stat != q.stat {
			r.close()
			return fmt.Errorf("replay of %s differs from DB.Search: %s; stats %+v vs %+v", q.q, diffResults(res, q.res), stat, q.stat)
		}
		// How many candidates truly match: the candidate layer's useful
		// share, counted outside the timed replay.
		if cand := q.q.Plan(r.ix.GramSize()).Candidates(r.ix); cand != nil {
			all, err := counter.SearchCandidates(ctx, q.q, cand, query.SearchOptions{})
			if err != nil {
				r.close()
				return err
			}
			tr.record("check.matches", 0, q.req, time.Now(), time.Now(), map[string]float64{"candidates": float64(cand.Len()), "matches": float64(len(all))})
		}
	}
	if err := r.close(); err != nil {
		return err
	}

	// The writes, replayed one document per commit as the server made
	// them, and the index entry each commit derived.
	db, err = staccatodb.Open(dir)
	if err != nil {
		return err
	}
	defer db.Close()
	for i := range open {
		if !open[i].write {
			continue
		}
		doc := in.writes.Docs[in.ops[open[i].op].doc]
		sp := tr.begin("staccatodb.Ingest", 0, int64(i+1))
		err := db.Ingest(ctx, []*staccato.Doc{doc})
		tr.end(sp, map[string]float64{"docs": 1})
		if err != nil {
			return err
		}
		start := time.Now()
		e := index.EntryFor(doc, index.DefaultGramSize)
		tr.record("index.EntryFor", 0, int64(i+1), start, time.Now(), map[string]float64{"docs": 1, "grams": float64(len(e.Grams)), "replayed": 1})
	}
	return db.Close()
}
