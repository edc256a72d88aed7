package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Spans of one request share Req; Parent names the
// span that caused this one. Attrs carry the counts measured at the same
// boundary.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Req    int64              `json:"req,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Every method is a
// no-op on a nil tracer, so untraced runs share the traced code path.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

// begin opens a span now and returns its ID.
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

// end closes span id now and attaches attrs.
func (t *tracer) end(id int64, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	s.Attrs = attrs
}

// record adds a span whose interval the caller measured.
func (t *tracer) record(name string, parent, req int64, start, end time.Time, attrs map[string]float64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.at(start), End: t.at(end), Attrs: attrs})
	return id
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanSet indexes finished spans by name and parent for metric
// derivation.
type spanSet struct {
	n        int
	byName   map[string][]*span
	children map[int64][]*span
}

func (t *tracer) set() *spanSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	ss := &spanSet{n: len(t.spans), byName: map[string][]*span{}, children: map[int64][]*span{}}
	for i := range t.spans {
		s := &t.spans[i]
		ss.byName[s.Name] = append(ss.byName[s.Name], s)
		if s.Parent != 0 {
			ss.children[s.Parent] = append(ss.children[s.Parent], s)
		}
	}
	return ss
}

// durs returns the durations of every span named name, in nanoseconds.
func (ss *spanSet) durs(name string) []float64 {
	var out []float64
	for _, s := range ss.byName[name] {
		out = append(out, float64(s.dur()))
	}
	return out
}

// total sums the durations of every span named name.
func (ss *spanSet) total(name string) float64 {
	t := 0.0
	for _, s := range ss.byName[name] {
		t += float64(s.dur())
	}
	return t
}

// sum adds attribute attr over every span named name.
func (ss *spanSet) sum(name, attr string) float64 {
	t := 0.0
	for _, s := range ss.byName[name] {
		t += s.Attrs[attr]
	}
	return t
}

// self is s's duration minus the part of its interval that its children
// cover; overlapping children (parallel fetches) count once.
func (ss *spanSet) self(s *span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range ss.children[s.ID] {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	covered, curA, curB := int64(0), int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return s.dur() - covered
}

// perDoc is the summed duration of spans named name per unit of their
// attribute attr, in microseconds.
func (ss *spanSet) perDocUS(name, attr string) float64 {
	return ratio(ss.total(name)/1e3, ss.sum(name, attr))
}

// timedStore wraps a diskstore so the replayed engine's fetches become
// spans. It forwards BatchGetter and IDLister, so the engine takes the
// same paths it takes over the bare store. parent and req name the
// engine span the next fetches belong to.
type timedStore struct {
	st     *diskstore.Store
	tr     *tracer
	parent atomic.Int64
	req    atomic.Int64
}

func (s *timedStore) Put(ctx context.Context, doc *staccato.Doc) error { return s.st.Put(ctx, doc) }
func (s *timedStore) Delete(ctx context.Context, id string) error      { return s.st.Delete(ctx, id) }

func (s *timedStore) Get(ctx context.Context, id string) (*staccato.Doc, error) {
	sp := s.tr.begin("diskstore.Get", s.parent.Load(), s.req.Load())
	d, err := s.st.Get(ctx, id)
	s.tr.end(sp, map[string]float64{"docs": 1})
	return d, err
}

func (s *timedStore) GetBatch(ctx context.Context, ids []string) ([]*staccato.Doc, error) {
	sp := s.tr.begin("diskstore.GetBatch", s.parent.Load(), s.req.Load())
	docs, err := s.st.GetBatch(ctx, ids)
	s.tr.end(sp, map[string]float64{"docs": float64(len(ids))})
	return docs, err
}

func (s *timedStore) ListDocIDs(ctx context.Context) ([]string, error) {
	sp := s.tr.begin("diskstore.ListDocIDs", s.parent.Load(), s.req.Load())
	ids, err := s.st.ListDocIDs(ctx)
	s.tr.end(sp, map[string]float64{"docs": float64(len(ids))})
	return ids, err
}

// Scan records one span for the whole scan. Time spent inside the
// callback is the engine's feeder handing a document to its workers;
// the rest is the store reading and decoding.
func (s *timedStore) Scan(ctx context.Context, fn func(*staccato.Doc) error) error {
	sp := s.tr.begin("diskstore.Scan", s.parent.Load(), s.req.Load())
	var inside time.Duration
	docs := 0
	err := s.st.Scan(ctx, func(d *staccato.Doc) error {
		t := time.Now()
		err := fn(d)
		inside += time.Since(t)
		docs++
		return err
	})
	s.tr.end(sp, map[string]float64{"docs": float64(docs), "feed_ns": float64(inside.Nanoseconds())})
	return err
}

// replayer answers searches by composing DB.Search from public parts —
// index.Load's index, Query.Plan, Plan.Candidates, CandidateSet.Ranked
// and the engine call DB.Search would make — with a span around each.
type replayer struct {
	ix  *index.Index
	st  *timedStore
	eng *query.Engine
	tr  *tracer
}

// openReplayer loads the INDEX file and opens the store in dir (which no
// other process may hold open), each under a span.
func openReplayer(dir string, tr *tracer, workers int) (*replayer, error) {
	sp := tr.begin("index.Load", 0, 0)
	ix, _, err := index.Load(filepath.Join(dir, index.FileName), index.DefaultGramSize)
	tr.end(sp, nil)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("diskstore.Open", 0, 0)
	st, err := diskstore.Open(dir, diskstore.Options{})
	tr.end(sp, nil)
	if err != nil {
		return nil, err
	}
	ts := &timedStore{st: st, tr: tr}
	return &replayer{ix: ix, st: ts, eng: query.NewEngine(ts, query.EngineOptions{Workers: workers}), tr: tr}, nil
}

func (r *replayer) close() error { return r.st.st.Close() }

func heapAllocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// search answers q exactly as staccatodb.DB.Search would, filling the
// same SearchStats.
func (r *replayer) search(ctx context.Context, q *query.Query, opts query.SearchOptions, req int64) ([]query.Result, query.SearchStats, error) {
	var stats query.SearchStats
	tr := r.tr
	root := tr.begin("replay.search", 0, req)
	sp := tr.begin("query.Plan", root, req)
	plan := q.Plan(r.ix.GramSize())
	tr.end(sp, nil)

	var a0 uint64
	if tr != nil {
		a0 = heapAllocated()
	}
	t0 := time.Now()
	cand := plan.Candidates(r.ix)
	t1 := time.Now()
	if tr != nil {
		tr.record("query.Candidates", root, req, t0, t1, map[string]float64{"n": float64(max(cand.Len(), 0)), "alloc_bytes": float64(heapAllocated() - a0)})
	}
	stats.Plan = plan.String()
	stats.PlanGrams = plan.NumGrams()
	stats.IndexUsed = cand != nil
	opts.Candidates = nil
	opts.Stats = &stats

	var res []query.Result
	var err error
	name := "query.Engine.Search"
	if cand != nil {
		sp = tr.begin("query.Ranked", root, req)
		cand.Ranked()
		tr.end(sp, map[string]float64{"n": float64(cand.Len())})
		name = "query.Engine.SearchCandidates"
		if opts.TopN > 0 && opts.Rescore == nil {
			name = "query.Engine.SearchTopK"
		}
	}
	sp = tr.begin(name, root, req)
	r.st.parent.Store(sp)
	r.st.req.Store(req)
	switch name {
	case "query.Engine.Search":
		res, err = r.eng.Search(ctx, q, opts)
	case "query.Engine.SearchTopK":
		res, err = r.eng.SearchTopK(ctx, q, cand, opts)
	default:
		res, err = r.eng.SearchCandidates(ctx, q, cand, opts)
	}
	r.st.parent.Store(0)
	stopped := 0.0
	if stats.EarlyStopped {
		stopped = 1
	}
	tr.end(sp, map[string]float64{"evaluated": float64(stats.DocsScanned), "results": float64(len(res)), "early_stopped": stopped})
	tr.end(root, nil)
	if err != nil {
		return nil, stats, err
	}
	if cand != nil {
		stats.DocsTotal = r.st.st.Len()
		stats.DocsPruned = stats.DocsTotal - (cand.Len() - stats.CandidatesDeleted)
	}
	return res, stats, nil
}
