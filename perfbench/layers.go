package main

import (
	"math"
)

// perLayer lists the metrics a traced run reports, each derived from the
// spans the run recorded. A workload that never calls a layer reports
// that layer's metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"server.request_p50_ms", "ms"},
	{"server.request_p99_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_lookups", "count"},
	{"server.rejected", "count"},
	{"client.queue_p99_ms", "ms"},
	{"client.generator_lag_ms", "ms"},
	{"staccatodb.search_p50_ms", "ms"},
	{"staccatodb.search_p99_ms", "ms"},
	{"staccatodb.searches", "count"},
	{"staccatodb.ingest_ms_per_doc", "ms"},
	{"staccatodb.open_ms", "ms"},
	{"query.compile_us", "us"},
	{"fuzzy.dfa_states", "count"},
	{"query.plan_us", "us"},
	{"query.candidates_us", "us"},
	{"query.candidates_alloc_bytes", "B"},
	{"query.candidates_n", "count"},
	{"query.rank_us", "us"},
	{"query.engine_self_ms", "ms"},
	{"query.eval_us_per_doc", "us"},
	{"query.evaluated_per_result", "ratio"},
	{"query.evaluated", "count"},
	{"query.results", "count"},
	{"query.match_ratio", "ratio"},
	{"query.candidates_total", "count"},
	{"query.early_stop_ratio", "ratio"},
	{"query.topk_searches", "count"},
	{"diskstore.get_batch_us_per_doc", "us"},
	{"diskstore.scan_read_us_per_doc", "us"},
	{"query.feed_wait_us_per_doc", "us"},
	{"store.decode_us_per_doc", "us"},
	{"store.encode_us_per_doc", "us"},
	{"store.encoded_bytes_per_doc", "B"},
	{"staccato.build_us_per_doc", "us"},
	{"staccato.chunk_us", "us"},
	{"staccato.topk_us", "us"},
	{"index.entry_us_per_doc", "us"},
	{"index.grams_per_doc", "count"},
	{"index.load_ms", "ms"},
	{"diskstore.open_ms", "ms"},
	{"diskstore.disk_bytes", "B"},
	{"index.file_bytes", "B"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

var engineSpans = []string{"query.Engine.Search", "query.Engine.SearchCandidates", "query.Engine.SearchTopK"}

// layerMetrics derives every per-layer metric from the recorded spans.
// Durations are medians per call unless the name says per doc, where
// they are summed time over summed documents; every ratio is reported
// beside its base.
func layerMetrics(o *outcome, tr *tracer) {
	ss := tr.set()
	v := map[string]float64{}

	req := ss.durs("server.search")
	v["server.request_p50_ms"] = median(req) / 1e6
	v["server.request_p99_ms"] = quantile(req, 0.99) / 1e6
	dbByReq := map[int64]int64{}
	for _, s := range ss.byName["staccatodb.Search"] {
		dbByReq[s.Req] = s.dur()
	}
	var over []float64
	for _, s := range ss.byName["server.search"] {
		if d, ok := dbByReq[s.Req]; ok {
			over = append(over, float64(s.dur()-d))
		}
	}
	v["server.overhead_ms"] = median(over) / 1e6
	hits, misses := ss.sum("server.stats", "cache_hits"), ss.sum("server.stats", "cache_misses")
	v["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["server.cache_lookups"] = hits + misses
	v["server.rejected"] = ss.sum("server.stats", "rejected")
	v["client.queue_p99_ms"] = quantile(ss.durs("client.queue"), 0.99) / 1e6
	for _, s := range ss.byName["client.queue"] {
		v["client.generator_lag_ms"] = max(v["client.generator_lag_ms"], s.Attrs["lag_ns"]/1e6)
	}

	search := ss.durs("staccatodb.Search")
	v["staccatodb.search_p50_ms"] = median(search) / 1e6
	v["staccatodb.search_p99_ms"] = quantile(search, 0.99) / 1e6
	v["staccatodb.searches"] = float64(len(search))
	v["staccatodb.ingest_ms_per_doc"] = ss.perDocUS("staccatodb.Ingest", "docs") / 1e3
	v["staccatodb.open_ms"] = median(ss.durs("staccatodb.Open")) / 1e6

	v["query.compile_us"] = median(ss.durs("query.compile")) / 1e3
	v["fuzzy.dfa_states"] = ratio(ss.sum("query.compile", "dfa_states"), ss.sum("query.compile", "fuzzy_leaves"))
	v["query.plan_us"] = median(ss.durs("query.Plan")) / 1e3
	cands := ss.byName["query.Candidates"]
	v["query.candidates_us"] = median(ss.durs("query.Candidates")) / 1e3
	v["query.candidates_alloc_bytes"] = ratio(ss.sum("query.Candidates", "alloc_bytes"), float64(len(cands)))
	var candN []float64
	for _, s := range cands {
		candN = append(candN, s.Attrs["n"])
	}
	v["query.candidates_n"] = median(candN)
	v["query.rank_us"] = median(ss.durs("query.Ranked")) / 1e3

	var self []float64
	for _, name := range engineSpans {
		for _, s := range ss.byName[name] {
			self = append(self, float64(ss.self(s)))
		}
		v["query.evaluated"] += ss.sum(name, "evaluated")
		v["query.results"] += ss.sum(name, "results")
	}
	v["query.engine_self_ms"] = median(self) / 1e6
	v["query.evaluated_per_result"] = ratio(v["query.evaluated"], v["query.results"])
	v["query.eval_us_per_doc"] = ss.perDocUS("query.Eval", "docs")
	v["query.candidates_total"] = ss.sum("check.matches", "candidates")
	v["query.match_ratio"] = ratio(ss.sum("check.matches", "matches"), v["query.candidates_total"])
	v["query.topk_searches"] = float64(len(ss.byName["query.Engine.SearchTopK"]))
	v["query.early_stop_ratio"] = ratio(ss.sum("query.Engine.SearchTopK", "early_stopped"), v["query.topk_searches"])

	v["diskstore.get_batch_us_per_doc"] = ss.perDocUS("diskstore.GetBatch", "docs")
	scanDocs := ss.sum("diskstore.Scan", "docs")
	feed := ss.sum("diskstore.Scan", "feed_ns")
	v["diskstore.scan_read_us_per_doc"] = ratio((ss.total("diskstore.Scan")-feed)/1e3, scanDocs)
	v["query.feed_wait_us_per_doc"] = ratio(feed/1e3, scanDocs)
	v["store.decode_us_per_doc"] = ss.perDocUS("store.Decode", "docs")
	v["store.encode_us_per_doc"] = ss.perDocUS("store.Encode", "docs")
	v["store.encoded_bytes_per_doc"] = ratio(ss.sum("store.Encode", "bytes"), ss.sum("store.Encode", "docs"))

	v["staccato.build_us_per_doc"] = ss.perDocUS("staccato.Build", "docs")
	v["staccato.chunk_us"] = ss.perDocUS("staccato.Chunk", "docs")
	v["staccato.topk_us"] = ss.perDocUS("staccato.TopK", "segments")
	v["index.entry_us_per_doc"] = ss.perDocUS("index.EntryFor", "docs")
	v["index.grams_per_doc"] = ratio(ss.sum("index.EntryFor", "grams"), ss.sum("index.EntryFor", "docs"))
	v["index.load_ms"] = median(ss.durs("index.Load")) / 1e6
	v["diskstore.open_ms"] = median(ss.durs("diskstore.Open")) / 1e6
	if st := ss.byName["staccatodb.Stats"]; len(st) > 0 {
		v["diskstore.disk_bytes"] = st[len(st)-1].Attrs["disk_bytes"]
		v["index.file_bytes"] = st[len(st)-1].Attrs["index_file_bytes"]
	}

	// Tracing overhead: the traced form of the measured work against its
	// untraced form in the same run — the composed, spanned replay against
	// DB.Search, or traced ingest rounds against untraced ones.
	if replay := ss.total("replay.search"); replay > 0 {
		v["trace.overhead_frac"] = ratio(replay, ss.total("staccatodb.Search")) - 1
	}
	var traced, plain []float64
	for _, s := range ss.byName["ingest.round"] {
		if s.Attrs["traced"] == 1 {
			traced = append(traced, s.Attrs["load_ns"])
		} else {
			plain = append(plain, s.Attrs["load_ns"])
		}
	}
	if len(traced) > 0 && len(plain) > 0 {
		v["trace.overhead_frac"] = ratio(median(traced), median(plain)) - 1
	}
	v["trace.spans"] = float64(ss.n)

	for _, m := range perLayer {
		x := v[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0 // no call into this layer on this workload
		}
		o.set(m.name, m.unit, x)
	}
}
