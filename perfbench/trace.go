package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	iofs "io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"gbkmv"
	"gbkmv/internal/fsx"
	"gbkmv/internal/server"
)

// The traced run replays the daemon run's requests in-process, in order, on
// one goroutine. Each layer's public function is called on a twin fed the
// full request sequence, so every twin's cache and engine state matches
// the request's real path:
//
//	A  server.Handler(store).ServeHTTP over a store on a timing fsx.FS
//	B  Collection.SearchRaw / TopKRaw / Insert on a second store
//	C  Vocabulary.QueryRecord, Engine.PrepareQuery, PreparedQuery.SearchScored /
//	   TopK and Segmented.AddBatch on the engine the handler would build
//	C1 the same records on a one-segment engine, for the fan-out overhead
//
// A layer's self time is its span minus its child layer's span on the twin.
// Prepare and vocabulary time count only on requests whose prepared query
// missed B's cache, as they do on the real path.

// fsStats counts what the storage layer asked of the disk.
type fsStats struct {
	syncs, syncNs, writeBytes atomic.Int64
}

func (s *fsStats) snapshot() (syncs, syncNs, writeBytes int64) {
	return s.syncs.Load(), s.syncNs.Load(), s.writeBytes.Load()
}

// timingFS is the real filesystem with every fsync timed and every written
// byte counted.
type timingFS struct {
	fsx.OS
	st *fsStats
}

func (t timingFS) OpenFile(name string, flag int, perm iofs.FileMode) (fsx.File, error) {
	f, err := t.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, st: t.st}, nil
}

func (t timingFS) Open(name string) (fsx.File, error) {
	f, err := t.OS.Open(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, st: t.st}, nil
}

func (t timingFS) WriteFile(name string, data []byte, perm iofs.FileMode) error {
	t.st.writeBytes.Add(int64(len(data)))
	return t.OS.WriteFile(name, data, perm)
}

func (t timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := t.OS.SyncDir(dir)
	t.st.syncNs.Add(time.Since(start).Nanoseconds())
	t.st.syncs.Add(1)
	return err
}

type timingFile struct {
	fsx.File
	st *fsStats
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.st.writeBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.st.syncNs.Add(time.Since(start).Nanoseconds())
	f.st.syncs.Add(1)
	return err
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) reset() {
	clear(r.h)
	r.code = http.StatusOK
	r.body.Reset()
}

// spanSums accumulates one op kind's span durations, in nanoseconds.
type spanSums struct {
	n                                    int
	http, store, vocab, prepare, segment float64
	segment1, fsx, apply                 float64
}

// twins is the replay's set of layer instances.
type twins struct {
	g          *gen
	handler    http.Handler // A
	collB      *server.Collection
	voc        *gbkmv.Vocabulary
	engN, eng1 *gbkmv.Segmented
	fsA, fsB   *fsStats
	dirA       string
	rec        recorder
	sums       [numKinds]spanSums
	problems   []error

	// A's disk work during timed inserts.
	insertSyncsA, insertSyncNsA, insertBytesA int64
	insertedRecords                           int

	// B's prepared-query cache hits, to tell hits from misses.
	lastCacheHits                 uint64
	hitsObserved, queriesObserved int
}

func quiet(string, ...any) {}

// newTwins builds the three replay twins over the workload's collection.
func newTwins(cfg config, in *inputs, segments int) (*twins, error) {
	tw := &twins{g: in.g, fsA: &fsStats{}, fsB: &fsStats{}, rec: recorder{h: make(http.Header)}}
	tw.dirA = filepath.Join(cfg.work, "traced-a")
	storeA, err := server.NewStoreWithFS(tw.dirA, timingFS{st: tw.fsA}, quiet)
	if err != nil {
		return nil, err
	}
	storeB, err := server.NewStoreWithFS(filepath.Join(cfg.work, "traced-b"), timingFS{st: tw.fsB}, quiet)
	if err != nil {
		return nil, err
	}
	// The daemon resolves its default segment count itself; the in-process
	// stores get the same count explicitly.
	body := in.g.buildBody(in.built, in.budget, segments)
	hB := server.Handler(storeB)
	tw.handler = server.Handler(storeA)
	for _, h := range []http.Handler{tw.handler, hB} {
		tw.rec.reset()
		h.ServeHTTP(&tw.rec, newRequest(http.MethodPut, collectionPath, body))
		if tw.rec.code != http.StatusOK {
			return nil, fmt.Errorf("in-process build: status %d: %.200s", tw.rec.code, tw.rec.body.Bytes())
		}
	}
	if tw.collB, err = storeB.Get(collection); err != nil {
		return nil, err
	}
	// The engine twin is built exactly as the build handler builds it.
	tw.voc = gbkmv.NewVocabulary()
	recs := make([]gbkmv.Record, len(in.built))
	for i, r := range in.built {
		recs[i] = tw.voc.Record(in.g.tokenStrings(r))
	}
	opts := gbkmv.EngineOptions{BudgetFraction: in.budget}
	if tw.engN, err = gbkmv.NewSegmented(gbkmv.DefaultEngine, segments, recs, opts); err != nil {
		return nil, err
	}
	if tw.eng1, err = gbkmv.NewSegmented(gbkmv.DefaultEngine, 1, recs, opts); err != nil {
		return nil, err
	}
	return tw, nil
}

func newRequest(method, url string, body []byte) *http.Request {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		panic(err) // the URLs are constants of this file
	}
	return req
}

func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) }

// replay sends one op through every twin, timing each layer's call.
func (tw *twins) replay(o *op, timed bool) {
	req := newRequest(http.MethodPost, collectionPath+kindPaths[o.kind], o.body)
	tw.rec.reset()
	syncs0, syncNs0, bytes0 := tw.fsA.snapshot()
	t := time.Now()
	tw.handler.ServeHTTP(&tw.rec, req)
	tHTTP := since(t)
	if tw.rec.code != http.StatusOK {
		tw.problems = append(tw.problems, fmt.Errorf("traced %s: status %d: %.200s", kindNames[o.kind], tw.rec.code, tw.rec.body.Bytes()))
		return
	}
	tokens := tw.g.tokenStrings(o.elems)
	s := &tw.sums[o.kind]
	if o.kind == opInsert {
		_, syncNsB0, _ := tw.fsB.snapshot()
		t = time.Now()
		_, err := tw.collB.Insert([][]string{tokens}, "")
		tStore := since(t)
		_, syncNsB1, _ := tw.fsB.snapshot()
		if err != nil {
			tw.problems = append(tw.problems, fmt.Errorf("traced store insert: %v", err))
			return
		}
		syncs1, syncNs1, bytes1 := tw.fsA.snapshot()
		recs := []gbkmv.Record{tw.voc.Record(tokens)}
		t = time.Now()
		tw.engN.AddBatch(recs)
		tApply := since(t)
		tw.eng1.AddBatch(recs)
		if !timed {
			return
		}
		tw.insertSyncsA += syncs1 - syncs0
		tw.insertSyncNsA += syncNs1 - syncNs0
		tw.insertBytesA += bytes1 - bytes0
		tw.insertedRecords++
		s.n++
		s.http += tHTTP
		s.store += tStore
		s.fsx += float64(syncNsB1 - syncNsB0)
		s.apply += tApply
		return
	}

	t = time.Now()
	var err error
	if o.kind == opSearch {
		_, _, err = tw.collB.SearchRaw(o.raw, o.threshold, o.limit, false, nil, nil)
	} else {
		_, err = tw.collB.TopKRaw(o.raw, o.k, false, nil, nil)
	}
	tStore := since(t)
	if err != nil {
		tw.problems = append(tw.problems, fmt.Errorf("traced store %s: %v", kindNames[o.kind], err))
		return
	}
	hits := tw.collB.Stats().QueryCache.Hits
	hit := hits > tw.lastCacheHits
	tw.lastCacheHits = hits

	t = time.Now()
	rec, unknown := tw.voc.QueryRecord(tokens)
	tVocab := since(t)
	t = time.Now()
	pq := tw.engN.PrepareQuery(rec)
	pq.SetSize(len(rec) + unknown)
	tPrepare := since(t)
	pq1 := tw.eng1.PrepareQuery(rec)
	pq1.SetSize(len(rec) + unknown)
	var tSeg, tSeg1 float64
	if o.kind == opSearch {
		t = time.Now()
		pq.SearchScored(o.threshold, o.limit)
		tSeg = since(t)
		t = time.Now()
		pq1.SearchScored(o.threshold, o.limit)
		tSeg1 = since(t)
	} else {
		t = time.Now()
		pq.TopK(o.k)
		tSeg = since(t)
		t = time.Now()
		pq1.TopK(o.k)
		tSeg1 = since(t)
	}
	if !timed {
		return
	}
	tw.queriesObserved++
	if hit {
		tw.hitsObserved++
		tVocab, tPrepare = 0, 0
	}
	s.n++
	s.http += tHTTP
	s.store += tStore
	s.vocab += tVocab
	s.prepare += tPrepare
	s.segment += tSeg
	s.segment1 += tSeg1
}

// traceLayers replays the daemon run's requests through the twins and
// reports the per-layer metrics, the reconciliation against the untraced
// end-to-end means, and the tracing overhead.
func traceLayers(cfg config, dr *daemonRun, rep *report) error {
	in := dr.in
	logf("building in-process twins (%d segments)", dr.segments)
	tw, err := newTwins(cfg, in, dr.segments)
	if err != nil {
		return err
	}
	for i := range in.warmup {
		tw.replay(&in.warmup[i], false)
	}
	var total time.Duration
	for _, res := range dr.results {
		total += res.elapsed
	}
	half := cfg.seconds * 0.5 * float64(time.Second)
	for pi, p := range in.phases {
		// The replay does several times a request's work, so it covers a
		// prefix of each phase, each in proportion to the phase's time in the
		// daemon run.
		budget := time.Duration(half * float64(dr.results[pi].elapsed) / float64(total))
		sent := dr.results[pi].sent
		start := time.Now()
		n := 0
		for ; n < sent && time.Since(start) < budget; n++ {
			tw.replay(&p.ops[n], true)
		}
		logf("traced phase %s: %d of %d requests in %v", p.name, n, sent, time.Since(start).Round(time.Millisecond))
	}
	for _, k := range []opKind{opSearch, opInsert} {
		if tw.sums[k].n == 0 {
			tw.problems = append(tw.problems, fmt.Errorf("the traced replay timed no %s request", kindNames[k]))
		}
	}
	rep.problems = append(rep.problems, tw.problems...)
	loadMs, err := tw.loadEngineMs()
	if err != nil {
		return err
	}
	layers, tables := layerMetrics(dr, tw, loadMs)
	rep.metrics = append(layers, dr.tails...)
	rep.info = dr.metrics // the untraced half's end-to-end figures, for reference
	rep.tables = tables
	return nil
}

// loadEngineMs times gbkmv.LoadEngine on the traced store's committed
// index snapshot — the engine half of a restart's recovery.
func (tw *twins) loadEngineMs() (float64, error) {
	dir := filepath.Join(tw.dirA, collection)
	var m struct {
		Generation uint64 `json:"generation"`
	}
	b, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return 0, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return 0, fmt.Errorf("meta.json: %v", err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("index-%d.snap", m.Generation)))
	if err != nil {
		return 0, err
	}
	var runs []float64
	for range 3 {
		start := time.Now()
		if _, err := gbkmv.LoadEngine(bytes.NewReader(snap)); err != nil {
			return 0, fmt.Errorf("loading the traced snapshot: %v", err)
		}
		runs = append(runs, time.Since(start).Seconds()*1000)
	}
	return median(runs), nil
}

// promDelta is the change of a summed series between two scrapes.
func promDelta(a, b []promSample, name string, filters ...string) float64 {
	return promSum(b, name, filters...) - promSum(a, name, filters...)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics assembles the per-layer metrics and the printed layer table.
func layerMetrics(dr *daemonRun, tw *twins, loadMs float64) ([]metric, []string) {
	s0, s1 := dr.scrapes[0], dr.scrapes[len(dr.scrapes)-1]
	coll := `collection="` + collection + `"`
	endpoint := func(kind opKind) string {
		return `endpoint="POST /collections/{name}` + kindPaths[kind] + `"`
	}
	// The untraced daemon's own view of each endpoint, in µs.
	serverMean := func(kind opKind) float64 {
		return 1e6 * ratio(promDelta(s0, s1, "gbkmv_http_request_seconds_sum", coll, endpoint(kind)),
			promDelta(s0, s1, "gbkmv_http_request_seconds_count", coll, endpoint(kind)))
	}
	clientMean := func(kind opKind) float64 {
		var all []float64
		for _, res := range dr.results {
			all = append(all, res.lat[kind]...)
		}
		return 1000 * mean(all)
	}
	us := func(ns float64, n int) float64 { return ratio(ns, float64(n)) / 1000 }

	ops := 0.0
	for _, res := range dr.results {
		ops += float64(res.attempted)
	}
	queries := promDelta(s0, s1, "gbkmv_search_candidates_count", coll)
	hitsD := promDelta(s0, s1, "gbkmv_query_cache_hits_total", coll)
	missD := promDelta(s0, s1, "gbkmv_query_cache_misses_total", coll)
	frames := promDelta(s0, s1, "gbkmv_wal_appended_frames_total", coll)
	fsyncs := promDelta(s0, s1, "gbkmv_wal_fsync_seconds_count", coll)

	se, in := tw.sums[opSearch], tw.sums[opInsert]
	searchSelf := map[string]float64{
		"server.http":       us(se.http-se.store, se.n),
		"server.store":      us(se.store-se.vocab-se.prepare-se.segment, se.n),
		"gbkmv.vocabulary":  us(se.vocab, se.n),
		"gbkmv.engine":      us(se.prepare, se.n),
		"gbkmv.segmented":   us(se.segment, se.n),
		"server.http.total": us(se.http, se.n),
	}
	insertSelf := map[string]float64{
		"server.http":       us(in.http-in.store, in.n),
		"server.store":      us(in.store-in.fsx-in.apply, in.n),
		"fsx":               us(in.fsx, in.n),
		"gbkmv.segmented":   us(in.apply, in.n),
		"server.http.total": us(in.http, in.n),
	}
	searchTransport := clientMean(opSearch) - serverMean(opSearch)
	insertTransport := clientMean(opInsert) - serverMean(opInsert)

	m := []metric{
		{name: "server.http.search_self_us", value: searchSelf["server.http"], unit: "us", n: se.n},
		{name: "server.http.insert_self_us", value: insertSelf["server.http"], unit: "us", n: in.n},
		{name: "server.http.transport_us", value: searchTransport, unit: "us"},
		{name: "server.querycache.hit_ratio", value: ratio(hitsD, hitsD+missD), unit: "ratio"},
		{name: "server.store.search_self_us", value: searchSelf["server.store"], unit: "us", n: se.n},
		{name: "server.store.insert_self_us", value: insertSelf["server.store"], unit: "us", n: in.n},
		{name: "gbkmv.vocabulary.query_us", value: searchSelf["gbkmv.vocabulary"], unit: "us", n: se.n},
		{name: "gbkmv.engine.prepare_us", value: searchSelf["gbkmv.engine"], unit: "us", n: se.n},
		{name: "gbkmv.engine.load_ms", value: loadMs, unit: "ms"},
		{name: "gbkmv.segmented.search_us", value: searchSelf["gbkmv.segmented"], unit: "us", n: se.n},
		{name: "gbkmv.segmented.fanout_overhead_us", value: us(se.segment-se.segment1, se.n), unit: "us", n: se.n},
		{name: "gbkmv.segmented.apply_us", value: insertSelf["gbkmv.segmented"], unit: "us", n: in.n},
		{name: "core.candidates_per_search", value: ratio(promDelta(s0, s1, "gbkmv_search_candidates_total", coll), queries), unit: "count"},
		{name: "core.estimated_per_search", value: ratio(promDelta(s0, s1, "gbkmv_search_estimated_total", coll), queries), unit: "count"},
		{name: "core.pruned_per_search", value: ratio(promDelta(s0, s1, "gbkmv_search_pruned_total", coll), queries), unit: "count"},
		{name: "core.buffer_accepts_per_search", value: ratio(promDelta(s0, s1, "gbkmv_search_buffer_accepts_total", coll), queries), unit: "count"},
		{name: "server.journal.group_size_mean", value: ratio(promDelta(s0, s1, "gbkmv_wal_commit_group_size_sum", coll), promDelta(s0, s1, "gbkmv_wal_commit_group_size_count", coll)), unit: "count"},
		{name: "server.journal.fsyncs_per_record", value: ratio(fsyncs, frames), unit: "count/record"},
		{name: "server.journal.fsync_ms_mean", value: 1000 * ratio(promDelta(s0, s1, "gbkmv_wal_fsync_seconds_sum", coll), fsyncs), unit: "ms"},
		{name: "server.journal.bytes_per_record", value: ratio(promDelta(s0, s1, "gbkmv_wal_appended_bytes_total", coll), frames), unit: "B/record"},
		{name: "server.journal.replay_s", value: promSum(dr.restarts, "gbkmv_wal_replay_seconds", coll), unit: "s"},
		{name: "fsx.sync_us", value: us(float64(tw.insertSyncNsA), int(tw.insertSyncsA)), unit: "us", n: int(tw.insertSyncsA)},
		{name: "fsx.syncs_per_record", value: ratio(float64(tw.insertSyncsA), float64(tw.insertedRecords)), unit: "count/record"},
		{name: "fsx.write_bytes_per_record", value: ratio(float64(tw.insertBytesA), float64(tw.insertedRecords)), unit: "B/record"},
		{name: "runtime.allocs_per_op", value: ratio(promDelta(s0, s1, "go_memstats_mallocs_total"), ops), unit: "count/op"},
		{name: "runtime.alloc_bytes_per_op", value: ratio(promDelta(s0, s1, "go_memstats_alloc_bytes_total"), ops), unit: "B/op"},
		{name: "runtime.gc_cycles_per_kop", value: 1000 * ratio(promDelta(s0, s1, "go_gc_cycles_total"), ops), unit: "count/kop"},
	}

	// Reconciliation: untraced client mean = transport + the traced self
	// times; whatever is left is the residual. With transport taken from the
	// untraced daemon, the residual is the untraced server mean minus the
	// traced ServeHTTP mean: tracing overhead plus the difference between a
	// one-goroutine replay and closed-loop load from several clients.
	var tab strings.Builder
	w := tabwriter.NewWriter(&tab, 2, 8, 2, ' ', tabwriter.AlignRight)
	reconcile := func(kind opKind, self map[string]float64, layers []string, transport float64) (residual, overhead float64) {
		e2e := clientMean(kind)
		fmt.Fprintf(w, "%s reconciliation (means, us)\t\t\n", kindNames[kind])
		fmt.Fprintf(w, "  end-to-end client mean (untraced)\t%.1f\t\n", e2e)
		fmt.Fprintf(w, "  server.http.transport\t%.1f\t\n", transport)
		sum := transport
		for _, l := range layers {
			fmt.Fprintf(w, "  %s self\t%.1f\t\n", l, self[l])
			sum += self[l]
		}
		residual = e2e - sum
		overhead = self["server.http.total"] - serverMean(kind)
		fmt.Fprintf(w, "  sum\t%.1f\t\n", sum)
		fmt.Fprintf(w, "  residual (unexplained)\t%.1f\t\n", residual)
		fmt.Fprintf(w, "  traced ServeHTTP mean\t%.1f\t\n", self["server.http.total"])
		fmt.Fprintf(w, "  untraced gbkmv_http_request_seconds mean\t%.1f\t\n", serverMean(kind))
		fmt.Fprintf(w, "  tracing overhead\t%.1f\t\n", overhead)
		return residual, overhead
	}
	sr, so := reconcile(opSearch, searchSelf, []string{"server.http", "server.store", "gbkmv.vocabulary", "gbkmv.engine", "gbkmv.segmented"}, searchTransport)
	ir, io := reconcile(opInsert, insertSelf, []string{"server.http", "server.store", "fsx", "gbkmv.segmented"}, insertTransport)
	m = append(m,
		metric{name: "trace.search_residual_us", value: sr, unit: "us"},
		metric{name: "trace.search_overhead_us", value: so, unit: "us"},
		metric{name: "trace.insert_residual_us", value: ir, unit: "us"},
		metric{name: "trace.insert_overhead_us", value: io, unit: "us"},
	)
	fmt.Fprintf(w, "cache hits in the traced replay\t%d of %d\t\n", tw.hitsObserved, tw.queriesObserved)
	w.Flush()

	var lt strings.Builder
	lw := tabwriter.NewWriter(&lt, 2, 8, 2, ' ', 0)
	fmt.Fprintf(lw, "layer\tmetric\tvalue\tunit\tsamples\n")
	for _, x := range m {
		layer := x.name[:strings.LastIndexByte(x.name, '.')]
		n := ""
		if x.n > 0 {
			n = fmt.Sprint(x.n)
		}
		fmt.Fprintf(lw, "%s\t%s\t%.4g\t%s\t%s\n", layer, x.name[len(layer)+1:], x.value, x.unit, n)
	}
	lw.Flush()
	return m, []string{"per-layer table\n" + lt.String(), tab.String()}
}
