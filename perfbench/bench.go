package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Repetitions whose median a run reports: daemon start through the build,
// and kill -9 through a ready restart.
const (
	setupReps   = 3
	recoverReps = 5
	// durabilitySample is how many acked inserts have their answers
	// compared across the crash.
	durabilitySample = 32
)

// config is one benchmark invocation.
type config struct {
	wl      workload
	seed    uint64
	seconds float64
	trace   bool
	daemon  string // gbkmvd binary built from the tree
	work    string // working directory for this run
	clients int
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind it, 0 when not a sample statistic
}

// daemonRun is what the untraced daemon run measured.
type daemonRun struct {
	in        *inputs
	segments  int
	metrics   []metric // the end-to-end metrics
	tails     []metric // p99 latencies, kept as layer metrics
	attempted int
	failed    int
	problems  []error
	results   []*phaseResult
	// /metrics scrapes before the first phase and after each phase (traced
	// runs only), and of the daemon after the last restart.
	scrapes  [][]promSample
	restarts []promSample
}

func (r *daemonRun) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Errorf(format, args...))
}

func (r *daemonRun) note(res *phaseResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	r.problems = append(r.problems, res.malformed...)
}

// runDaemon generates the inputs, builds the collection on a fresh daemon
// setupReps times, drives every phase closed-loop on the last one, scores
// F1 after the mix, then crashes and restarts the daemon and checks that
// every acked insert survived.
func runDaemon(cfg config, share float64) (*daemonRun, error) {
	logf("generating %s inputs (seed %d)", cfg.wl.name, cfg.seed)
	in := cfg.wl.make(cfg.seed, cfg.seconds*share)
	r := &daemonRun{in: in}
	cl := newClient(cfg.clients)
	defer cl.CloseIdleConnections()
	dataDir := filepath.Join(cfg.work, "data")
	logPath := filepath.Join(cfg.work, "gbkmvd.log")

	var setups, rss []float64
	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	buildBody := in.g.buildBody(in.built, in.budget, 0)
	for rep := range setupReps {
		if d != nil {
			mb, err := d.peakRSSMB()
			if err != nil {
				return nil, err
			}
			rss = append(rss, mb)
			d.kill()
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(cfg.daemon, dataDir, logPath); err != nil {
			return nil, err
		}
		if err := d.waitReady(cl, time.Minute); err != nil {
			return nil, err
		}
		status, body, err := do(cl, http.MethodPut, d.base+collectionPath, buildBody)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("build PUT: status %d, err %v: %.200s", status, err, body)
		}
		setups = append(setups, time.Since(start).Seconds())
		logf("setup %d/%d: %.3fs", rep+1, setupReps, setups[rep])
	}

	st, err := d.stats(cl)
	if err != nil {
		return nil, err
	}
	if st.NumRecords != len(in.built) {
		r.fail("built collection holds %d records, want %d", st.NumRecords, len(in.built))
	}
	if st.Segments != nil {
		r.segments = st.Segments.Count
	}

	scrapeNow := func() []promSample {
		if !cfg.trace {
			return nil
		}
		s, err := scrape(cl, d.base)
		if err != nil {
			r.fail("scraping /metrics: %v", err)
		}
		return s
	}
	t := newTarget(cl, d.base)
	r.note(runPhase(t, in.warmup, cfg.clients, time.Minute))
	r.scrapes = append(r.scrapes, scrapeNow())
	var f1 float64
	for pi, p := range in.phases {
		dur := time.Minute // fixed-count phases send every request
		if p.share > 0 {
			dur = time.Duration(cfg.seconds * share * p.share * float64(time.Second))
		}
		res := runPhase(t, p.ops, cfg.clients, dur)
		logf("phase %s: %d requests in %v", p.name, res.sent, res.elapsed.Round(time.Millisecond))
		if p.share > 0 && res.sent == len(p.ops) {
			logf("phase %s ran out of requests after %v; its stream capacity is too small for this daemon", p.name, res.elapsed)
		}
		r.note(res)
		r.results = append(r.results, res)
		r.scrapes = append(r.scrapes, scrapeNow())
		if pi == 0 {
			// Accuracy of the collection the mix served; the probes after it
			// measure operations, not the collection they leave behind.
			f1 = r.verifyF1(cl, d.base, r.finalRecords(), cfg.clients)
		}
	}
	final := r.finalRecords()
	acks := r.acks()

	if st, err = d.stats(cl); err != nil {
		return nil, err
	}
	indexBytes := float64(st.SizeBytes)
	mb, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rss = append(rss, mb)

	// Crash and recover: every acked insert must be back, and the sampled
	// acked records must get the same answers as before the crash.
	sample := sampleAcked(acks)
	before := r.probeAcked(cl, d.base, sample)
	var recoveries []float64
	for range recoverReps {
		d.kill()
		start := time.Now()
		if d, err = startDaemon(cfg.daemon, dataDir, logPath); err != nil {
			return nil, err
		}
		if err := d.waitReady(cl, time.Minute); err != nil {
			return nil, err
		}
		st, err := d.stats(cl)
		if err != nil {
			return nil, err
		}
		recoveries = append(recoveries, time.Since(start).Seconds())
		if st.NumRecords != len(final) {
			r.fail("after kill -9 and restart: %d records, want %d built + %d acked", st.NumRecords, len(in.built), len(acks))
		}
	}
	if cfg.trace {
		if r.restarts, err = scrape(cl, d.base); err != nil {
			r.fail("scraping /metrics after restart: %v", err)
		}
	}
	r.checkDurability(sample, before, r.probeAcked(cl, d.base, sample))

	var lat [numKinds][]float64
	var secs [numKinds]float64
	for _, res := range r.results {
		for k := range lat {
			if len(res.lat[k]) > 0 {
				lat[k] = append(lat[k], res.lat[k]...)
				secs[k] += res.elapsed.Seconds()
			}
		}
	}
	for k := range lat {
		slices.Sort(lat[k])
	}
	search, topk, insert := lat[opSearch], lat[opTopK], lat[opInsert]
	r.metrics = []metric{
		{name: "setup_s", value: median(setups), unit: "s", n: len(setups)},
		{name: "search_p50_ms", value: quantile(search, 0.5), unit: "ms", n: len(search)},
		{name: "search_ops_s", value: float64(len(search)) / secs[opSearch], unit: "1/s", n: len(search)},
		{name: "topk_p50_ms", value: quantile(topk, 0.5), unit: "ms", n: len(topk)},
		{name: "insert_p50_ms", value: quantile(insert, 0.5), unit: "ms", n: len(insert)},
		{name: "insert_records_s", value: float64(len(insert)) / secs[opInsert], unit: "1/s", n: len(insert)},
		{name: "recovery_s", value: median(recoveries), unit: "s", n: len(recoveries)},
		{name: "search_f1", value: f1, unit: "ratio", n: len(in.verify)},
		{name: "index_bytes", value: indexBytes, unit: "B"},
		{name: "peak_rss_mb", value: median(rss), unit: "MB", n: len(rss)},
	}
	// p99s swing by more than a tenth between runs on a shared two-core
	// host, so they are layer metrics, printed here for the record.
	r.tails = []metric{
		{name: "tail.search_p99_ms", value: quantile(search, 0.99), unit: "ms", n: len(search)},
		{name: "tail.topk_p99_ms", value: quantile(topk, 0.99), unit: "ms", n: len(topk)},
		{name: "tail.insert_p99_ms", value: quantile(insert, 0.99), unit: "ms", n: len(insert)},
	}
	for _, m := range r.tails {
		if m.n < 1000 {
			r.fail("%s rests on %d samples; a p99 needs at least 1000", m.name, m.n)
		}
	}
	return r, nil
}

// acked is an insert the daemon acknowledged: its id and record.
type acked struct {
	id  int
	rec []uint32
}

// acks lists every acked insert so far, by id.
func (r *daemonRun) acks() []acked {
	var out []acked
	for pi, res := range r.results {
		for i, id := range res.ackedID {
			if id >= 0 {
				out = append(out, acked{id, r.in.phases[pi].ops[i].elems})
			}
		}
	}
	slices.SortFunc(out, func(a, b acked) int { return a.id - b.id })
	return out
}

// finalRecords is the collection as the client knows it: the build, then
// every acked insert at its id. Acked ids must continue the build's ids
// without a gap.
func (r *daemonRun) finalRecords() [][]uint32 {
	final := slices.Clone(r.in.built)
	for i, a := range r.acks() {
		if a.id != len(r.in.built)+i {
			r.fail("acked insert ids are not contiguous after the build: id %d at position %d", a.id, i)
			break
		}
		final = append(final, a.rec)
	}
	return final
}

// sampleAcked picks up to durabilitySample acked inserts, evenly spread
// over the insert order.
func sampleAcked(acks []acked) []acked {
	n := min(durabilitySample, len(acks))
	out := make([]acked, n)
	for i := range out {
		out[i] = acks[i*len(acks)/n]
	}
	return out
}

// probeAcked asks, for each sampled record, the top-10 by its own tokens
// with hit tokens, and every hit of a threshold search by its own tokens,
// and returns the raw responses.
func (r *daemonRun) probeAcked(cl *http.Client, base string, sample []acked) [][]byte {
	t := newTarget(cl, base)
	var out [][]byte
	for _, a := range sample {
		raw := r.in.g.appendTokens(nil, a.rec)
		topk := topkBody(raw, topK)
		topk = append(topk[:len(topk)-1], `,"with_tokens":true}`...)
		for _, q := range []struct {
			kind opKind
			body []byte
		}{{opTopK, topk}, {opSearch, searchBody(raw, r.in.threshold, 0)}} {
			r.attempted++
			status, resp, err := do(cl, http.MethodPost, t.urls[q.kind], q.body)
			if err != nil || status != http.StatusOK {
				r.failed++
				r.fail("durability probe: status %d, err %v", status, err)
			}
			out = append(out, resp)
		}
	}
	return out
}

// checkDurability compares the sampled acked records' answers across the
// crash: the responses must be byte-identical — ids, estimates and hit
// tokens — and a record that answered its own top-k must carry its own
// tokens. Presence itself is the exact record count checked at every
// restart: an estimator's C(X, X) need not reach 1, and ties at 1.0 go to
// lower ids, so a self-search can miss a record that is there.
func (r *daemonRun) checkDurability(sample []acked, before, after [][]byte) {
	if len(sample) == 0 {
		r.fail("no insert was acked; the durability check needs some")
		return
	}
	found := 0
	for i, a := range sample {
		for j := 2 * i; j < 2*i+2; j++ {
			if !bytes.Equal(before[j], after[j]) {
				r.fail("acked record %d: answer changed across kill -9 and restart:\n before %.300s\n after  %.300s", a.id, before[j], after[j])
			}
		}
		var resp struct {
			Hits []struct {
				ID     int      `json:"id"`
				Tokens []string `json:"tokens"`
			} `json:"hits"`
		}
		if err := json.Unmarshal(after[2*i], &resp); err != nil {
			r.fail("malformed durability top-k response: %v", err)
			continue
		}
		for _, h := range resp.Hits {
			if h.ID != a.id {
				continue
			}
			found++
			// Hit tokens come back in vocabulary order; compare as sets.
			want := r.in.g.tokenStrings(a.rec)
			slices.Sort(want)
			slices.Sort(h.Tokens)
			if !slices.Equal(h.Tokens, want) {
				r.fail("acked record %d came back with other tokens", a.id)
			}
		}
	}
	logf("durability: %d acked records sampled, %d in their own top-%d", len(sample), found, topK)
}

// verifyF1 sends every verification query with no limit, over clients
// connections, and scores the hits against exact containment over the
// given records: the mean per-query F1.
func (r *daemonRun) verifyF1(cl *http.Client, base string, records [][]uint32, clients int) float64 {
	o := newOracle()
	for id, rec := range records {
		o.add(id, rec)
	}
	url := base + collectionPath + kindPaths[opSearch]
	got := make([][]int, len(r.in.verify))
	errs := make([]error, len(r.in.verify))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(r.in.verify); i = int(next.Add(1)) - 1 {
				raw := r.in.g.appendTokens(nil, r.in.verify[i])
				status, body, err := do(cl, http.MethodPost, url, searchBody(raw, r.in.threshold, 0))
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("verification search: status %d: %.200s", status, body)
				}
				if err == nil {
					got[i], err = parseHits(opSearch, body)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	sum := 0.0
	for i, q := range r.in.verify {
		r.attempted++
		if errs[i] != nil {
			r.failed++
			r.problems = append(r.problems, errs[i])
			continue
		}
		slices.Sort(got[i])
		sum += f1(got[i], o.answer(q, r.in.threshold))
	}
	score := sum / float64(len(r.in.verify))
	if score < r.in.f1Floor {
		r.fail("search_f1 %.4f is below the floor %.2f", score, r.in.f1Floor)
	}
	return score
}

// execute runs one invocation: the end-to-end metrics, or with trace the
// per-layer ones.
func execute(cfg config) (*report, error) {
	share := 1.0
	if cfg.trace {
		// Half the measuring time drives the daemon (counts, transport, the
		// untraced means); the other half replays in-process with spans.
		share = 0.5
	}
	dr, err := runDaemon(cfg, share)
	if err != nil {
		return nil, err
	}
	rep := &report{
		workload:  cfg.wl.name,
		env:       environment(cfg, dr.segments),
		metrics:   dr.metrics,
		info:      dr.tails,
		attempted: dr.attempted,
		failed:    dr.failed,
		problems:  dr.problems,
	}
	if cfg.trace {
		if err := traceLayers(cfg, dr, rep); err != nil {
			return nil, err
		}
	}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			rep.problems = append(rep.problems, fmt.Errorf("metric %s is not a number", m.name))
		}
	}
	return rep, nil
}
