package main

import (
	"hash/fnv"
	"math/rand/v2"
)

// phaseSpec is one closed-loop phase of a workload: its share of the run's
// measuring time and the request stream it draws from. A phase with share 0
// sends its whole stream, a fixed count.
type phaseSpec struct {
	name  string
	share float64
	ops   []op
}

// inputs is everything a workload sends, generated before any timing
// starts. The collection is the workload's fixed dataset; the seed draws
// every request stream — queries, inserts and verification queries.
type inputs struct {
	g      *gen
	built  [][]uint32
	warmup []op
	phases []phaseSpec
	// verify are the F1 queries, sent with no limit right after the mix and
	// scored against the exact oracle over the records acked so far.
	verify    [][]uint32
	threshold float64
	f1Floor   float64
	// budget is the build's sketch budget as a fraction of the data size;
	// 0 keeps the daemon default (10%).
	budget float64
}

// workload is one traffic mix. The shapes follow the cost split measured on
// the daemon: at 100k records the engine dominates a search, at 2k records
// HTTP and transport do, and single-record inserts are fsync-bound. Every
// workload also probes the operations its mix lacks after the mix, so every
// end-to-end metric exists on every workload.
type workload struct {
	name string
	why  string
	make func(seed uint64, seconds float64) *inputs
}

var workloads = []workload{
	{
		name: "search-large",
		why:  "100k records, no repeated query: prepare and per-segment core search dominate, so engine and sketch changes show here",
		make: searchLarge,
	},
	{
		name: "search-small-hot",
		why:  "2k records, 256 hot short queries: the prepared-query cache hits, so decode, transport and fan-out dominate and engine changes should not show",
		make: searchSmallHot,
	},
	{
		name: "ingest-mixed",
		why:  "20k records, half durable single-record inserts: journal, group commit, fsync and apply under read contention, then kill -9 recovery",
		make: ingestMixed,
	},
}

// Per-second stream capacities: each stream holds several times the
// requests its phase sends at the rates the daemon reaches on two cores, so
// no stream wraps (a search-large query never repeats). A phase that does
// run out ends early.
const (
	largeOpsPerSec = 2500
	coldOpsPerSec  = 4000
	hotOpsPerSec   = 30000
)

func capacity(seconds, share float64, perSec int) int {
	return int(seconds*share*float64(perSec)) + 500
}

// distinct hands out queries that never repeat within one workload's
// inputs, so the prepared-query cache never hits on them.
type distinct struct {
	g    *gen
	base [][]uint32
	seen map[uint64]struct{}
}

func (d *distinct) next(keepLo, keepHi float64, maxLen int) []uint32 {
	for {
		q := d.g.perturb(d.base[d.g.rng.IntN(len(d.base))], keepLo, keepHi, maxLen)
		h := fnv.New64a()
		for _, e := range q {
			h.Write([]byte{byte(e), byte(e >> 8), byte(e >> 16), byte(e >> 24)})
		}
		if _, dup := d.seen[h.Sum64()]; !dup {
			d.seen[h.Sum64()] = struct{}{}
			return q
		}
	}
}

func (g *gen) searchOp(q []uint32, threshold float64, limit int) op {
	raw := g.appendTokens(nil, q)
	return op{kind: opSearch, body: searchBody(raw, threshold, limit), raw: raw, elems: q, threshold: threshold, limit: limit}
}

func (g *gen) topkOp(q []uint32, k int) op {
	raw := g.appendTokens(nil, q)
	return op{kind: opTopK, body: topkBody(raw, k), raw: raw, elems: q, k: k}
}

func (g *gen) insertOp(rec []uint32) op {
	raw := g.appendTokens(nil, rec)
	return op{kind: opInsert, body: insertBody(raw), raw: raw, elems: rec}
}

func (g *gen) insertOps(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.insertOp(g.record())
	}
	return ops
}

// datasetSeed generates every workload's collection. A collection drawn
// from the run's seed would make the build's cost-model choices (buffer
// bits, per segment) differ between seeds, and index_bytes with them by up
// to a quarter.
const datasetSeed = 1

// fixedCollection returns a workload's collection of n records.
func fixedCollection(n int) [][]uint32 { return newGen(datasetSeed, defaultSpec).records(n) }

const (
	searchLimit = 100
	topK        = 10
	verifyN     = 1000
	warmupN     = 200
	// insertProbeN is the fixed size of an insert probe: enough for a p99,
	// small enough not to reshape the collection the other phases measure.
	insertProbeN = 1500
)

// searchLarge: 100k records; 75% threshold searches (t=0.5, limit 100) and
// 25% top-10, every query a distinct perturbed sample of a stored record;
// then a durable single-record insert probe.
func searchLarge(seed uint64, seconds float64) *inputs {
	g := newGen(seed, defaultSpec)
	in := &inputs{g: g, built: fixedCollection(100_000), threshold: 0.5, f1Floor: 0.1}
	d := &distinct{g: g, base: in.built, seen: make(map[uint64]struct{})}
	mixed := func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			q := d.next(0.5, 1, 1000)
			if g.rng.Float64() < 0.75 {
				ops[i] = g.searchOp(q, in.threshold, searchLimit)
			} else {
				ops[i] = g.topkOp(q, topK)
			}
		}
		return ops
	}
	in.warmup = mixed(warmupN)
	in.phases = []phaseSpec{
		{name: "mix", share: 0.9, ops: mixed(capacity(seconds, 0.9, largeOpsPerSec))},
		{name: "insert-probe", ops: g.insertOps(insertProbeN)},
	}
	for range verifyN {
		in.verify = append(in.verify, d.next(0.5, 1, 1000))
	}
	return in
}

// searchSmallHot: 2k records and 256 distinct short queries (10-30 tokens)
// drawn with Zipf skew at t=0.8; then a top-10 probe over the same hot set
// and a durable insert probe.
func searchSmallHot(seed uint64, seconds float64) *inputs {
	g := newGen(seed, defaultSpec)
	// At the daemon's default 10% budget a 10-30-token query keeps about
	// two sketch entries and F1 at t=0.8 measures about 0.01, too small to
	// repeat across seeds; the small collection is built at 50%.
	in := &inputs{g: g, built: fixedCollection(2000), threshold: 0.8, f1Floor: 0.5, budget: 0.5}
	const hot = 256
	d := &distinct{g: g, base: in.built, seen: make(map[uint64]struct{})}
	var searches, topks []op
	// The verification set is the hot set plus more queries of its shape,
	// enough for F1 to repeat across seeds.
	for len(in.verify) < verifyN {
		// A 20-element record sampled at 50-100% gives 10-20 kept tokens;
		// capping at 27 kept plus one noise token per ten keeps every query
		// within 10-30 tokens.
		q := d.next(0.5, 1, 27)
		if len(q) < 10 {
			continue
		}
		in.verify = append(in.verify, q)
		if len(searches) < hot {
			searches = append(searches, g.searchOp(q, in.threshold, searchLimit))
			topks = append(topks, g.topkOp(q, topK))
		}
	}
	skewed := func(pool []op, n int) []op {
		z := rand.NewZipf(g.rng, 1.1, 1, uint64(len(pool)-1))
		ops := make([]op, n)
		for i := range ops {
			ops[i] = pool[z.Uint64()]
		}
		return ops
	}
	in.warmup = skewed(searches, warmupN)
	in.phases = []phaseSpec{
		{name: "mix", share: 0.65, ops: skewed(searches, capacity(seconds, 0.65, hotOpsPerSec))},
		{name: "topk-probe", share: 0.3, ops: skewed(topks, capacity(seconds, 0.3, hotOpsPerSec))},
		{name: "insert-probe", ops: g.insertOps(insertProbeN)},
	}
	return in
}

// ingestNominalRate sizes ingest-mixed's mix: inserts per second of the
// measuring time. The mix sends a fixed count, so the collection it leaves
// — and with it F1, index_bytes and the journal a restart replays — does not
// depend on how fast the host ran; at the rates two cores reach the mix
// takes about half of --seconds.
const ingestNominalRate = 400

// ingestMixed: 20k records, then a fixed number of durable single-record
// inserts of fresh records alternating with threshold searches (t=0.5,
// limit 100) on the growing collection; then a top-10 probe.
func ingestMixed(seed uint64, seconds float64) *inputs {
	g := newGen(seed, defaultSpec)
	in := &inputs{g: g, built: fixedCollection(20_000), threshold: 0.5, f1Floor: 0.1}
	d := &distinct{g: g, base: in.built, seen: make(map[uint64]struct{})}
	mixed := func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			if i%2 == 0 {
				ops[i] = g.insertOp(g.record())
			} else {
				ops[i] = g.searchOp(d.next(0.5, 1, 1000), in.threshold, searchLimit)
			}
		}
		return ops
	}
	topks := func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = g.topkOp(d.next(0.5, 1, 1000), topK)
		}
		return ops
	}
	in.warmup = topks(warmupN)
	in.phases = []phaseSpec{
		{name: "mix", ops: mixed(2 * int(seconds*ingestNominalRate))},
		{name: "topk-probe", share: 0.35, ops: topks(capacity(seconds, 0.35, coldOpsPerSec))},
	}
	for range verifyN {
		in.verify = append(in.verify, d.next(0.5, 1, 1000))
	}
	return in
}
