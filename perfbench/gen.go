package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
)

// genSpec shapes a synthetic corpus: elements Zipf-distributed over a
// universe, record sizes from a truncated power law — the skew GB-KMV's
// buffer and the paper's datasets are built around.
type genSpec struct {
	universe int
	zipfS    float64
	minLen   int
	maxLen   int
	alpha    float64 // power-law exponent of record sizes: P(n) ∝ n^-alpha
}

// defaultSpec is the one corpus shape every workload draws from.
var defaultSpec = genSpec{universe: 100_000, zipfS: 1.1, minLen: 20, maxLen: 1000, alpha: 2.5}

// gen draws records and queries from one seeded stream. Every method is
// deterministic given the seed and the sequence of calls, so the same seed
// yields byte-identical request bodies.
type gen struct {
	spec   genSpec
	rng    *rand.Rand
	zipf   *rand.Zipf
	tokens []string // token text per element id
	seen   map[uint32]struct{}
}

func newGen(seed uint64, spec genSpec) *gen {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	tokens := make([]string, spec.universe)
	for i := range tokens {
		tokens[i] = "w" + strconv.FormatUint(uint64(i), 36)
	}
	return &gen{
		spec:   spec,
		rng:    rng,
		zipf:   rand.NewZipf(rng, spec.zipfS, 1, uint64(spec.universe-1)),
		tokens: tokens,
		seen:   make(map[uint32]struct{}),
	}
}

// size draws a record size from the truncated power law by inverse CDF.
func (g *gen) size() int {
	a := 1 - g.spec.alpha
	lo, hi := math.Pow(float64(g.spec.minLen), a), math.Pow(float64(g.spec.maxLen), a)
	n := int(math.Pow(lo-g.rng.Float64()*(lo-hi), 1/a))
	return min(max(n, g.spec.minLen), g.spec.maxLen)
}

// draw returns n distinct Zipf elements, sorted ascending.
func (g *gen) draw(n int) []uint32 {
	clear(g.seen)
	out := make([]uint32, 0, n)
	for len(out) < n {
		e := uint32(g.zipf.Uint64())
		if _, dup := g.seen[e]; dup {
			continue
		}
		g.seen[e] = struct{}{}
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// record draws one record.
func (g *gen) record() []uint32 { return g.draw(g.size()) }

// records draws n records.
func (g *gen) records(n int) [][]uint32 {
	out := make([][]uint32, n)
	for i := range out {
		out[i] = g.record()
	}
	return out
}

// perturb derives a query from a stored record: keep a random share in
// [keepLo, keepHi] of its elements (at most maxLen, at least one), then add
// noise fresh Zipf elements for every ten kept. The base record contains at
// least keep/(keep+noise) of the query, so it is a true match at any
// threshold below that.
func (g *gen) perturb(base []uint32, keepLo, keepHi float64, maxLen int) []uint32 {
	keep := int(math.Round(float64(len(base)) * (keepLo + g.rng.Float64()*(keepHi-keepLo))))
	keep = min(max(keep, 1), len(base), maxLen)
	idx := g.rng.Perm(len(base))[:keep]
	q := make([]uint32, 0, keep+keep/10+1)
	for _, i := range idx {
		q = append(q, base[i])
	}
	for range keep / 10 {
		q = append(q, uint32(g.zipf.Uint64()))
	}
	slices.Sort(q)
	return slices.Compact(q)
}

// appendTokens appends rec as a JSON array of token strings.
func (g *gen) appendTokens(dst []byte, rec []uint32) []byte {
	dst = append(dst, '[')
	for i, e := range rec {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = append(dst, g.tokens[e]...)
		dst = append(dst, '"')
	}
	return append(dst, ']')
}

// tokenStrings returns rec's tokens.
func (g *gen) tokenStrings(rec []uint32) []string {
	out := make([]string, len(rec))
	for i, e := range rec {
		out[i] = g.tokens[e]
	}
	return out
}

// buildBody marshals a collection build request. budget > 0 sets the
// sketch budget as a fraction of the data size (0 keeps the daemon
// default); segments > 0 pins the segment count (the in-process traced
// stores; 0 keeps the daemon default).
func (g *gen) buildBody(recs [][]uint32, budget float64, segments int) []byte {
	b := append(make([]byte, 0, 64<<20), `{"records":[`...)
	for i, r := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = g.appendTokens(b, r)
	}
	b = append(b, `],"options":{"segments":`...)
	b = strconv.AppendInt(b, int64(segments), 10)
	if budget > 0 {
		b = append(b, `,"budget_fraction":`...)
		b = appendFloat(b, budget)
	}
	return append(b, `}}`...)
}

func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// searchBody marshals a threshold search; raw is the query's JSON array.
func searchBody(raw []byte, threshold float64, limit int) []byte {
	b := append([]byte(`{"query":`), raw...)
	b = append(b, `,"threshold":`...)
	b = appendFloat(b, threshold)
	b = append(b, `,"limit":`...)
	b = strconv.AppendInt(b, int64(limit), 10)
	return append(b, '}')
}

// topkBody marshals a top-k query.
func topkBody(raw []byte, k int) []byte {
	b := append([]byte(`{"query":`), raw...)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	return append(b, '}')
}

// insertBody marshals a single-record insert.
func insertBody(raw []byte) []byte {
	b := append([]byte(`{"records":[`), raw...)
	return append(b, `]}`...)
}

// oracle answers exact containment queries over a growing record set with
// an inverted index: C(Q, X) = |Q ∩ X| / |Q|.
type oracle struct {
	postings map[uint32][]int32
	n        int
	counts   []int32
}

func newOracle() *oracle { return &oracle{postings: make(map[uint32][]int32)} }

// add indexes rec under id. Ids must be added in ascending order.
func (o *oracle) add(id int, rec []uint32) {
	for _, e := range rec {
		o.postings[e] = append(o.postings[e], int32(id))
	}
	o.n = max(o.n, id+1)
}

// answer returns the ids of every record X with C(q, X) ≥ t, ascending.
func (o *oracle) answer(q []uint32, t float64) []int {
	if len(q) == 0 {
		return nil
	}
	if len(o.counts) < o.n {
		o.counts = make([]int32, o.n)
	}
	var touched []int32
	for _, e := range q {
		for _, id := range o.postings[e] {
			if o.counts[id] == 0 {
				touched = append(touched, id)
			}
			o.counts[id]++
		}
	}
	var out []int
	for _, id := range touched {
		if float64(o.counts[id])/float64(len(q)) >= t {
			out = append(out, int(id))
		}
		o.counts[id] = 0
	}
	slices.Sort(out)
	return out
}

// f1 scores returned ids against the truth; both ascending. An empty answer
// to an empty truth scores 1.
func f1(got, truth []int) float64 {
	if len(got) == 0 && len(truth) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(got) && j < len(truth); {
		switch {
		case got[i] < truth[j]:
			i++
		case got[i] > truth[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	if inter == 0 {
		return 0
	}
	p := float64(inter) / float64(len(got))
	r := float64(inter) / float64(len(truth))
	return 2 * p * r / (p + r)
}
