package core

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gbkmv/internal/dataset"
	"gbkmv/internal/topkheap"
)

// Scored pairs a record id with its estimated containment similarity. It is
// an alias of the shared top-k heap item, so heap output flows through the
// engine layer without conversion.
type Scored = topkheap.Scored

// SearchTopK returns the k records with the highest estimated containment
// similarity C(Q, X), best first (ties broken by ascending id). Records with
// estimate 0 are never returned, so fewer than k results are possible.
func (ix *Index) SearchTopK(q dataset.Record, k int) []Scored {
	if k <= 0 {
		return nil // don't pay for the sketch
	}
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	ix.sketchInto(&sc.sig, q)
	return ix.topkSigWith(&sc.sig, k, sc)
}

// SearchTopKSig is SearchTopK with a prebuilt query signature.
func (ix *Index) SearchTopKSig(sig *QuerySig, k int) []Scored {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	return ix.topkSigWith(sig, k, sc)
}

// topkSigWith selects the k best records in two phases over one bounded
// min-heap, neither of which scores every record that shares an element
// with the query.
//
// Phase 1 scores the sketch candidates — records sharing at least one
// sketch element with the query (K∩ ≥ 1) — from their counted K∩
// (countedInter), with an upper-bound prune: once the heap holds k results,
// a candidate whose cheap score ceiling cannot beat the running k-th score
// is not estimated at all.
//
// Phase 2 reaches the buffer-only records (K∩ = 0, so D̂∩ = 0 and the score
// is exactly |H_Q ∩ H_X| / |Q|, no sketch estimate needed) through the
// buffer posting lists, rarest query bit first. It is the prefix filter of
// gatherSearchCandidates with θ taken from the running heap: a buffer-only
// record can only enter the results with an overlap of at least c, the least
// integer with c/|Q| ≥ the k-th score (c = 1 while the heap is not full), so
// it holds one of any nq − c + 1 of the query's nq buffered bits. c only
// rises as the heap improves, so the prefix to scan only shrinks, and the
// walk stops once it has covered it. A record scoring exactly the k-th
// score still has overlap ≥ c and is still reached, so it can win its tie
// on a smaller id; results stay bit-identical to scoring every record.
func (ix *Index) topkSigWith(sig *QuerySig, k int, sc *searchScratch) []Scored {
	if k <= 0 || sig.Size == 0 {
		return nil
	}
	sig.Stats = QueryStats{}
	// Phase 1 candidates: every record sharing a sketch element, with K∩
	// accumulated exactly per candidate for the prune below.
	ix.walkPostings(sig, sc)
	// The score ceiling reuses Search's K∩ bound: D̂∩ = K∩·(k−1)/(k·U(k)) ≤
	// K∩/U(k) ≤ K∩/max(L_Q), since U(k) — the largest hash of L_Q ∪ L_X —
	// is at least the largest hash of L_Q alone (and in the lossless case
	// D̂∩ = K∩ ≤ K∩/max(L_Q) because hashes are ≤ 1). Adding the exact
	// buffer overlap gives an upper bound on the estimate; a candidate
	// whose bound is strictly below the current k-th score cannot enter the
	// results (a bound merely equal to it still can, winning its tie on a
	// smaller id, so ties are always scored).
	qMax := 0.0
	if hs := sig.sketch.Hashes(); len(hs) > 0 {
		qMax = hs[len(hs)-1]
	}
	size := float64(sig.Size)
	h := topkheap.Make(k, sc.heap)
	for _, id := range sc.touched {
		exact := ix.bufferOverlap(sig, int(id))
		upper := float64(exact)
		if qMax > 0 {
			upper += float64(sc.counts[id]) / qMax
		}
		if h.Full() && min(upper/size, 1) < h.WorstScore() {
			sig.Stats.PrunedByBound++
			continue
		}
		sig.Stats.Estimated++
		est := min((float64(exact)+ix.countedInter(sig, id, sc))/size, 1)
		if est > 0 {
			h.Push(int(id), est)
		}
	}
	if sig.buffer != nil {
		// Phase 2. Every record not yet visited has K∩ = 0 (same element ⇔
		// same hash value), so its estimate is the buffer overlap alone —
		// exactly what phase 1 would compute, since D̂∩ is then +0.
		// Until the heap is full c = 1, and the walk covers all nq bits.
		nq := sig.buffer.Count()
		scanned := 0
		for _, bit := range ix.bitOrder {
			if !sig.buffer.Get(int(bit)) {
				continue
			}
			if h.Full() && scanned >= nq-minOverlap(h.WorstScore(), size)+1 {
				break
			}
			for _, id := range ix.bufferPostings[bit] {
				if sc.visited[id] == sc.epoch {
					continue
				}
				sc.visit(id)
				sig.Stats.BufferAccepts++
				est := min(float64(ix.bufferOverlap(sig, int(id)))/size, 1)
				if est > 0 {
					h.Push(int(id), est)
				}
			}
			scanned++
		}
	}
	sig.Stats.Candidates = len(sc.touched)
	sc.heap = h.Buf()
	return h.Sorted()
}

// minOverlap returns the least buffer overlap c ≥ 1 whose exact score c/|Q|
// reaches worst, a positive k-th score. It is computed in the same float
// arithmetic as the scores themselves, so a record tying the k-th score is
// never excluded by rounding.
func minOverlap(worst, size float64) int {
	c := int(math.Ceil(worst * size))
	if c < 1 {
		c = 1
	}
	for c > 1 && float64(c-1)/size >= worst {
		c--
	}
	for float64(c)/size < worst {
		c++
	}
	return c
}

// SearchBatch runs Search for every query concurrently and returns the
// per-query result slices in input order. Each worker owns one scratch (and
// its embedded query-signature buffers) for its whole share of the batch.
func (ix *Index) SearchBatch(queries []dataset.Record, tstar float64) [][]int {
	out := make([][]int, len(queries))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(queries) {
		workers = len(queries)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := ix.getScratch()
			defer ix.putScratch(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				ix.sketchInto(&sc.sig, queries[i])
				out[i] = ix.searchSigWith(&sc.sig, tstar, sc)
			}
		}()
	}
	wg.Wait()
	return out
}

// Pair is one containment-join result: C(records[Q], records[X]) ≥ t*.
type Pair struct {
	Q, X int
}

// Join computes the approximate containment self-join of the indexed
// collection: every ordered pair (i, j), i ≠ j, with estimated
// C(X_i, X_j) ≥ tstar. Queries run concurrently; pairs are returned sorted
// by (Q, X). This is the join-shaped workload PPjoin was designed for,
// answered from the sketch.
func (ix *Index) Join(tstar float64) []Pair {
	results := ix.SearchBatch(ix.records, tstar)
	pairs := []Pair{}
	for q, ids := range results {
		for _, x := range ids {
			if x != q {
				pairs = append(pairs, Pair{Q: q, X: x})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Q != pairs[b].Q {
			return pairs[a].Q < pairs[b].Q
		}
		return pairs[a].X < pairs[b].X
	})
	return pairs
}
