package core

import (
	"math/bits"

	"gbkmv/internal/topkheap"
)

// searchScratch is the per-call working memory of the query path: the
// candidate-accumulation arrays sized to the collection, an epoch-stamped
// visited array so nothing is cleared between queries, a hit bitset that is
// all zeros between queries, a reusable top-k heap
// buffer, and a reusable query-signature slot for the sketch-and-search
// entry points. Instances live in a per-index sync.Pool; steady-state
// searches therefore allocate nothing beyond their result slice.
//
// Concurrency contract: a scratch is owned by exactly one query at a time
// (getScratch/putScratch bracket every use). The index itself stays
// read-concurrent — scratches never hold index state, only per-query
// working memory — and mutations (AddRecords, shrinks) are already excluded
// from running concurrently with reads by the Engine contract.
type searchScratch struct {
	epoch   uint32
	visited []uint32 // visited[id] == epoch ⇔ id touched by this query
	counts  []int32  // K∩ per touched record
	touched []int32  // the touched ids, for sparse iteration
	hits    []uint64 // threshold-search hits by id; drainHits clears it
	heap    []topkheap.Scored
	sig     QuerySig // reusable signature for the Search(q)/SearchTopK(q) paths
}

// getScratch returns a scratch sized for the current collection. The
// visited array is only zeroed on (re)allocation and on epoch wrap-around —
// per-query cost is O(touched), not O(m).
func (ix *Index) getScratch() *searchScratch {
	sc, _ := ix.scratchPool.Get().(*searchScratch)
	if sc == nil {
		sc = &searchScratch{}
	}
	m := len(ix.records)
	if len(sc.visited) < m {
		sc.visited = make([]uint32, m)
		sc.counts = make([]int32, m)
		sc.hits = make([]uint64, (m+63)/64)
		sc.epoch = 0
	}
	return sc
}

// putScratch returns a scratch to the pool.
func (ix *Index) putScratch(sc *searchScratch) {
	ix.scratchPool.Put(sc)
}

// nextEpoch starts a fresh query on this scratch: every previous visited
// stamp is invalidated in O(1). Each query run (searchSigWith, topkSigWith)
// calls this once — a scratch held across a whole batch therefore still
// isolates its queries from one another.
func (sc *searchScratch) nextEpoch() {
	sc.epoch++
	if sc.epoch == 0 { // wrap: stale stamps could alias, clear once
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.epoch = 1
	}
}

// visit marks id as touched by the current query, resetting its count on
// first contact.
func (sc *searchScratch) visit(id int32) {
	if sc.visited[id] == sc.epoch {
		return
	}
	sc.visited[id] = sc.epoch
	sc.counts[id] = 0
	sc.touched = append(sc.touched, id)
}

// markHit records id as a threshold-search hit.
func (sc *searchScratch) markHit(id int32) {
	sc.hits[id>>6] |= 1 << (id & 63)
}

// drainHits calls emit on the first n hits in ascending id order and
// clears the whole bitset, leaving it ready for the next query.
func (sc *searchScratch) drainHits(n int, emit func(id int)) {
	for wi, w := range sc.hits {
		if w == 0 {
			continue
		}
		sc.hits[wi] = 0
		for ; w != 0 && n != 0; w &= w - 1 {
			emit(wi<<6 | bits.TrailingZeros64(w))
			n--
		}
	}
}
