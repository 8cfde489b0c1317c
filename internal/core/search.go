package core

import (
	"sort"

	"gbkmv/internal/dataset"
	"gbkmv/internal/gkmv"
	"gbkmv/internal/hash"
)

// Search returns the ids of all records whose estimated containment
// similarity C(Q, X) is at least tstar, using the inverted-index accelerated
// algorithm. Results are sorted ascending. It is equivalent to SearchLinear
// (Algorithm 2) but skips records that share no signature with the query.
//
// The query is sketched into pooled scratch memory, so steady-state calls
// allocate only the result slice.
func (ix *Index) Search(q dataset.Record, tstar float64) []int {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	ix.sketchInto(&sc.sig, q)
	return ix.searchSigWith(&sc.sig, tstar, sc)
}

// SearchSig is Search with a prebuilt query signature.
func (ix *Index) SearchSig(sig *QuerySig, tstar float64) []int {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	return ix.searchSigWith(sig, tstar, sc)
}

// searchSigWith runs the search over caller-provided scratch, the inner loop
// shared by SearchSig, Search and the per-worker batch paths.
func (ix *Index) searchSigWith(sig *QuerySig, tstar float64, sc *searchScratch) []int {
	sig.Stats = QueryStats{}
	theta := tstar * float64(sig.Size)
	if theta <= 0 {
		// Every record trivially satisfies the threshold.
		out := make([]int, len(ix.records))
		for i := range out {
			out[i] = i
		}
		return out
	}
	total := ix.collectHits(sig, theta, sc)
	out := make([]int, 0, total)
	sc.drainHits(total, func(id int) { out = append(out, id) })
	return out
}

// collectHits is the membership pass of threshold search, shared by
// searchSigWith and searchSigScoredWith: it marks every record whose
// estimate reaches θ in sc.hits and returns their number. Each candidate
// costs O(1) beyond its buffer AND, since its K∩ is already counted (see
// countedInter); the callers then emit hits in id order from the bitset,
// with no sort.
func (ix *Index) collectHits(sig *QuerySig, theta float64, sc *searchScratch) int {
	ix.gatherSearchCandidates(sig, theta, sc)
	sig.Stats.Candidates = len(sc.touched)
	// The paper's K∩ ≥ o prune (Section IV-B, "Implementation"): the
	// G-KMV estimate is D̂∩ = K∩·(k−1)/(k·U(k)) ≤ K∩/U(k), and U(k) — the
	// largest hash in L_Q ∪ L_X — is at least the largest hash of L_Q
	// alone. A candidate can only reach the remaining overlap need
	// θ − |H_Q ∩ H_X| if K∩ ≥ need·max(L_Q). The prune still pays: it
	// skips the arena loads an estimate needs.
	qMax := 0.0
	if hs := sig.sketch.Hashes(); len(hs) > 0 {
		qMax = hs[len(hs)-1]
	}
	total := 0
	for _, id := range sc.touched {
		exact := float64(ix.bufferOverlap(sig, int(id)))
		switch need := theta - exact; {
		case need <= 0:
			// The exact buffer part alone meets the threshold.
			sig.Stats.BufferAccepts++
		case float64(sc.counts[id]) < need*qMax:
			sig.Stats.PrunedByBound++
			continue
		default:
			sig.Stats.Estimated++
			if exact+ix.countedInter(sig, id, sc) < theta {
				continue
			}
		}
		sc.markHit(id)
		total++
	}
	return total
}

// countedInter is the G-KMV part D̂∩ of EstimateIntersection for a record
// the posting walk visited, computed from the K∩ it counted into sc.counts
// instead of by a merge. The count equals the merge's K∩: sc.counts[id]
// counts the elements of sig.rest whose posting list holds id, sig.rest is
// exactly Q's non-buffered elements with h ≤ τ, records are duplicate-free
// sets, and the posting lists mirror the arena runs (build, insert, shrink
// filter, load) — so under same element ⇔ same hash value, the assumption
// the K∩ prune already rests on, the result is bit-identical.
func (ix *Index) countedInter(sig *QuerySig, id int32, sc *searchScratch) float64 {
	return gkmv.IntersectCounted(sig.sketch, ix.arena.view(int(id)), int(sc.counts[id])).DInter
}

// gatherSearchCandidates accumulates into sc.touched every record that can
// possibly reach θ, with K∩ per candidate accumulated exactly in sc.counts.
// A record with zero buffer overlap and zero sketch overlap has estimate
// exactly 0 < θ, so only records appearing in at least one posting list can
// qualify (same element ⇔ same hash value, so the sketch-element walk counts
// K∩ exactly).
//
// A record with zero sketch overlap (K∩ = 0, so D̂∩ = 0) can still qualify
// through the exact buffer part when |H_Q ∩ H_X| ≥ θ. Such a record shares
// at least c = ⌈θ⌉ of the query's nq buffered bits, so — prefix-filter
// style — it must contain one of any fixed (nq − c + 1) of them. Scanning
// the nq−c+1 *rarest* query bits keeps this exact while skipping the head
// elements' huge lists; the rarity order comes from the index's cached
// bitOrder (refreshed by buildBufferPostings), so no per-query sort is paid.
// A slightly stale order after inserts changes only which equally-valid
// candidate superset is scanned, never the final results.
func (ix *Index) gatherSearchCandidates(sig *QuerySig, theta float64, sc *searchScratch) {
	ix.walkPostings(sig, sc)
	if sig.buffer != nil {
		nq := sig.buffer.Count()
		c := int(theta)
		if float64(c) < theta {
			c++ // ⌈θ⌉
		}
		if c >= 1 && c <= nq {
			remaining := nq - c + 1
			for _, bit := range ix.bitOrder {
				if !sig.buffer.Get(int(bit)) {
					continue
				}
				for _, id := range ix.bufferPostings[bit] {
					sc.visit(id)
				}
				if remaining--; remaining == 0 {
					break
				}
			}
		}
	}
}

// walkPostings starts a query run on sc and visits every record sharing a
// sketch element with the query, counting K∩ exactly into sc.counts.
func (ix *Index) walkPostings(sig *QuerySig, sc *searchScratch) {
	sc.nextEpoch()
	sc.touched = sc.touched[:0]
	for _, e := range sig.rest {
		for _, id := range ix.postings.get(e) {
			sc.visit(id)
			sc.counts[id]++
		}
	}
}

// SearchLinear is the plain Algorithm 2 of the paper: it scans every record,
// estimates |Q ∩ X| by Equation 27 and keeps records meeting θ = t*·|Q|.
// Results are sorted ascending. It exists as the reference implementation
// for Search and for the ablation benchmarks.
func (ix *Index) SearchLinear(q dataset.Record, tstar float64) []int {
	sig := ix.Sketch(q)
	theta := tstar * float64(sig.Size)
	out := []int{}
	for i := range ix.records {
		if ix.EstimateIntersection(sig, i) >= theta {
			out = append(out, i)
		}
	}
	return out
}

// AddRecord appends a record to the index under the fixed space budget
// ("Processing Dynamic Data", Section IV-B): the global threshold is
// recomputed for the enlarged dataset and every sketch is trimmed to the new
// (never larger) threshold. The buffered element set E_H is kept fixed; a
// full rebuild refreshes it.
func (ix *Index) AddRecord(rec dataset.Record) {
	ix.AddRecords([]dataset.Record{rec})
}

// AddRecords appends a batch of records, paying the over-budget threshold
// shrink at most once for the whole batch instead of once per record. The
// path is hash-once end to end: each new element is hashed exactly once, the
// pairs feed both the arena run and the posting lists, and a shrink trims
// existing runs in place (arena prefixes) instead of resketching the
// collection.
func (ix *Index) AddRecords(recs []dataset.Record) {
	if len(recs) == 0 {
		// Never mutate on a no-op: a residual over-budget state (hash ties
		// at the cut) must not trigger a shrink here, or an insert-free
		// reload would answer differently than the index it saved.
		return
	}
	base := len(ix.records)
	// One hashing pass per new record; the (element, hash) pairs are kept so
	// the postings update below never rehashes.
	newElems := make([][]hash.Element, len(recs))
	newHashes := make([][]float64, len(recs))
	ix.bufArena.grow(len(recs))
	for ri, rec := range recs {
		ix.records = append(ix.records, rec)
		elems := make([]hash.Element, 0, len(rec))
		hashes := make([]float64, 0, len(rec))
		for _, e := range rec {
			if bit, ok := ix.bitOf[e]; ok {
				ix.bufArena.set(base+ri, bit)
				continue
			}
			elems = append(elems, e)
			hashes = append(hashes, hash.UnitHash(e, ix.opt.Seed))
		}
		run := make([]float64, 0, len(hashes))
		for _, v := range hashes {
			if v <= ix.tau {
				run = append(run, v)
			}
		}
		sort.Float64s(run)
		ix.arena.appendRun(run, len(run) == len(elems))
		newElems[ri], newHashes[ri] = elems, hashes
		ix.elementsHashed.Add(uint64(len(hashes)))
	}
	if over := ix.UsedUnits() - ix.budget; over > 0 {
		// The shrink lowers τ and filters existing state; the new records'
		// runs are already in the arena, so they are trimmed with everything
		// else. Their postings are added below under the (possibly lower) τ.
		ix.shrinkThreshold(over)
	}
	// Maintain the inverted lists incrementally from the retained pairs.
	for ri := range recs {
		id := int32(base + ri)
		hashes := newHashes[ri]
		for j, e := range newElems[ri] {
			if hashes[j] <= ix.tau {
				ix.postings.add(e, id)
			}
		}
		if ix.bufArena.stride > 0 {
			ix.bufArena.forEachSetBit(int(id), func(bit int) {
				ix.bufferPostings[bit] = append(ix.bufferPostings[bit], id)
			})
		}
	}
}

// shrinkThreshold lowers τ just enough to evict `over` stored hash values,
// then trims every run and filters the posting lists under the new
// threshold, reporting whether anything changed. It returns false — leaving
// the index exactly as it was — when no hash values are stored at all: then
// the overshoot is pure buffer cost (which grows with the record count and
// cannot shrink), and the over-budget state is accepted rather than paying a
// rebuild per insert, or worse, panicking.
//
// No element is rehashed: the new τ is an order statistic of the stored
// multiset (streamed through the same histogram selection the build uses),
// runs shrink to their ascending prefixes, and the posting filter hashes one
// value per distinct element key rather than one per occurrence.
func (ix *Index) shrinkThreshold(over int) bool {
	total := ix.arena.units()
	if total == 0 {
		return false
	}
	keep := total - over
	if keep < 1 {
		keep = 1
	}
	// The new τ is the keep-th smallest stored hash value. τ is a value
	// threshold and identical elements share a hash, so a tie run at the cut
	// stays whole: the index can settle slightly over budget. Crucially the
	// new τ depends only on the stored multiset and keep — never on the
	// insertion grouping — so batched and sequential inserts (and hence
	// journal replay) converge on identical state. When the cut lands
	// exactly on the current τ the "shrink" is a no-op; skip it rather than
	// repeating it on every insert while the tie run holds the line.
	cut := kthSmallest([][]float64{ix.arena.hashes}, keep, ix.tau)
	if cut == ix.tau {
		return false
	}
	ix.tau = cut
	ix.arena.trimToTau(cut)
	ix.filterPostings(cut)
	ix.shrinks.Add(1)
	return true
}
