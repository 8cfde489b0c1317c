package core

// SearchSigScored is SearchSig with each hit's containment estimate
// attached: records meeting θ = tstar·|Q| are returned as (id, estimate)
// pairs in ascending id order, together with the total qualifying count.
// limit > 0 caps the hits that are materialized (the total still counts
// everything).
//
// The point of the combined form is that the serving layer does not
// re-estimate each returned id after Search: the membership pass decides
// every candidate from its counted K∩, and only the materialized page is
// then scored, with the same O(1) estimator.
func (ix *Index) SearchSigScored(sig *QuerySig, tstar float64, limit int) ([]Scored, int) {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	return ix.searchSigScoredWith(sig, tstar, limit, sc)
}

// searchSigScoredWith runs the scored search over caller-provided scratch.
// It is result-equivalent to searchSigWith followed by EstimateContainment
// on each returned id (the differential tests pin this).
func (ix *Index) searchSigScoredWith(sig *QuerySig, tstar float64, limit int, sc *searchScratch) ([]Scored, int) {
	sig.Stats = QueryStats{}
	size := float64(sig.Size)
	theta := tstar * size
	total := len(ix.records) // every record trivially satisfies θ ≤ 0
	if theta > 0 {
		total = ix.collectHits(sig, theta, sc)
	}
	n := total
	if limit > 0 {
		n = min(n, limit)
	}
	out := make([]Scored, 0, n)
	if theta <= 0 {
		// Estimate only the materialized page, never O(N).
		for i := 0; i < n; i++ {
			out = append(out, Scored{ID: i, Score: ix.EstimateContainment(sig, i)})
		}
		return out, total
	}
	sc.drainHits(n, func(id int) {
		est := (float64(ix.bufferOverlap(sig, id)) + ix.countedInter(sig, int32(id), sc)) / size
		out = append(out, Scored{ID: id, Score: min(est, 1)})
	})
	return out, total
}
