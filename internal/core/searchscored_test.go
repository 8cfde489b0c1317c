package core

import (
	"slices"
	"testing"

	"gbkmv/internal/dataset"
)

// TestSearchSigScoredMatchesSearchPlusEstimate pins the scored search to its
// decomposed reference: SearchSigScored(t*, limit) must return exactly the
// records whose merge-based EstimateIntersection reaches θ (ascending,
// truncated at limit), report the full qualifying count as total, and score
// every returned hit bit-identically to EstimateContainment. It runs across
// buffer configurations, thresholds and limits, after dynamic inserts (a
// possibly shrunk τ), after a Save/Load round trip, and on the skewed
// 2000-record corpus, whose hits span many words of the hit bitset.
func TestSearchSigScoredMatchesSearchPlusEstimate(t *testing.T) {
	d := testDataset(t, 250)
	queries := d.SampleQueries(10, 9)
	extra, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 40, Universe: 4000,
		AlphaFreq: 1.1, AlphaSize: 2.2,
		MinSize: 40, MaxSize: 300,
	}, 123)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{BudgetFraction: 0.1, BufferBits: AutoBuffer, Seed: testSeed},
		{BudgetFraction: 0.08, BufferBits: 0 /* no buffer */, Seed: testSeed + 1},
		{BudgetFraction: 0.3, BufferBits: 128, Seed: testSeed + 2},
	} {
		ix, err := BuildIndex(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkScored(t, ix, queries, "built")
		// Inserts under a tight budget trigger a threshold shrink and leave
		// the cached bitOrder slightly stale — the scored walk must stay
		// equivalent through both, and through a reload.
		ix.AddRecords(extra.Records)
		checkScored(t, ix, queries, "after-insert")
		checkScored(t, reload(t, ix), queries, "reloaded")
	}

	skewed := skewedCorpus(t)
	ix, err := BuildIndex(skewed, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	queries = diffQueries(ix, skewed, 16, 6)
	if wide := checkScored(t, ix, queries, "skewed"); wide == 0 {
		t.Fatal("no skewed query had more than 65 hits; the limits never cut mid-bitset")
	}
	checkScored(t, reload(t, ix), queries, "skewed-reloaded")
}

// checkScored runs every query through one held scratch, so a bitset word
// left uncleared by one search would corrupt the next, and compares
// searchSigWith and searchSigScoredWith with a merge-based reference at
// limits that cut inside and at the edges of 64-bit words. It returns how
// many searches had more than 65 hits.
func checkScored(t *testing.T, ix *Index, queries []dataset.Record, stage string) (wide int) {
	t.Helper()
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	for qi, q := range queries {
		sig := ix.Sketch(q)
		for _, tstar := range []float64{0, 0.2, 0.5, 0.9} {
			theta := tstar * float64(sig.Size)
			var want []int
			for i := range ix.records {
				if theta <= 0 || ix.EstimateIntersection(sig, i) >= theta {
					want = append(want, i)
				}
			}
			if len(want) > 65 {
				wide++
			}
			if ids := ix.searchSigWith(sig, tstar, sc); !slices.Equal(ids, want) {
				t.Fatalf("%s q%d t*=%v: SearchSig %v, want %v", stage, qi, tstar, ids, want)
			}
			// The page cuts run last, so a search that stopped clearing at its
			// cut leaves stale words for the next threshold or query.
			for _, limit := range []int{0, len(want) + 1, len(want), 100, 65, 64, 63, 1} {
				scored, total := ix.searchSigScoredWith(sig, tstar, limit, sc)
				if total != len(want) {
					t.Fatalf("%s q%d t*=%v limit=%d: total %d, want %d",
						stage, qi, tstar, limit, total, len(want))
				}
				if st := sig.Stats; st.Candidates != st.PrunedByBound+st.Estimated+st.BufferAccepts {
					t.Fatalf("%s q%d t*=%v: stats %+v do not add up to the candidates", stage, qi, tstar, st)
				}
				page := want
				if limit > 0 && len(page) > limit {
					page = page[:limit]
				}
				if len(scored) != len(page) {
					t.Fatalf("%s q%d t*=%v limit=%d: %d hits, want %d",
						stage, qi, tstar, limit, len(scored), len(page))
				}
				for i, s := range scored {
					if s.ID != page[i] {
						t.Fatalf("%s q%d t*=%v limit=%d: hit %d id %d, want %d",
							stage, qi, tstar, limit, i, s.ID, page[i])
					}
					if est := ix.EstimateContainment(sig, s.ID); s.Score != est {
						t.Fatalf("%s q%d t*=%v: id %d scored %v, EstimateContainment %v",
							stage, qi, tstar, s.ID, s.Score, est)
					}
				}
			}
		}
	}
	return wide
}
