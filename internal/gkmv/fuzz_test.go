package gkmv

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"gbkmv/internal/hash"
)

// hashesFromBytes derives a strictly ascending slice of unit-interval hash
// values from fuzz input: each byte seeds one value through the repository's
// own hash, then the slice is sorted and deduplicated. This mirrors real
// sketch runs, which are ascending and duplicate-free (the element hash is a
// per-seed bijection).
func hashesFromBytes(b []byte, seed uint64) []float64 {
	hs := make([]float64, 0, len(b))
	for i, x := range b {
		hs = append(hs, hash.UnitHash(hash.Element(uint64(x)<<8|uint64(i&0xFF)), seed))
	}
	sort.Float64s(hs)
	out := hs[:0]
	for i, v := range hs {
		if i == 0 || v != hs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// FuzzIntersectViews cross-checks the merge-based union statistics behind
// IntersectViews against a naive map-based oracle, over arbitrary ascending
// hash runs and completeness flags, and pins IntersectCounted, given the
// oracle's K∩, bit-identical to IntersectViews. CI runs this briefly
// (-fuzz FuzzIntersectViews -fuzztime 15s) on every push.
func FuzzIntersectViews(f *testing.F) {
	f.Add([]byte{}, []byte{}, false, false)
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, true, true)
	f.Add([]byte{0, 0, 0, 7}, []byte{7}, true, false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{}, false, true)
	f.Fuzz(func(t *testing.T, ab, bb []byte, compA, compB bool) {
		a := hashesFromBytes(ab, 11)
		b := hashesFromBytes(bb, 11)
		got := IntersectViews(MakeView(a, compA), MakeView(b, compB))

		// Map-based oracle for k = |A ∪ B|, K∩ = |A ∩ B|, U(k) = max.
		union := map[float64]int{}
		for _, v := range a {
			union[v] |= 1
		}
		for _, v := range b {
			union[v] |= 2
		}
		k, kInter, uk := 0, 0, 0.0
		for v, mask := range union {
			k++
			if mask == 3 {
				kInter++
			}
			if v > uk {
				uk = v
			}
		}
		if got.K != k || got.KInter != kInter {
			t.Fatalf("K=%d KInter=%d, oracle K=%d KInter=%d", got.K, got.KInter, k, kInter)
		}
		if k > 0 && got.UK != uk {
			t.Fatalf("UK=%v, oracle %v", got.UK, uk)
		}

		// The estimator identities on top of the merge stats.
		wantExact := compA && compB
		if got.Exact != wantExact {
			t.Fatalf("Exact=%v, want %v", got.Exact, wantExact)
		}
		switch {
		case wantExact:
			if got.DUnion != float64(k) || got.DInter != float64(kInter) {
				t.Fatalf("exact path: DUnion=%v DInter=%v, want %d %d", got.DUnion, got.DInter, k, kInter)
			}
		case k >= 2 && uk > 0:
			wantDU := float64(k-1) / uk
			wantDI := float64(kInter) / float64(k) * wantDU
			if math.Abs(got.DUnion-wantDU) > 1e-12 || math.Abs(got.DInter-wantDI) > 1e-12 {
				t.Fatalf("DUnion=%v DInter=%v, want %v %v", got.DUnion, got.DInter, wantDU, wantDI)
			}
		default:
			if got.DUnion != 0 || got.DInter != 0 {
				t.Fatalf("degenerate case should estimate 0, got DUnion=%v DInter=%v", got.DUnion, got.DInter)
			}
		}

		// The counted estimator, handed the oracle's K∩, must reproduce the
		// merge bit for bit under every completeness combination.
		for _, comp := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
			va, vb := MakeView(a, comp[0]), MakeView(b, comp[1])
			if err := sameIntersection(IntersectCounted(va, vb, kInter), IntersectViews(va, vb)); err != "" {
				t.Fatalf("complete=%v: IntersectCounted differs from IntersectViews: %s", comp, err)
			}
		}

		// The top-k pruning bound the core search relies on: with qMax the
		// largest hash of A (the query side), DInter ≤ K∩/qMax.
		if len(a) > 0 && got.KInter > 0 {
			if qMax := a[len(a)-1]; got.DInter > float64(got.KInter)/qMax+1e-9 {
				t.Fatalf("prune bound violated: DInter=%v > K∩/qMax=%v", got.DInter, float64(got.KInter)/qMax)
			}
		}
	})
}

// sameIntersection describes the first field in which got and want differ,
// comparing floats by their bits, or returns "" when they are identical.
func sameIntersection(got, want Intersection) string {
	switch {
	case got.K != want.K || got.KInter != want.KInter || got.Exact != want.Exact:
		return fmt.Sprintf("K=%d KInter=%d Exact=%v, want %d %d %v", got.K, got.KInter, got.Exact, want.K, want.KInter, want.Exact)
	case math.Float64bits(got.UK) != math.Float64bits(want.UK):
		return fmt.Sprintf("UK=%v, want %v", got.UK, want.UK)
	case math.Float64bits(got.DUnion) != math.Float64bits(want.DUnion):
		return fmt.Sprintf("DUnion=%v, want %v", got.DUnion, want.DUnion)
	case math.Float64bits(got.DInter) != math.Float64bits(want.DInter):
		return fmt.Sprintf("DInter=%v, want %v", got.DInter, want.DInter)
	}
	return ""
}
