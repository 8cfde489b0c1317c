// Package gkmv implements the G-KMV sketch: a KMV sketch with a global hash
// threshold τ (Section IV-A(2) of the paper). Every record keeps *all* hash
// values below τ under one shared hash function. Because the threshold is
// global, the k-th smallest hash value of L_Q ∪ L_X is guaranteed to be the
// k-th smallest hash value of h(Q ∪ X) (Theorem 2), which legitimizes using
//
//	k = |L_Q ∪ L_X|   (Equation 24)
//
// in the KMV estimator — typically far larger than the min(k_Q, k_X) the
// plain KMV sketch is restricted to (Equation 8), and therefore far more
// accurate (Theorem 3).
package gkmv

import (
	"errors"
	"sort"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/selectk"
)

// View is a read-only G-KMV sketch over externally owned memory: an ascending
// run of unit hash values plus the completeness flag. It is the currency of
// the flat-arena signature store — the core index packs every record's run
// into one shared []float64 and hands out Views, so Intersect and the
// estimators walk contiguous memory with no per-record pointer chase. A View
// is a small value (slice header + bool); copy it freely. The underlying run
// must stay ascending and unmodified while any View of it is in use.
type View struct {
	hashes   []float64
	complete bool
}

// MakeView wraps an ascending hash run. complete flags that the run covers
// every element of the sketched record (all hashed below τ).
func MakeView(hashes []float64, complete bool) View {
	return View{hashes: hashes, complete: complete}
}

// K returns the number of stored hash values.
func (v View) K() int { return len(v.hashes) }

// Complete reports whether every element of the record hashed below τ, in
// which case the view is a lossless copy of the record's hash set.
func (v View) Complete() bool { return v.complete }

// Hashes returns the stored values ascending; the slice is owned by the
// backing store.
func (v View) Hashes() []float64 { return v.hashes }

// DistinctEstimate returns the Beyer et al. estimator (k−1)/U(k) of the
// number of distinct elements in the sketched record — exact when the
// sketch is complete. A G-KMV sketch is a valid KMV sketch of its record
// with k = |L_X| (Theorem 2 with Y = ∅), so the estimator applies directly.
func (v View) DistinctEstimate() float64 {
	if v.complete {
		return float64(len(v.hashes))
	}
	k := len(v.hashes)
	if k < 2 || v.hashes[k-1] == 0 {
		return float64(k)
	}
	return float64(k-1) / v.hashes[k-1]
}

// Sketch is a G-KMV synopsis: all unit hash values of the record's elements
// that fall below the global threshold, sorted ascending.
type Sketch struct {
	view View
	tau  float64
}

// Build constructs the G-KMV sketch of a record under threshold tau. All
// sketches that are compared must share both seed and tau.
func Build(r dataset.Record, tau float64, seed uint64) *Sketch {
	hs, complete := BuildHashes(r, tau, seed)
	return &Sketch{view: MakeView(hs, complete), tau: tau}
}

// BuildHashes computes the raw sketch of a record under threshold tau: the
// ascending run of unit hash values ≤ tau, plus whether the run covers every
// element. This is the arena-filling primitive — callers that pack many
// records into one flat store use it directly and wrap runs in Views.
func BuildHashes(r dataset.Record, tau float64, seed uint64) ([]float64, bool) {
	if tau < 0 || tau > 1 {
		panic("gkmv: threshold must be in [0, 1]")
	}
	hs := make([]float64, 0, int(float64(len(r))*tau)+1)
	for _, e := range r {
		if v := hash.UnitHash(e, seed); v <= tau {
			hs = append(hs, v)
		}
	}
	sort.Float64s(hs)
	return hs, len(hs) == len(r)
}

// K returns the number of stored hash values.
func (s *Sketch) K() int { return s.view.K() }

// Tau returns the global threshold the sketch was built with.
func (s *Sketch) Tau() float64 { return s.tau }

// Complete reports whether every element of the record hashed below τ, in
// which case the sketch is a lossless copy of the record's hash set.
func (s *Sketch) Complete() bool { return s.view.complete }

// Hashes returns the stored values ascending; the slice is owned by the
// sketch.
func (s *Sketch) Hashes() []float64 { return s.view.hashes }

// View returns the sketch's hash run as a View.
func (s *Sketch) View() View { return s.view }

// SizeBytes returns the in-memory footprint of the stored signature.
func (s *Sketch) SizeBytes() int { return 8 * s.view.K() }

// DistinctEstimate returns the distinct-element estimate of the sketched
// record; see View.DistinctEstimate.
func (s *Sketch) DistinctEstimate() float64 { return s.view.DistinctEstimate() }

// Intersection carries the quantities of the G-KMV estimator.
type Intersection struct {
	K      int     // |L_Q ∪ L_X| (Equation 24)
	KInter int     // |L_Q ∩ L_X|
	UK     float64 // largest hash value in L_Q ∪ L_X
	DUnion float64 // (k−1)/U(k)
	DInter float64 // Equation 25
	Exact  bool    // both sketches complete → DInter exact
}

// Intersect estimates |A ∩ B| with the G-KMV estimator (Equations 24–25).
func Intersect(a, b *Sketch) Intersection {
	return IntersectViews(a.view, b.view)
}

// IntersectViews is Intersect over arena-backed views: the same estimator,
// run directly on two ascending hash runs.
func IntersectViews(a, b View) Intersection {
	k, kInter, uk := unionStats(a.hashes, b.hashes)
	return estimate(k, kInter, uk, a.complete && b.complete)
}

// IntersectCounted is IntersectViews for a caller that already knows
// K∩ = |L_a ∩ L_b|, such as an inverted-index walk that counted the shared
// elements: k = |L_a| + |L_b| − K∩ and U(k) is the larger of the two runs'
// last values, so no merge is run. Given the true K∩ it returns every field
// bit-identical to IntersectViews.
func IntersectCounted(a, b View, kInter int) Intersection {
	uk := 0.0
	if n := len(a.hashes); n > 0 {
		uk = a.hashes[n-1]
	}
	if n := len(b.hashes); n > 0 && b.hashes[n-1] > uk {
		uk = b.hashes[n-1]
	}
	return estimate(len(a.hashes)+len(b.hashes)-kInter, kInter, uk, a.complete && b.complete)
}

// estimate applies Equations 24–25 to the union statistics: exact counts
// when both sketches are complete, the KMV estimators otherwise.
func estimate(k, kInter int, uk float64, exact bool) Intersection {
	res := Intersection{K: k, KInter: kInter, UK: uk, Exact: exact}
	if exact {
		res.DUnion = float64(k)
		res.DInter = float64(kInter)
		return res
	}
	if k >= 2 && uk > 0 {
		res.DUnion = float64(k-1) / uk
		res.DInter = float64(kInter) / float64(k) * res.DUnion
	}
	return res
}

// unionStats merges two ascending hash slices, returning the distinct-union
// size, the intersection size, and the maximum value.
func unionStats(a, b []float64) (k, kInter int, uk float64) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			uk = a[i]
			i++
		case a[i] > b[j]:
			uk = b[j]
			j++
		default:
			uk = a[i]
			kInter++
			i++
			j++
		}
		k++
	}
	for ; i < len(a); i++ {
		uk = a[i]
		k++
	}
	for ; j < len(b); j++ {
		uk = b[j]
		k++
	}
	return k, kInter, uk
}

// ContainmentEstimate estimates C(Q, X) = |Q ∩ X| / |Q| (Equation 26).
func ContainmentEstimate(q, x *Sketch, qSize int) float64 {
	if qSize <= 0 {
		return 0
	}
	return Intersect(q, x).DInter / float64(qSize)
}

// ExpectedThreshold returns the expectation-based threshold τ = b/N of the
// paper's analysis (Theorem 3 proof): with N total element occurrences and a
// budget of b stored hash values, each element is kept with probability τ.
func ExpectedThreshold(budget, totalElements int) float64 {
	if totalElements <= 0 {
		return 1
	}
	tau := float64(budget) / float64(totalElements)
	if tau > 1 {
		tau = 1
	}
	return tau
}

// ThresholdForBudget computes the largest τ such that the total number of
// stored hash values across the dataset does not exceed budget — the "Line 3
// of Algorithm 1" step. It hashes every occurrence once and selects the
// budget-th smallest value, so the budget is met exactly (up to ties).
func ThresholdForBudget(d *dataset.Dataset, budget int, seed uint64) (float64, error) {
	if d == nil || len(d.Records) == 0 {
		return 0, errors.New("gkmv: empty dataset")
	}
	if budget <= 0 {
		return 0, errors.New("gkmv: budget must be positive")
	}
	all := make([]float64, 0, d.TotalElements())
	for _, r := range d.Records {
		for _, e := range r {
			all = append(all, hash.UnitHash(e, seed))
		}
	}
	if budget >= len(all) {
		return 1, nil
	}
	// Only the budget-th smallest value is needed: quickselect, not sort.
	return selectk.Float64s(all, budget-1), nil
}

// BuildAll builds the G-KMV sketch of every record in the dataset under a
// shared threshold.
func BuildAll(d *dataset.Dataset, tau float64, seed uint64) []*Sketch {
	out := make([]*Sketch, len(d.Records))
	for i, r := range d.Records {
		out[i] = Build(r, tau, seed)
	}
	return out
}
