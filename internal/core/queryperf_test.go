package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/gkmv"
	"gbkmv/internal/hash"
)

// Allocation-regression tests: the arena + pooled-scratch query path must
// stay steady-state allocation-free apart from its result slice. These
// guard the flat-layout refactor against quietly regressing back to
// per-query O(m) scratch allocation.

func allocFixture(t *testing.T) (*Index, []dataset.Record) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (instrumented allocs, lossy sync.Pool)")
	}
	d := testDataset(t, 400)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	return ix, d.SampleQueries(16, 5)
}

func TestSearchSigAllocs(t *testing.T) {
	ix, queries := allocFixture(t)
	sig := ix.Sketch(queries[0])
	for i := 0; i < 4; i++ { // warm the scratch pool and its buffers
		ix.SearchSig(sig, 0.5)
	}
	if got := testing.AllocsPerRun(100, func() { ix.SearchSig(sig, 0.5) }); got > 2 {
		t.Errorf("SearchSig allocates %.1f per call, want ≤ 2", got)
	}
}

func TestSearchSigScoredAllocs(t *testing.T) {
	// The server's search path: hits come out of the scratch bitset, so the
	// only allocation is the page, sized to the limit, not the candidates.
	ix, queries := allocFixture(t)
	sig := ix.Sketch(queries[0])
	for i := 0; i < 4; i++ {
		ix.SearchSigScored(sig, 0.5, 100)
	}
	if got := testing.AllocsPerRun(100, func() { ix.SearchSigScored(sig, 0.5, 100) }); got > 2 {
		t.Errorf("SearchSigScored allocates %.1f per call, want ≤ 2", got)
	}
	if hits, _ := ix.SearchSigScored(sig, 0.5, 100); cap(hits) > 100 {
		t.Errorf("SearchSigScored page has capacity %d, want ≤ limit 100", cap(hits))
	}
}

func TestSearchTopKSigAllocs(t *testing.T) {
	ix, queries := allocFixture(t)
	sig := ix.Sketch(queries[0])
	for i := 0; i < 4; i++ {
		ix.SearchTopKSig(sig, 10)
	}
	if got := testing.AllocsPerRun(100, func() { ix.SearchTopKSig(sig, 10) }); got > 2 {
		t.Errorf("SearchTopKSig allocates %.1f per call, want ≤ 2", got)
	}
}

func TestSketchAndSearchAllocs(t *testing.T) {
	// The raw-record entry points sketch into pooled scratch as well, so a
	// server answering Search(q) pays only for the result slice.
	ix, queries := allocFixture(t)
	for i := 0; i < 4; i++ {
		ix.Search(queries[0], 0.5)
		ix.SearchTopK(queries[0], 10)
	}
	if got := testing.AllocsPerRun(100, func() { ix.Search(queries[0], 0.5) }); got > 2 {
		t.Errorf("Search allocates %.1f per call, want ≤ 2", got)
	}
	if got := testing.AllocsPerRun(100, func() { ix.SearchTopK(queries[0], 10) }); got > 2 {
		t.Errorf("SearchTopK allocates %.1f per call, want ≤ 2", got)
	}
}

// refSketches is the pre-refactor signature store: one heap-allocated G-KMV
// sketch per record, built from the record's non-buffered elements under the
// index's live threshold. The differential tests below pin the arena-backed
// estimators to this path bit for bit.
func refSketches(ix *Index) []*gkmv.Sketch {
	out := make([]*gkmv.Sketch, len(ix.records))
	for i, rec := range ix.records {
		rest := rec[:0:0]
		for _, e := range rec {
			if _, buffered := ix.bitOf[e]; !buffered {
				rest = append(rest, e)
			}
		}
		out[i] = gkmv.Build(rest, ix.tau, ix.opt.Seed)
	}
	return out
}

// refEstimate is Equation 27 over the slice-of-sketches reference store.
func refEstimate(ix *Index, refs []*gkmv.Sketch, sig *QuerySig, refQ *gkmv.Sketch, i int) float64 {
	exact := 0
	if sig.buffer != nil && ix.bufArena.stride > 0 {
		exact = sig.buffer.AndCountWords(ix.bufArena.record(i))
	}
	return float64(exact) + gkmv.Intersect(refQ, refs[i]).DInter
}

// refTopK is the pre-refactor top-k: score every record, drop zeros, sort by
// (score desc, id asc), truncate.
func refTopK(ix *Index, sig *QuerySig, k int) []Scored {
	scored := []Scored{}
	for i := range ix.records {
		if s := ix.EstimateContainment(sig, i); s > 0 {
			scored = append(scored, Scored{ID: i, Score: s})
		}
	}
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].Score != scored[b].Score {
			return scored[a].Score > scored[b].Score
		}
		return scored[a].ID < scored[b].ID
	})
	if len(scored) > k {
		scored = scored[:k]
	}
	return scored
}

// checkDifferential asserts Search == SearchLinear, TopK == reference top-k,
// and arena estimates == slice-of-sketches estimates, bit-identically.
func checkDifferential(t *testing.T, ix *Index, queries []dataset.Record, label string) {
	t.Helper()
	refs := refSketches(ix)
	for qi, q := range queries {
		sig := ix.Sketch(q)
		refQ := gkmv.Build(sig.rest, ix.tau, ix.opt.Seed)
		for i := range ix.records {
			got := ix.EstimateIntersection(sig, i)
			want := refEstimate(ix, refs, sig, refQ, i)
			if got != want {
				t.Fatalf("%s: q%d record %d: arena estimate %v != reference %v", label, qi, i, got, want)
			}
		}
		for _, tstar := range []float64{0.2, 0.5, 0.8} {
			got := ix.SearchSig(sig, tstar)
			want := ix.SearchLinear(q, tstar)
			if len(got) != len(want) {
				t.Fatalf("%s: q%d t*=%v: Search %d results, SearchLinear %d", label, qi, tstar, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: q%d t*=%v: result %d is %d, want %d", label, qi, tstar, i, got[i], want[i])
				}
			}
		}
		// A halved |Q| override clamps many scores to 1, so the tie rule on
		// ascending id decides the top-k there.
		half := sig.Clone()
		half.Size = (sig.Size + 1) / 2
		for _, s := range []*QuerySig{sig, half} {
			for _, k := range []int{1, 5, 10, 50, 100, len(ix.records) + 1} {
				if err := diffTopK(ix, s, k); err != nil {
					t.Fatalf("%s: q%d |Q|=%d: %v", label, qi, s.Size, err)
				}
			}
		}
	}
}

// diffTopK reports the first difference between SearchTopKSig and refTopK.
func diffTopK(ix *Index, sig *QuerySig, k int) error {
	got := ix.SearchTopKSig(sig, k)
	want := refTopK(ix, sig, k)
	if len(got) != len(want) {
		return fmt.Errorf("k=%d: %d results, want %d", k, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("k=%d: result %d = %+v, want %+v", k, i, got[i], want[i])
		}
	}
	return nil
}

// diffQueries is the differential query set: n sampled records, plus
// queries made only of buffered elements (empty rest) and sampled records
// stripped of every buffered element (no buffer bits).
func diffQueries(ix *Index, d *dataset.Dataset, n int, seed int64) []dataset.Record {
	queries := d.SampleQueries(n, seed)
	if buf := ix.BufferElements(); len(buf) > 0 {
		head := buf[:min(len(buf), 6)]
		queries = append(queries, dataset.NewRecord(head))
		var spread []hash.Element
		for i := 0; i < len(buf); i += 3 {
			spread = append(spread, buf[i])
		}
		queries = append(queries, dataset.NewRecord(spread))
	}
	for _, q := range d.SampleQueries(n/2+1, seed+7) {
		var rest dataset.Record
		for _, e := range q {
			if _, buffered := ix.bitOf[e]; !buffered {
				rest = append(rest, e)
			}
		}
		if len(rest) > 0 {
			queries = append(queries, rest)
		}
	}
	return queries
}

func TestArenaDifferentialAgainstReference(t *testing.T) {
	for _, seed := range []int64{3, 77, 991} {
		d, err := dataset.Synthetic(dataset.SyntheticConfig{
			NumRecords: 250, Universe: 5000,
			AlphaFreq: 1.1, AlphaSize: 2.2,
			MinSize: 20, MaxSize: 300,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildIndex(d, defaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		queries := diffQueries(ix, d, 8, seed+1)
		checkDifferential(t, ix, queries, "fresh")

		// Force an over-budget threshold shrink via a batch insert, then
		// re-verify: the rebuilt arena must still mirror the reference.
		tauBefore := ix.Tau()
		extra, err := dataset.Synthetic(dataset.SyntheticConfig{
			NumRecords: 120, Universe: 5000,
			AlphaFreq: 1.1, AlphaSize: 2.2,
			MinSize: 20, MaxSize: 300,
		}, seed+2)
		if err != nil {
			t.Fatal(err)
		}
		ix.AddRecords(extra.Records)
		if ix.Tau() >= tauBefore {
			t.Fatalf("seed %d: batch insert did not shrink τ (%v → %v); fixture too small", seed, tauBefore, ix.Tau())
		}
		checkDifferential(t, ix, queries, "post-shrink")

		// And once more through a Save/Load round trip of the arena wire.
		checkDifferential(t, reload(t, ix), queries, "reloaded")
	}
}

// TestTopKDifferentialSkewed runs the differential suite on a skewed corpus
// large enough that top-k's buffer walk stops early, and proves it does: a
// top-10 query touches fewer records than the index holds, and fewer than
// score above zero (each of which a full walk would touch). It then makes
// the cached bitOrder stale with inserts that lengthen the rarest buffered
// bits' posting lists, and checks again before and after a Save/Load.
func TestTopKDifferentialSkewed(t *testing.T) {
	d := skewedCorpus(t)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	queries := diffQueries(ix, d, 16, 6)
	early := 0
	for _, q := range queries {
		sig := ix.Sketch(q)
		ix.SearchTopKSig(sig, 10)
		nonzero := len(refTopK(ix, sig, ix.NumRecords()))
		if st := sig.Stats; st.Candidates < ix.NumRecords() && st.Candidates < nonzero {
			early++
		}
	}
	if early*2 <= len(queries) {
		t.Fatalf("top-10 stopped early on %d of %d queries, want most", early, len(queries))
	}
	checkDifferential(t, ix, queries, "skewed")

	// Records holding the four rarest buffered elements make those bits'
	// posting lists the longest, so the cached rarest-first order is stale.
	rare := make([]hash.Element, 4)
	for i := range rare {
		rare[i] = ix.bufferElems[ix.bitOrder[i]]
	}
	var extra []dataset.Record
	for i, q := range d.SampleQueries(300, 8) {
		extra = append(extra, dataset.NewRecord(append(append([]hash.Element(nil), q[:min(len(q), 10)]...), rare[:1+i%4]...)))
	}
	ix.AddRecords(extra)
	stale := false
	for i := 1; i < len(ix.bitOrder); i++ {
		if len(ix.bufferPostings[ix.bitOrder[i-1]]) > len(ix.bufferPostings[ix.bitOrder[i]]) {
			stale = true
			break
		}
	}
	if !stale {
		t.Fatal("inserts left bitOrder sorted; fixture does not exercise a stale order")
	}
	checkDifferential(t, ix, queries, "stale-order")
	checkDifferential(t, reload(t, ix), queries, "skewed-reloaded")
}

// skewedCorpus is a 2000-record power-law corpus: skewed enough that top-k's
// buffer walk stops early, and large enough that threshold hits span many
// 64-bit words of the hit bitset.
func skewedCorpus(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 2000, Universe: 5000,
		AlphaFreq: 1.1, AlphaSize: 2.5,
		MinSize: 20, MaxSize: 300,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// reload returns ix after a Save/Load round trip.
func reload(t *testing.T, ix *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestLoadLegacyV1Snapshot(t *testing.T) {
	// A version-1 stream carries no arena; Load must rebuild the sketches
	// from the records and answer identically to the index that wrote it.
	d := testDataset(t, 150)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(indexWire{
		Version:     1,
		Opt:         ix.opt,
		Records:     ix.records,
		BufferElems: ix.bufferElems,
		Tau:         ix.tau,
		BufferBits:  ix.bufferBits,
		Budget:      ix.budget,
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.arena.units() != ix.arena.units() {
		t.Fatalf("legacy load stored %d hash values, want %d", loaded.arena.units(), ix.arena.units())
	}
	for _, q := range d.SampleQueries(10, 9) {
		a, b := ix.Search(q, 0.5), loaded.Search(q, 0.5)
		if len(a) != len(b) {
			t.Fatalf("legacy load: %d vs %d results", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("legacy load: result %d differs", i)
			}
		}
	}
}

func TestLoadV2Snapshot(t *testing.T) {
	// A version-2 stream carries the sketch arena but no buffer arena; Load
	// must rebuild the buffers from the records and answer identically to
	// the index that wrote it.
	d := testDataset(t, 150)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(indexWire{
		Version:       2,
		Opt:           ix.opt,
		Records:       ix.records,
		BufferElems:   ix.bufferElems,
		Tau:           ix.tau,
		BufferBits:    ix.bufferBits,
		Budget:        ix.budget,
		ArenaHashes:   ix.arena.hashes,
		ArenaOffsets:  ix.arena.offsets,
		ArenaComplete: ix.arena.complete,
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.bufArena.words) != len(ix.bufArena.words) {
		t.Fatalf("v2 load rebuilt %d buffer words, want %d", len(loaded.bufArena.words), len(ix.bufArena.words))
	}
	for i, w := range ix.bufArena.words {
		if loaded.bufArena.words[i] != w {
			t.Fatalf("v2 load: buffer word %d differs", i)
		}
	}
	for _, q := range d.SampleQueries(10, 9) {
		a, b := ix.Search(q, 0.5), loaded.Search(q, 0.5)
		if len(a) != len(b) {
			t.Fatalf("v2 load: %d vs %d results", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("v2 load: result %d differs", i)
			}
		}
	}
}

func TestLoadRejectsCorruptBufferArena(t *testing.T) {
	d := testDataset(t, 40)
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.2, BufferBits: 64, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(*indexWire)) error {
		w := indexWire{
			Version: wireVersion, Opt: ix.opt, Records: ix.records,
			BufferElems: ix.bufferElems, Tau: ix.tau,
			BufferBits: ix.bufferBits, Budget: ix.budget,
			ArenaHashes:   append([]float64(nil), ix.arena.hashes...),
			ArenaOffsets:  append([]uint32(nil), ix.arena.offsets...),
			ArenaComplete: append([]bool(nil), ix.arena.complete...),
			BufWords:      append([]uint64(nil), ix.bufArena.words...),
			BufStride:     ix.bufArena.stride,
		}
		mutate(&w)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		return err
	}
	if err := corrupt(func(w *indexWire) { w.BufWords = w.BufWords[:len(w.BufWords)-1] }); err == nil {
		t.Error("truncated buffer arena accepted")
	}
	if err := corrupt(func(w *indexWire) { w.BufStride = 7 }); err == nil {
		t.Error("mismatched buffer stride accepted")
	}
}

func TestLoadRejectsCorruptArena(t *testing.T) {
	d := testDataset(t, 50)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(*indexWire)) error {
		w := indexWire{
			Version: wireVersion, Opt: ix.opt, Records: ix.records,
			BufferElems: ix.bufferElems, Tau: ix.tau,
			BufferBits: ix.bufferBits, Budget: ix.budget,
			ArenaHashes:   append([]float64(nil), ix.arena.hashes...),
			ArenaOffsets:  append([]uint32(nil), ix.arena.offsets...),
			ArenaComplete: append([]bool(nil), ix.arena.complete...),
		}
		mutate(&w)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		return err
	}
	if err := corrupt(func(w *indexWire) { w.ArenaOffsets = w.ArenaOffsets[:len(w.ArenaOffsets)-1] }); err == nil {
		t.Error("truncated offset table accepted")
	}
	if err := corrupt(func(w *indexWire) { w.ArenaOffsets[len(w.ArenaOffsets)-1]++ }); err == nil {
		t.Error("offset table overrunning the hash store accepted")
	}
	if err := corrupt(func(w *indexWire) {
		if len(w.ArenaHashes) >= 2 {
			w.ArenaHashes[0], w.ArenaHashes[1] = 1, 0 // descending run
			w.ArenaOffsets = []uint32{0, 2}
			w.ArenaOffsets = append(w.ArenaOffsets, make([]uint32, len(w.Records)-1)...)
			for i := 2; i < len(w.ArenaOffsets); i++ {
				w.ArenaOffsets[i] = 2
			}
			w.ArenaHashes = w.ArenaHashes[:2]
		}
	}); err == nil {
		t.Error("descending hash run accepted")
	}
}
