package core

import (
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// fuzzSep separates records in FuzzTopKMatchesReference's input; every
// other byte is an element id.
const fuzzSep = 0xFF

// fuzzRecords splits fuzz input into the query (the first segment) and up
// to 64 records of the index; empty segments are dropped.
func fuzzRecords(data []byte) (q dataset.Record, recs []dataset.Record) {
	var cur []hash.Element
	flush := func() {
		if len(cur) == 0 {
			return
		}
		r := dataset.NewRecord(cur)
		cur = cur[:0]
		if q == nil {
			q = r
		} else if len(recs) < 64 {
			recs = append(recs, r)
		}
	}
	for _, b := range data {
		if b == fuzzSep {
			flush()
			continue
		}
		cur = append(cur, hash.Element(b))
	}
	flush()
	return q, recs
}

// fuzzEncode is fuzzRecords' inverse for seeding: elements are folded into
// the byte alphabet, which keeps the fixtures' frequency skew.
func fuzzEncode(q dataset.Record, recs []dataset.Record) []byte {
	var out []byte
	for _, r := range append([]dataset.Record{q}, recs...) {
		for _, e := range r {
			out = append(out, byte(uint64(e)%fuzzSep))
		}
		out = append(out, fuzzSep)
	}
	return out
}

// FuzzTopKMatchesReference builds a small random index (optionally growing
// part of it by insert, which leaves the cached bit order stale and may
// shrink τ) and asserts SearchTopKSig == refTopK, bit-identically, for every
// k up to the record count, at the query's true size and at a halved size
// that clamps scores to 1. CI runs this briefly
// (-fuzz FuzzTopKMatchesReference -fuzztime 15s) on every push.
func FuzzTopKMatchesReference(f *testing.F) {
	for _, seed := range []int64{3, 77, 991} {
		d, err := dataset.Synthetic(dataset.SyntheticConfig{
			NumRecords: 24, Universe: 400,
			AlphaFreq: 1.1, AlphaSize: 2.2,
			MinSize: 4, MaxSize: 24,
		}, seed)
		if err != nil {
			f.Fatal(err)
		}
		data := fuzzEncode(d.SampleQueries(1, seed+1)[0], d.Records)
		f.Add(data, uint8(seed), seed%2 == 1)
	}
	f.Add([]byte{1, 2, 3, fuzzSep, 1, 2, fuzzSep, 3, 4, fuzzSep, 1, 5}, uint8(1), false)
	f.Fuzz(func(t *testing.T, data []byte, bufSel uint8, insert bool) {
		q, recs := fuzzRecords(data)
		if q == nil || len(recs) == 0 {
			t.Skip()
		}
		built := recs
		if insert && len(recs) > 1 {
			built = recs[:len(recs)/2]
		}
		opt := Options{BudgetFraction: 0.5, BufferBits: int(bufSel%5) * 8, Seed: testSeed}
		ix, err := BuildIndex(&dataset.Dataset{Records: built, Universe: fuzzSep}, opt)
		if err != nil {
			t.Skip() // budget too small for this corpus
		}
		ix.AddRecords(recs[len(built):])
		sig := ix.Sketch(q)
		half := sig.Clone()
		half.Size = (sig.Size + 1) / 2
		for _, s := range []*QuerySig{sig, half} {
			for k := 1; k <= ix.NumRecords(); k++ {
				if err := diffTopK(ix, s, k); err != nil {
					t.Fatalf("|Q|=%d r=%d: %v", s.Size, ix.BufferBits(), err)
				}
			}
		}
	})
}
