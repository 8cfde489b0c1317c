package main

import (
	"crypto/sha256"
	"math"
	"slices"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// digest hashes every request body and verification query a workload's
// inputs hold, plus the oracle's answers to the verification queries.
func digest(in *inputs) [32]byte {
	h := sha256.New()
	h.Write(in.g.buildBody(in.built, in.budget, 0))
	for _, o := range in.warmup {
		h.Write(o.body)
	}
	for _, p := range in.phases {
		for _, o := range p.ops {
			h.Write(o.body)
		}
	}
	o := newOracle()
	for id, r := range in.built {
		o.add(id, r)
	}
	for _, q := range in.verify {
		h.Write(in.g.appendTokens(nil, q))
		for _, id := range o.answer(q, in.threshold) {
			h.Write([]byte{byte(id), byte(id >> 8), byte(id >> 16), 0xff})
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "search-large" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			a, b := digest(w.make(7, 1)), digest(w.make(7, 1))
			if a != b {
				t.Fatalf("seed 7 generated different bodies or answers on two runs")
			}
			if digest(w.make(8, 1)) == a {
				t.Fatalf("seeds 7 and 8 generated identical inputs")
			}
		})
	}
}

func toRecord(elems []uint32) dataset.Record {
	r := make([]hash.Element, len(elems))
	for i, e := range elems {
		r[i] = hash.Element(e)
	}
	return dataset.NewRecord(r)
}

// TestOracleHandChecked pins the oracle to hand-computed containments and
// to dataset.Record.Containment on the same case.
func TestOracleHandChecked(t *testing.T) {
	recs := [][]uint32{{1, 2, 3, 4}, {2, 4, 6}, {7, 8}}
	q := []uint32{2, 4, 7}
	// |Q ∩ X| / |Q|: 2/3, 2/3, 1/3.
	want := []float64{2.0 / 3, 2.0 / 3, 1.0 / 3}
	o := newOracle()
	for id, r := range recs {
		o.add(id, r)
		if got := toRecord(q).Containment(toRecord(r)); math.Abs(got-want[id]) > 1e-12 {
			t.Fatalf("dataset containment of Q in record %d = %v, hand-checked %v", id, got, want[id])
		}
	}
	for _, c := range []struct {
		t    float64
		want []int
	}{
		{0.3, []int{0, 1, 2}},
		{1.0 / 3, []int{0, 1, 2}},
		{0.5, []int{0, 1}},
		{2.0 / 3, []int{0, 1}},
		{0.7, nil},
	} {
		if got := o.answer(q, c.t); !slices.Equal(got, c.want) {
			t.Errorf("answer at t=%.4f = %v, want %v", c.t, got, c.want)
		}
	}
}

// TestOracleMatchesContainment checks the oracle against brute-force
// dataset.Record.Containment on generated records and queries.
func TestOracleMatchesContainment(t *testing.T) {
	g := newGen(3, genSpec{universe: 500, zipfS: 1.1, minLen: 5, maxLen: 60, alpha: 2.5})
	recs := g.records(300)
	o := newOracle()
	for id, r := range recs {
		o.add(id, r)
	}
	for i := range 50 {
		q := g.perturb(recs[i], 0.3, 1, 40)
		for _, th := range []float64{0.2, 0.5, 0.8, 1} {
			var want []int
			for id, r := range recs {
				if toRecord(q).Containment(toRecord(r)) >= th {
					want = append(want, id)
				}
			}
			if got := o.answer(q, th); !slices.Equal(got, want) {
				t.Fatalf("query %d at t=%v: oracle %v, brute force %v", i, th, got, want)
			}
		}
	}
}

func TestF1(t *testing.T) {
	for _, c := range []struct {
		got, truth []int
		want       float64
	}{
		{nil, nil, 1},
		{[]int{1}, nil, 0},
		{nil, []int{1}, 0},
		{[]int{1, 2}, []int{1, 2}, 1},
		{[]int{1, 2, 3, 4}, []int{1, 2}, 2 * 0.5 * 1 / 1.5},
		{[]int{5}, []int{1, 2}, 0},
	} {
		if got := f1(c.got, c.truth); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("f1(%v, %v) = %v, want %v", c.got, c.truth, got, c.want)
		}
	}
}

func TestPerturbKeepsBaseAMatch(t *testing.T) {
	g := newGen(5, defaultSpec)
	for range 200 {
		base := g.record()
		q := g.perturb(base, 0.5, 1, 1000)
		if c := toRecord(q).Containment(toRecord(base)); c < 10.0/11-1e-9 {
			t.Fatalf("query keeps only %.3f of itself in its base record", c)
		}
	}
}

func TestParseProm(t *testing.T) {
	s, err := parseProm([]byte("# HELP x y\n# TYPE x counter\n" +
		`gbkmv_http_request_seconds_sum{collection="bench",endpoint="POST /collections/{name}/search"} 1.5` + "\n" +
		`gbkmv_http_request_seconds_sum{collection="bench",endpoint="POST /collections/{name}/search:batch"} 9` + "\n" +
		"go_gc_cycles_total 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := promSum(s, "gbkmv_http_request_seconds_sum", `endpoint="POST /collections/{name}/search"`); got != 1.5 {
		t.Errorf("search endpoint sum = %v, want 1.5", got)
	}
	if got := promSum(s, "go_gc_cycles_total"); got != 7 {
		t.Errorf("unlabelled series = %v, want 7", got)
	}
	if _, err := parseProm([]byte("no_value_here\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}
