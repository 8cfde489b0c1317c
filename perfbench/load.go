package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

type opKind int

const (
	opSearch opKind = iota
	opTopK
	opInsert
	numKinds
)

var (
	kindNames = [numKinds]string{"search", "topk", "insert"}
	kindPaths = [numKinds]string{"/search", "/topk", "/records"} // under collectionPath
)

// op is one pre-marshalled request.
type op struct {
	kind      opKind
	body      []byte
	raw       []byte   // the query (search/topk) or record (insert) JSON array
	elems     []uint32 // the same, as element ids
	threshold float64
	limit     int
	k         int
}

// searchResp is the /search and /topk response envelope.
type searchResp struct {
	Count *int `json:"count"`
	Hits  []struct {
		ID       *int     `json:"id"`
		Estimate *float64 `json:"estimate"`
	} `json:"hits"`
}

// ids validates a decoded response and returns its hit ids. A search
// response must carry a count no smaller than its hit list; every hit needs
// an id and an estimate in [0, 1].
func (r *searchResp) ids(kind opKind) ([]int, error) {
	if r.Hits == nil {
		return nil, fmt.Errorf("%s response without hits", kindNames[kind])
	}
	if kind == opSearch && (r.Count == nil || *r.Count < len(r.Hits)) {
		return nil, fmt.Errorf("search response count missing or below its %d hits", len(r.Hits))
	}
	out := make([]int, len(r.Hits))
	for i, h := range r.Hits {
		if h.ID == nil || h.Estimate == nil || *h.Estimate < 0 || *h.Estimate > 1 || math.IsNaN(*h.Estimate) {
			return nil, fmt.Errorf("%s response hit %d malformed", kindNames[kind], i)
		}
		out[i] = *h.ID
	}
	return out, nil
}

// parseHits decodes and validates a search or top-k response body.
func parseHits(kind opKind, b []byte) ([]int, error) {
	var r searchResp
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("malformed %s response: %v", kindNames[kind], err)
	}
	return r.ids(kind)
}

// parseInsert decodes a single-record insert acknowledgement.
func parseInsert(b []byte) (int, error) {
	var r struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(b, &r); err != nil || len(r.IDs) != 1 || r.IDs[0] < 0 {
		return 0, fmt.Errorf("malformed insert response %q", b)
	}
	return r.IDs[0], nil
}

// target is where a phase sends its requests.
type target struct {
	cl   *http.Client
	urls [numKinds]string
}

func newTarget(cl *http.Client, base string) target {
	t := target{cl: cl}
	for k, p := range kindPaths {
		t.urls[k] = base + collectionPath + p
	}
	return t
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	elapsed   time.Duration
	lat       [numKinds][]float64 // per-request latency, ms
	attempted int
	failed    int
	malformed []error
	ackedID   []int // per op index: the id an acked insert got, else -1
	sent      int   // ops taken from the stream
}

// runPhase drives ops over clients closed-loop connections for dur: each
// client sends its next request only when the previous one answered.
// Requests are taken from the stream in order; the phase ends early if it
// runs out. Every response is validated.
func runPhase(t target, ops []op, clients int, dur time.Duration) *phaseResult {
	res := &phaseResult{ackedID: make([]int, len(ops))}
	for i := range res.ackedID {
		res.ackedID[i] = -1
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(dur)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat [numKinds][]float64
			var attempted, failed int
			var bad []error
			var buf bytes.Buffer
			for time.Now().Before(stop) {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				o := &ops[i]
				attempted++
				t0 := time.Now()
				status, err := post(t.cl, t.urls[o.kind], o.body, &buf)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				if err != nil || status != http.StatusOK {
					failed++
					if err == nil {
						err = fmt.Errorf("%s: status %d: %s", kindNames[o.kind], status, buf.Bytes())
					}
					bad = append(bad, err)
					continue
				}
				lat[o.kind] = append(lat[o.kind], ms)
				if o.kind == opInsert {
					id, err := parseInsert(buf.Bytes())
					if err != nil {
						bad = append(bad, err)
						continue
					}
					res.ackedID[i] = id
				} else if err := checkEnvelope(o.kind, buf.Bytes()); err != nil {
					bad = append(bad, err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for k := range lat {
				res.lat[k] = append(res.lat[k], lat[k]...)
			}
			res.attempted += attempted
			res.failed += failed
			res.malformed = append(res.malformed, bad...)
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.sent = min(int(next.Load()), len(ops))
	return res
}

// checkEnvelope is the per-request response check of the timed loop: the
// body must be well-formed JSON with the endpoint's envelope. Hits are
// decoded in full on the verification queries after the loop.
func checkEnvelope(kind opKind, b []byte) error {
	prefix := `{"count":`
	if kind == opTopK {
		prefix = `{"hits":`
	}
	if !bytes.HasPrefix(b, []byte(prefix)) || !json.Valid(b) {
		return fmt.Errorf("malformed %s response %.80q", kindNames[kind], b)
	}
	return nil
}

// post sends body to url, reading the response into buf.
func post(cl *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil && err != io.EOF {
		return 0, err
	}
	return resp.StatusCode, nil
}

// quantile returns the q-quantile (nearest rank) of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
