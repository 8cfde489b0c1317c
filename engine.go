package gbkmv

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Engine is the pluggable sketch-engine interface: one containment-search
// contract over GB-KMV and every baseline backend of the paper's evaluation
// (Section V). All engines index the same []Record collections, answer the
// same Search/TopK/Estimate queries, and serialize behind a shared versioned
// header, so callers — the gbkmvd server, the CLIs, the experiments harness —
// can swap the sketch under a stable search API.
//
// Engines are registered by name (Register) and constructed through the
// registry (NewEngine). The flagship engine is the GB-KMV *Index itself;
// baselines trade accuracy, space or mutability differently (see the
// per-engine documentation and the README's "Choosing an engine").
//
// An Engine is safe for concurrent readers (Search/TopK/Estimate/Stats/Save)
// but mutations (Add/AddBatch) must not run concurrently with anything else;
// serialize externally, as internal/server does with its per-collection
// RWMutex.
type Engine interface {
	// EngineName returns the registry name the engine was built under.
	EngineName() string
	// Len returns the number of indexed records.
	Len() int
	// Record returns the indexed record with id i. The returned slice is
	// owned by the engine and must not be mutated.
	Record(i int) Record
	// Add appends a record, returning its id. Engines built around static
	// structures may rebuild internally; see each engine's documentation.
	Add(r Record) int
	// AddBatch appends records as one batch, returning their ids in order.
	// Engines that rebuild on insert pay the rebuild once per batch.
	AddBatch(recs []Record) []int
	// Search returns the ids of all records whose estimated containment
	// C(Q, X) reaches threshold, ascending. Approximate engines may return
	// false positives and miss true results; the "exact" engine returns the
	// ground truth.
	Search(q Record, threshold float64) []int
	// SearchTopK returns the k records with the highest estimated
	// containment, best first. Records with estimate 0 are never returned.
	SearchTopK(q Record, k int) []Scored
	// Estimate returns the estimated containment C(Q, X_i).
	Estimate(q Record, i int) float64
	// PrepareQuery builds a reusable prepared query, amortizing the query
	// sketching cost across a search and any number of estimates.
	PrepareQuery(q Record) PreparedQuery
	// EngineStats reports the engine's configuration and footprint. Fields
	// that do not apply to a backend are zero.
	EngineStats() EngineStats
	// Save serializes the engine's payload. Use SaveEngine to write the
	// self-describing header + payload form that LoadEngine dispatches on.
	Save(w io.Writer) error
}

// PreparedQuery is a prepared query signature over one engine: the engine-
// specific sketch of the query, built once and reused. It mirrors the
// concrete *Query of the GB-KMV index (which backs the "gbkmv" and "gkmv"
// engines) for every backend.
//
// A PreparedQuery is not safe for concurrent use: Clone it per goroutine
// (cloning is cheap — the underlying signature is shared, only the mutable
// per-query state is copied).
type PreparedQuery interface {
	// Search returns the ids of all records whose estimated containment is
	// at least threshold, ascending.
	Search(threshold float64) []int
	// SearchScored returns the hits Search would return with their
	// containment estimates attached, ascending by id, plus the total
	// qualifying count. limit > 0 caps the materialized hits (total still
	// counts everything). It scores hits from the work its search already
	// did, which is why a serving layer should prefer this over Search
	// followed by per-hit Estimate calls.
	SearchScored(threshold float64, limit int) (hits []Scored, total int)
	// TopK returns the k best records by estimated containment, best first.
	TopK(k int) []Scored
	// Estimate returns the estimated containment C(Q, X_i).
	Estimate(i int) float64
	// Size returns the query size |Q| in use.
	Size() int
	// SetSize overrides the true query size |Q|, exactly like Query.WithSize:
	// elements that cannot appear in any indexed record (e.g. tokens unknown
	// to the vocabulary) still belong to Q and shrink every containment.
	SetSize(n int)
	// Clone returns an independent copy for cheap per-goroutine reuse.
	Clone() PreparedQuery
}

// EngineStats describes a built engine. Engine and NumRecords are always
// set; the remaining fields are backend-specific and zero where they do not
// apply (e.g. Tau for MinHash-family engines, NumHashes for GB-KMV).
type EngineStats struct {
	Engine      string  // registry name
	NumRecords  int     // indexed records
	SizeBytes   int     // in-memory signature footprint
	BufferBytes int     // GB-KMV frequent-element buffer share of SizeBytes
	SketchBytes int     // GB-KMV hash-store share of SizeBytes
	BudgetUnits int     // configured budget (1 unit = one stored hash value)
	UsedUnits   int     // units actually consumed
	BufferBits  int     // GB-KMV buffer size r
	Tau         float64 // KMV-family global hash threshold
	NumHashes   int     // MinHash-family signature length
}

// EngineOptions configures engine construction through the registry. Fields
// irrelevant to a backend are ignored; the zero value is valid for every
// engine.
type EngineOptions struct {
	// BudgetFraction is the sketch budget as a fraction of the total number
	// of element occurrences (default 0.10, the paper's "SpaceUsed"). Used
	// by the KMV-family engines, and to derive a default signature length
	// for the MinHash-family ones.
	BudgetFraction float64
	// BudgetUnits is the absolute budget in signature units, overriding
	// BudgetFraction when positive.
	BudgetUnits int
	// BufferBits is the GB-KMV frequent-element buffer size: AutoBuffer,
	// NoBuffer, or a positive bit count. Only the "gbkmv" engine reads it.
	BufferBits int
	// Seed fixes all hashing; engines built with different seeds are
	// incomparable. The zero seed is valid.
	Seed uint64
	// NumHashes is the MinHash-family signature length (k). Zero selects a
	// backend default (derived from the budget where that is meaningful).
	NumHashes int
	// NumPartitions is the LSH Ensemble equal-depth partition count
	// (default 32).
	NumPartitions int
	// MaxBands is the LSH Forest tree count / LSH Ensemble bands-per-
	// partition bound (default 32).
	MaxBands int
}

// budget resolves the option pair to absolute units for a collection with
// totalElements element occurrences.
func (o EngineOptions) budget(totalElements int) int {
	if o.BudgetUnits > 0 {
		return o.BudgetUnits
	}
	frac := o.BudgetFraction
	if frac == 0 {
		frac = 0.10
	}
	return int(frac * float64(totalElements))
}

// indexOptions projects the engine options onto the GB-KMV index options.
func (o EngineOptions) indexOptions() Options {
	return Options{
		BudgetFraction: o.BudgetFraction,
		BudgetUnits:    o.BudgetUnits,
		BufferBits:     o.BufferBits,
		Seed:           o.Seed,
	}
}

// DefaultEngine is the engine used when no name is given: the GB-KMV index.
const DefaultEngine = "gbkmv"

// EngineBuilder constructs an engine over a record collection. The records
// slice is retained by the engine and must not be mutated afterwards.
type EngineBuilder func(records []Record, opt EngineOptions) (Engine, error)

// EngineLoader reconstructs an engine from the payload written by its Save
// (the bytes following the SaveEngine header).
type EngineLoader func(r io.Reader) (Engine, error)

var engineRegistry = struct {
	sync.RWMutex
	m map[string]struct {
		build EngineBuilder
		load  EngineLoader
	}
}{m: make(map[string]struct {
	build EngineBuilder
	load  EngineLoader
})}

// Register installs an engine backend under name. The built-in backends
// register themselves at init; call Register to plug in an external one.
// Registering a name twice panics — silently replacing a backend would make
// snapshot dispatch ambiguous.
func Register(name string, build EngineBuilder, load EngineLoader) {
	if name == "" || build == nil || load == nil {
		panic("gbkmv: Register requires a name, a builder and a loader")
	}
	engineRegistry.Lock()
	defer engineRegistry.Unlock()
	if _, dup := engineRegistry.m[name]; dup {
		panic(fmt.Sprintf("gbkmv: engine %q registered twice", name))
	}
	engineRegistry.m[name] = struct {
		build EngineBuilder
		load  EngineLoader
	}{build, load}
}

// Engines returns the registered engine names, sorted.
func Engines() []string {
	engineRegistry.RLock()
	defer engineRegistry.RUnlock()
	names := make([]string, 0, len(engineRegistry.m))
	for n := range engineRegistry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lookupEngine returns the registry entry for name.
func lookupEngine(name string) (EngineBuilder, EngineLoader, error) {
	engineRegistry.RLock()
	e, ok := engineRegistry.m[name]
	engineRegistry.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("gbkmv: unknown engine %q (have: %v)", name, Engines())
	}
	return e.build, e.load, nil
}

// NewEngine builds the named engine over the records. The records slice is
// retained by the engine and must not be mutated afterwards. An empty name
// selects DefaultEngine.
func NewEngine(name string, records []Record, opt EngineOptions) (Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	build, _, err := lookupEngine(name)
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, errors.New("gbkmv: no records")
	}
	return build(records, opt)
}

// The engine snapshot format: an 8-byte magic, a format version byte, the
// length-prefixed engine name, then the engine's own payload. The header
// makes snapshots self-describing, so LoadEngine dispatches to the engine
// that wrote them. Headerless streams are accepted as legacy GB-KMV index
// snapshots (the pre-engine format), so existing snapshots keep loading.
var engineMagic = []byte("GBKMVENG")

const engineHeaderVersion = 1

// SaveEngine serializes the engine with the self-describing header that
// LoadEngine dispatches on. A Segmented engine writes its own container
// format (its magic replaces the single-engine header).
func SaveEngine(w io.Writer, e Engine) error {
	if s, ok := e.(*Segmented); ok {
		return s.Save(w)
	}
	name := e.EngineName()
	if len(name) == 0 || len(name) > 255 {
		return fmt.Errorf("gbkmv: engine name %q not serializable", name)
	}
	hdr := make([]byte, 0, len(engineMagic)+2+len(name))
	hdr = append(hdr, engineMagic...)
	hdr = append(hdr, engineHeaderVersion, byte(len(name)))
	hdr = append(hdr, name...)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("gbkmv: writing engine header: %w", err)
	}
	return e.Save(w)
}

// LoadEngine reads an engine written by SaveEngine, dispatching on the
// header to the engine that wrote it. A stream without the header is loaded
// as a legacy GB-KMV index snapshot (the format of Index.Save before engines
// existed).
func LoadEngine(r io.Reader) (Engine, error) {
	head := make([]byte, len(engineMagic))
	n, err := io.ReadFull(r, head)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("gbkmv: reading engine header: %w", err)
	}
	if n == len(segmentedMagic) && bytes.Equal(head[:n], segmentedMagic) {
		return loadSegmented(r)
	}
	if n < len(engineMagic) || !bytes.Equal(head[:n], engineMagic) {
		// Legacy headerless snapshot: a bare GB-KMV index.
		return Load(io.MultiReader(bytes.NewReader(head[:n]), r))
	}
	var meta [2]byte
	if _, err := io.ReadFull(r, meta[:]); err != nil {
		return nil, fmt.Errorf("gbkmv: reading engine header: %w", err)
	}
	if meta[0] != engineHeaderVersion {
		return nil, fmt.Errorf("gbkmv: unsupported engine snapshot version %d", meta[0])
	}
	nameBuf := make([]byte, meta[1])
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return nil, fmt.Errorf("gbkmv: reading engine name: %w", err)
	}
	name := string(nameBuf)
	_, load, err := lookupEngine(name)
	if err != nil {
		return nil, fmt.Errorf("gbkmv: snapshot written by unregistered engine %q", name)
	}
	e, err := load(r)
	if err != nil {
		return nil, fmt.Errorf("gbkmv: loading %q engine: %w", name, err)
	}
	return e, nil
}

// PrepareTokens prepares a token query against any engine: tokens are
// converted through the vocabulary without interning (so queries never grow
// it), and distinct unknown tokens — which cannot match any record but still
// belong to Q — are counted into the containment denominator |Q| via
// SetSize. This is the engine-generic form of Index.PrepareTokens; an error
// is returned for an empty query.
func PrepareTokens(e Engine, voc *Vocabulary, tokens []string) (PreparedQuery, error) {
	rec, unknown := voc.QueryRecord(tokens)
	if len(rec)+unknown == 0 {
		return nil, errors.New("gbkmv: empty query")
	}
	pq := e.PrepareQuery(rec)
	pq.SetSize(len(rec) + unknown)
	return pq, nil
}
