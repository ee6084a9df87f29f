// Package sketchprivacy is a from-scratch Go implementation of
// "Privacy via Pseudorandom Sketches" (Mishra & Sandler, PODS 2006): a
// local privacy mechanism in which each user publishes only a few-bit
// pseudorandom sketch of selected attribute subsets, yet an analyst holding
// many users' sketches can estimate the frequency of any conjunction over
// those attributes with error independent of the conjunction's size.
//
// This root package is a thin facade re-exporting the types that cover the
// common path, so downstream users can get started with a single import:
//
//	h := sketchprivacy.NewSource(key, 0.3)
//	params, _ := sketchprivacy.ParamsFor(0.3, 1_000_000, 1e-6)
//	sk, _ := sketchprivacy.NewSketcher(h, params)
//	pub, _ := sk.Sketch(rng, profile, subset)        // user side
//	eng, _ := sketchprivacy.NewEngine(h, params)     // analyst side
//	eng.Ingest(...); eng.Conjunction(subset, value)
//
// The full surface lives in the internal packages (prf, bitvec, sketch,
// query, baseline, privacy, engine, wire, server, dataset, experiment); the
// examples/ directory exercises the facade end to end and DESIGN.md maps
// every paper claim to the module that reproduces it.
package sketchprivacy

import (
	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
	"sketchprivacy/internal/store"
)

// Core profile and query vocabulary.
type (
	// UserID is a user's public identifier.
	UserID = bitvec.UserID
	// Vector is a packed bit vector (profiles, query values).
	Vector = bitvec.Vector
	// Subset is an ordered attribute subset B.
	Subset = bitvec.Subset
	// Profile couples a public id with the private bit vector.
	Profile = bitvec.Profile
	// Literal and Conjunction express conjunctive queries over literals.
	Literal = bitvec.Literal
	// Conjunction is a conjunction of literals.
	Conjunction = bitvec.Conjunction
	// IntField lays out a k-bit integer attribute inside a profile.
	IntField = bitvec.IntField
)

// Mechanism types.
type (
	// Params holds the mechanism parameters (bias p, sketch length ℓ).
	Params = sketch.Params
	// Sketch is a published ℓ-bit sketch key.
	Sketch = sketch.Sketch
	// Published is a (user, subset, sketch) record.
	Published = sketch.Published
	// Sketcher runs Algorithm 1 on the user side.
	Sketcher = sketch.Sketcher
	// Table is the analyst-side store of published sketches.
	Table = sketch.Table
	// Estimator holds every query of the paper (Algorithm 2, Section 4.1,
	// Appendices E and F), each asked one way: est.X(src, …) over a plan
	// source — an Engine's Source(nil), or a Table behind
	// est.TableSource(tab).  Engine's own query methods are that call
	// over its cached source.
	Estimator = query.Estimator
	// Estimate is a frequency estimate with its confidence machinery.
	Estimate = query.Estimate
	// SubQuery is one component of an Appendix F combined query.
	SubQuery = query.SubQuery
	// Engine is the aggregation service (ingest sketches, answer queries).
	Engine = engine.Engine
	// RNG supplies the user's private coin flips.
	RNG = stats.RNG
	// Kernel is a per-goroutine evaluator of the public function H,
	// specialised to one (subset, value) query pair: its Evaluate method
	// computes H(id, B, v, s) for one record without allocating, so loops
	// over many records should hold one instead of calling the facade per
	// record.
	Kernel = sketch.Kernel
	// Store is the durability interface the engine persists sketches
	// through (internal/store: sharded WAL + immutable segments).
	Store = store.Store
	// StoreOptions configures a durable store (data dir, shards, fsync).
	StoreOptions = store.Options
)

// NewKernel returns an evaluation kernel for one query pair.  Kernels are
// single-goroutine; parallel loops create one per worker.
func NewKernel(h prf.BitSource, b Subset, v Vector) *Kernel { return sketch.NewKernel(h, b, v) }

// NewSource returns the public p-biased pseudorandom function H backed by
// HMAC-SHA-256, keyed with the database's generator key
// (the paper asks for at least 300 bits; prf.MinKeyBytes).
func NewSource(generatorKey []byte, p float64) (*prf.Biased, error) {
	prob, err := prf.NewProb(p)
	if err != nil {
		return nil, err
	}
	return prf.NewBiased(generatorKey, prob), nil
}

// NewRNG returns a deterministic random number generator for a user's
// private coins (tests and simulations; real users should seed from OS
// entropy).
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// NewParams validates mechanism parameters.
func NewParams(p float64, length int) (Params, error) { return sketch.NewParams(p, length) }

// ParamsFor picks the Lemma 3.1 sketch length for a population of at most m
// users and failure probability tau.
func ParamsFor(p float64, m int, tau float64) (Params, error) { return sketch.ParamsFor(p, m, tau) }

// NewSketcher builds the user-side sketcher (Algorithm 1).
func NewSketcher(h prf.BitSource, params Params) (*Sketcher, error) {
	return sketch.NewSketcher(h, params)
}

// NewTable returns an empty analyst-side sketch store.
func NewTable() *Table { return sketch.NewTable() }

// NewEstimator builds the analyst-side estimator (Algorithm 2 and the
// Section 4.1 / Appendix E–F derived queries).
func NewEstimator(h prf.BitSource) (*Estimator, error) { return query.NewEstimator(h) }

// NewEngine builds the aggregation engine (sketch store plus estimators).
func NewEngine(h prf.BitSource, params Params) (*Engine, error) { return engine.New(h, params) }

// OpenStore opens (creating if needed) a durable sketch store: sharded
// write-ahead logs plus immutable segments, with torn-tail crash recovery.
func OpenStore(opts StoreOptions) (*store.Durable, error) { return store.Open(opts) }

// NewEngineWithStore builds an engine rehydrated from st on startup and
// persisting every ingest through it.
func NewEngineWithStore(h prf.BitSource, params Params, st Store) (*Engine, error) {
	return engine.NewWithStore(h, params, st)
}

// NewSubset builds an attribute subset, validating positions.
func NewSubset(positions ...int) (Subset, error) { return bitvec.NewSubset(positions...) }

// NewProfile returns a profile with an all-zero data vector of width n.
func NewProfile(id UserID, n int) Profile { return bitvec.NewProfile(id, n) }

// VectorFromString parses a value vector from a string of '0' and '1'.
func VectorFromString(s string) (Vector, error) { return bitvec.FromString(s) }
