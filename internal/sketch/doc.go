// Package sketch implements the paper's primary contribution: the
// pseudorandom sketching mechanism of Mishra & Sandler, "Privacy via
// Pseudorandom Sketches" (PODS 2006).
//
// A user with public identifier id and private profile d sketches a subset
// of attributes B by running Algorithm 1: repeatedly draw a candidate key s
// uniformly at random without replacement from the 2^ℓ possible ℓ-bit keys;
// if the public p-biased function H(id, B, d_B, s) evaluates to 1 the key is
// published immediately, otherwise it is published anyway with probability
// p²/(1−p)² and rejected otherwise.  The published key — the sketch — is
// therefore skewed so that H is biased towards 1 at the user's true value
// (probability 1−p) and towards 0 at every other value (probability p,
// Lemma 3.2), while revealing almost nothing about which value is the true
// one: the likelihood ratio of any sketch under any two candidate profiles
// is at most ((1−p)/p)⁴ (Lemma 3.3).
//
// The package provides:
//
//   - Params: the (p, ℓ) configuration with the Lemma 3.1 length bound, the
//     Corollary 3.4 privacy budget arithmetic and the running-time bounds;
//   - Sketcher: Algorithm 1, generic over any prf.BitSource;
//   - Published, Table and View: the published (id, B, s) records, a
//     concurrency-safe columnar store of them — which is all an analyst
//     ever sees — and the immutable id-sorted view of one subset that the
//     estimators scan;
//   - Words, IDs and Run: the one packed form of a sketch — Sketch.Pack,
//     the key above a 5-bit length, a column of them held as ℓ written once
//     and each key in ℓ bits, so the paper's ⌈log log O(M)⌉-bit disclosure
//     costs exactly that in memory and on disk (a store run writes the
//     column's bits through Words.AppendBits and reads them back, checked,
//     through Words.AppendBitsFrom) — the one form of a
//     sorted column of user ids — blocks of 64 held as a first id and the
//     differences from id to id at the width a block's widest needs, so
//     the public id beside the sketch costs a little over a byte where
//     users were numbered as they enrolled, and its 8 bytes where ids are
//     hashed — in the table, in a store's files and everywhere between;
//     and one subset's records as such columns, the unit a store replays
//     and the table loads;
//   - Kernel, Window and Evaluate: the H(id, B, v, s) evaluation shared
//     with the query estimators, and the one place that knows how a record
//     becomes H's message.  A Kernel is specialised to a query pair (B, v)
//     and bound to the deployment's key and p; Kernel.Evaluate answers one
//     record (Algorithm 1's candidate keys), and Kernel.Word answers the
//     records of a 64-record window a Window decoded from a View, as a
//     packed word (Algorithm 2's record loop; CountMatches is that loop on
//     one goroutine).  Window.Stage takes the window's keep word and stages
//     only the records it keeps — a filtered scan evaluates H on those
//     alone, its outcomes packed low in staging order, the bits a bitmap
//     over the kept records appends; all ones stages the window whole, each
//     outcome at its window position.  A source
//     that is not the keyed PRF — the random oracle of the ablations — is
//     asked through its Bit method instead.
package sketch
