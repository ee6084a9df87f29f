// Package engine is the aggregation layer a deployment actually runs: it
// owns the public sketch table, routes queries to the estimators of the
// query package, and implements the Appendix A deployment modes.
//
//   - Engine: the no-trusted-party mode the paper is primarily about.
//     Users (or the collection server) ingest published sketches; analysts
//     ask conjunctive, combined, numeric, interval and decision-tree
//     queries.  Everything the engine stores is public, so a compromised
//     engine discloses nothing beyond what each user already published.
//   - TrustedParty: Appendix A's input-perturbation service.  A trusted
//     operator holds the raw profiles, sketches the configured subsets
//     itself, discards the raw data and then answers an unlimited number
//     of queries from the sketches with O(√M) noise — even against a
//     computationally unbounded attacker, overcoming the linear-noise
//     lower bound of Dinur–Nissim for the unlimited-query regime.
//   - SULQ: the output-perturbation comparator of Appendix A.  It answers
//     each query with the true count plus Gaussian noise of scale E and
//     stops after E² queries (the paid, budget-limited mode).
//   - DualServer: both modes side by side, the paper's "paid and free
//     access" suggestion.
//
// Every query is a compiled query.Plan executed by ExecutePlan in one
// table pass with the engine's bitmap cache.  Source wraps that as the
// query.PartialSource the estimators and the gateway's single-node mode
// read through; the collection server answers a router's plan queries
// with ExecutePlanCtx under the query's ownership filter and deadline.
//
// An Engine is safe for concurrent use: the sketch table hands queries
// immutable sorted views of its columns, every query holds its own
// lock-free PRF evaluators, and large record loops shard across
// GOMAXPROCS workers inside the query package — so ingestion and analysis
// can proceed simultaneously from any number of goroutines (the collection
// server relies on this, serving each connection on its own goroutine).
package engine
