// Package cluster scales the collection service past one sketchd: a
// consistent-hash ring (virtual nodes, FNV-1a over the user id — the same
// placement family the durable store shards with) routes each publish to
// an owner node plus RF−1 replicas, and a router fans every query out to
// every live node as one compiled plan (wire.TypePlanQuery, the only
// query a router sends a node).
//
// The fan-out is exact, not approximate.  Algorithm 2's Fraction is a pure
// sum of per-record match indicators, so raw match and record counts merge
// across disjoint record sets without error; the Appendix F match
// histograms merge bin-wise the same way.  Replication is kept out of the
// sums by an ownership filter pushed down with each plan query: a node
// answers only for the records whose first *live* preference-walk node it
// is.  With every acknowledged record on RF replicas and at most RF−1
// nodes down, exactly one live node answers for each record, and the
// merged counters are the integers a single engine holding the union of
// the records would have computed — the distributed estimate is
// bit-identical.
//
// The router health-checks nodes with periodic pings, marks failures dead
// with exponential backoff, retries queries on a recomputed live set when
// a node dies mid-fan-out, and requires every live replica's
// acknowledgement before acknowledging a publish — so killing any single
// node at RF=2 loses no acknowledged sketch.  With hinted handoff enabled
// a briefly-down replica does not block publishes: the missed records are
// queued and replayed when it returns, and the node re-enters query
// fan-outs only after the replay drains.
//
// Membership is dynamic.  Join adds a node to a live cluster and Drain
// retires one: the rebalance engine (rebalance.go) diffs the old and new
// rings' ownership, streams only the moved (user, subset) sketches to
// their new owners in CRC-framed idempotent batches, dual-writes
// publishes that arrive mid-migration to the owners under both rings, and
// swaps the ring atomically once every destination acknowledged.  Queries
// keep their bit-identical guarantee through the whole sequence: before
// the cutover the old owners hold everything, after it the new owners do,
// and the swap itself is a single write-locked pointer flip.  Each
// cutover bumps the ring epoch, which travels in hellos, pings and every
// ownership filter; a node that has seen epoch E refuses plan queries
// stamped E−1, so a fan-out racing a cutover retries under a fresh
// snapshot instead of merging counters computed under different rings.
//
// The package has no listener of its own: server.Frontend puts a Router on
// the wire through the connection loop a node's server runs (server imports
// cluster, never the reverse).
package cluster
