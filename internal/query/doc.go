// Package query implements the analyst side of the paper: every estimator
// that turns a table of published sketches into approximate answers.
//
//   - Conjunctive queries (Algorithm 2): the fraction of users whose
//     projection onto a sketched subset equals a target value, with the
//     Lemma 4.1 error guarantee.
//   - Sketch combination (Appendix F): answering a conjunction over the
//     union of several sketched subsets by inverting the (k+1)×(k+1)
//     perturbation matrix V, including "exactly l of k" queries and the
//     condition-number analysis the appendix alludes to.
//   - A heterogeneous product-form estimator that generalizes the
//     Appendix F inversion to bits perturbed with different probabilities;
//     it is what Appendix E's virtual XOR bits require.
//   - Numeric queries (Section 4.1): sums and means of k-bit integer
//     attributes via k single-bit queries, and inner products via k²
//     two-bit queries glued from single-bit sketches.
//   - Interval queries (Section 4.1): a ≤ c via popcount(c) prefix queries,
//     combined constraints (a = c ∧ b ≤ d) and conditional means.
//   - Decision trees (Section 4.1): each accepting root-to-leaf path is one
//     conjunctive query; the tree's frequency is the sum over paths.
//   - Sum thresholds (Appendix E): a + b < 2^r via virtual XOR bits,
//     avoiding the exponential blow-up of the naive conjunction expansion.
//
// All estimators consume only public objects: the sketch table and the
// public p-biased function H.
//
// There is one read path and one way to ask.  An estimator X has two
// forms: X(src PartialSource, …) answers it, and PlanX(p *Plan, …)
// registers it on a plan so that several estimators share one execution.
// Every estimator compiles the raw counters it needs — (subset, value)
// match counts, Appendix F match histograms, record counts — into a Plan,
// runs it through PartialSource.Execute in one batch and reduces the
// Results with a finisher; a PartialSource is a local table
// (Estimator.TableSource, the one adapter from a *sketch.Table), an engine
// or a cluster router, and Execute plus TotalRecords is its whole surface.
// The counters are exact integers that merge by addition across disjoint
// record sets — which is why SumLessThanPow2, whose product weights join
// each user's own bits, is the one estimator that takes a table.  The
// executor (ExecutePlanOver) is differenced against one slow reference,
// the scalar serial oracle in oracle_test.go.
package query
