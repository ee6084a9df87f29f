package query

import (
	"context"
	"fmt"
	"math"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

// SumLessThanPow2 estimates the fraction of users whose two k-bit integer
// attributes satisfy a + b < 2^r, using only single-bit sketches of every
// bit of both fields (Appendix E).
//
// The naive expansion into plain conjunctive queries needs 2^(r+1) − 1
// queries (see NaiveSumThresholdQueries); Appendix E's trick is to
// introduce virtual bits q_i = a_i ⊕ b_i, whose public perturbed versions
// ã_i ⊕ b̃_i flip with probability 2p(1−p), and to decompose the event as
//
//	a + b < 2^r  ⇔  (all bits above position r are zero in both a and b) ∧
//	               ( ∃ low position j : q = 1 strictly above j ∧ a_j = b_j = 0
//	                 ∨ q = 1 at every low position ).
//
// Each of the r + 1 disjuncts is a conjunction over heterogeneously
// perturbed bits (p for the original bits, 2p(1−p) for the virtual ones)
// and is estimated with the product-form inverse-channel estimator; the
// disjuncts are mutually exclusive, so their estimates add.
//
// It is the one estimator that takes a table and not a PartialSource: the
// product weights join each user's own observed bits across 2k subsets,
// and no counter that merges by addition across record sets carries that
// per-user alignment.
func (e *Estimator) SumLessThanPow2(tab *sketch.Table, a, b bitvec.IntField, r int) (NumericEstimate, error) {
	if a.Width != b.Width {
		return NumericEstimate{}, fmt.Errorf("%w: fields have widths %d and %d", ErrMismatch, a.Width, b.Width)
	}
	k := a.Width
	if r < 0 {
		return NumericEstimate{}, fmt.Errorf("%w: negative threshold exponent %d", ErrMismatch, r)
	}
	if r > k {
		// a + b <= 2^(k+1) − 2 < 2^r whenever r >= k+1.
		return NumericEstimate{Value: 1, Users: 0, Queries: 0}, nil
	}

	// Every single-bit subset of both fields must have been sketched.  The
	// observed (perturbed) bits are the evaluation bitmaps of the 2k pairs
	// (bit subset, "1"), read from one state of the table and joined by user
	// into aligned packed columns, MSB first (index 0 is the highest bit,
	// matching the paper's a_u1): bit u&63 of word u>>6 is user u's.  The
	// virtual bit q_i = a_i ⊕ b_i is the XOR of two columns.
	subsets := append(FieldBitSubsets(a), FieldBitSubsets(b)...)
	pairs := make([]FractionEval, 2*k)
	for s, subset := range subsets {
		pairs[s] = FractionEval{Subset: subset, Value: oneBit()}
	}
	x := e.cutTable(tab, subsets, false, nil, nil)
	observed, users, err := x.columns(context.Background(), pairs)
	if err != nil {
		return NumericEstimate{}, err
	}
	if users == 0 {
		return NumericEstimate{}, fmt.Errorf("%w: need single-bit sketches of both fields", ErrNoSketches)
	}
	oa, ob := observed[:k], observed[k:]
	oq := make([][]uint64, k)
	for i := range oq {
		oq[i] = make([]uint64, len(oa[i]))
		for w := range oq[i] {
			oq[i][w] = oa[i][w] ^ ob[i][w]
		}
	}

	// disjunct assembles the j-th disjunct: the high bits of a and b are
	// zero, q is 1 from the first low position up to (excluding) j and, for
	// j a bit position, a_j = b_j = 0; j = k is the final disjunct, q = 1 at
	// every low position.
	qFlip := 2 * e.p * (1 - e.p)
	lowStart := k - r
	disjunct := func(j int) []virtualColumn {
		var cols []virtualColumn
		for i := 0; i < lowStart; i++ {
			cols = append(cols, virtualColumn{oa[i], false, e.p}, virtualColumn{ob[i], false, e.p})
		}
		for i := lowStart; i < j; i++ {
			cols = append(cols, virtualColumn{oq[i], true, qFlip})
		}
		if j < k {
			cols = append(cols, virtualColumn{oa[j], false, e.p}, virtualColumn{ob[j], false, e.p})
		}
		return cols
	}

	// One disjunct per low position j: q = 1 above j and a_j = b_j = 0;
	// then the final one, q = 1 at every low position (a + b = 2^r − 1).
	// For r = 0 only the final one is left: "all bits of a and b are zero".
	// The disjuncts are mutually exclusive, so their estimates add.
	var raw float64
	for j := lowStart; j <= k; j++ {
		frac, err := productFraction(disjunct(j), users)
		if err != nil {
			return NumericEstimate{}, err
		}
		raw += frac
	}
	return NumericEstimate{Value: stats.Clamp01(raw), Users: users, Queries: r + 1}, nil
}

// NaiveSumThresholdQueries returns the number of plain conjunctive queries
// the naive expansion of a + b < 2^r requires (every q_i = 1 constraint
// expands into the two exclusive assignments a_i=1,b_i=0 and a_i=0,b_i=1):
// Σ_{t=0}^{r−1} 2^t + 2^r = 2^(r+1) − 1.  Appendix E's virtual-bit
// decomposition needs only r + 1 terms; experiment E11 reports both.
func NaiveSumThresholdQueries(r int) float64 {
	if r < 0 {
		return 0
	}
	return math.Pow(2, float64(r+1)) - 1
}
