package query

import "sketchprivacy/internal/bitvec"

// oneBit is the length-1 value vector "1"; zeroBit is "0".
func oneBit() bitvec.Vector  { return bitvec.MustFromString("1") }
func zeroBit() bitvec.Vector { return bitvec.MustFromString("0") }

// NumericEstimate reports a numeric (non-frequency) estimate together with
// the number of users it was computed from and the number of conjunctive
// queries it consumed — the measure of query cost the paper reports for
// each decomposition.
type NumericEstimate struct {
	Value   float64
	Users   int
	Queries int
}

// FieldMean estimates the population mean of a k-bit integer attribute from
// single-bit sketches of each of its bits, using the Section 4.1
// decomposition Σᵢ 2^(k−i) · I(Aᵢ, 1).  It requires a sketch of every
// single-bit subset {Aᵢ} of the field.  The whole per-bit decomposition
// compiles into one plan, so it costs one batched execution.
func (e *Estimator) FieldMean(src PartialSource, f bitvec.IntField) (NumericEstimate, error) {
	return run(src, func(p *Plan) (NumericFinisher, error) {
		return e.PlanFieldMean(p, f)
	})
}

// FieldSum estimates the population sum of a field: mean × users.
func (e *Estimator) FieldSum(src PartialSource, f bitvec.IntField) (NumericEstimate, error) {
	return run(src, func(p *Plan) (NumericFinisher, error) {
		return e.PlanFieldSum(p, f)
	})
}

// InnerProductMean estimates the population mean of the product a·b of two
// integer attributes, using the Section 4.1 decomposition into k² two-bit
// queries Σᵢ Σⱼ 2^((ka−i)+(kb−j)) · I(Aᵢ ∪ Bⱼ, 11).  Each two-bit frequency
// is glued from the fields' single-bit sketches via the Appendix F
// combination, so only per-bit sketches are required ("we do not have to
// sketch each pair AᵢBⱼ").  All k² two-bit combinations ride one plan
// execution.
func (e *Estimator) InnerProductMean(src PartialSource, a, b bitvec.IntField) (NumericEstimate, error) {
	return run(src, func(p *Plan) (NumericFinisher, error) {
		return e.PlanInnerProductMean(p, a, b)
	})
}

// FieldBitSubsets returns the single-bit subsets every numeric estimator in
// this file needs sketched: {A₁}, ..., {A_k}.  Deployments decide up front
// which subsets users sketch; this helper makes that contract explicit.
func FieldBitSubsets(f bitvec.IntField) []bitvec.Subset {
	out := make([]bitvec.Subset, f.Width)
	for i := 1; i <= f.Width; i++ {
		out[i-1] = f.BitSubset(i)
	}
	return out
}

// FieldPrefixSubsets returns the prefix subsets A₁, A₁A₂, ..., used by the
// interval queries.
func FieldPrefixSubsets(f bitvec.IntField) []bitvec.Subset {
	out := make([]bitvec.Subset, f.Width)
	for i := 1; i <= f.Width; i++ {
		out[i-1] = f.PrefixSubset(i)
	}
	return out
}
