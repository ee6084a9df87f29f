package query

import (
	"math"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
)

// riskTree is a small decision tree over the epidemiology attributes:
// smokers are accepted if diabetic or hypertensive; non-smokers only if
// diabetic and obese.
func riskTree() *TreeNode {
	return Node(dataset.EpiSmoker,
		/* non-smoker */ Node(dataset.EpiDiabetic,
			Leaf(false),
			Node(dataset.EpiObese, Leaf(false), Leaf(true)),
		),
		/* smoker */ Node(dataset.EpiDiabetic,
			Node(dataset.EpiHypertension, Leaf(false), Leaf(true)),
			Leaf(true),
		),
	)
}

func TestTreeValidate(t *testing.T) {
	if err := riskTree().Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	if err := (Node(1, Leaf(true), nil)).Validate(); err == nil {
		t.Error("missing child accepted")
	}
	if err := (Node(-1, Leaf(true), Leaf(false))).Validate(); err == nil {
		t.Error("negative attribute accepted")
	}
	repeat := Node(2, Leaf(false), Node(2, Leaf(false), Leaf(true)))
	if err := repeat.Validate(); err == nil {
		t.Error("repeated attribute on a path accepted")
	}
	// A repeated attribute on *different* paths is fine.
	siblings := Node(0,
		Node(1, Leaf(false), Leaf(true)),
		Node(1, Leaf(true), Leaf(false)),
	)
	if err := siblings.Validate(); err != nil {
		t.Errorf("attribute reuse across sibling paths rejected: %v", err)
	}
}

func TestTreeEvaluateAndPathsAgree(t *testing.T) {
	tree := riskTree()
	paths := tree.AcceptingPaths()
	if len(paths) == 0 {
		t.Fatal("no accepting paths found")
	}
	// Every profile is accepted by the tree iff it satisfies exactly one
	// accepting path.
	for x := 0; x < 1<<uint(dataset.EpiWidth); x++ {
		d := bitvec.FromUint(uint64(x), dataset.EpiWidth)
		matches := 0
		for _, path := range paths {
			if path.Evaluate(d) {
				matches++
			}
		}
		want := 0
		if tree.Evaluate(d) {
			want = 1
		}
		if matches != want {
			t.Fatalf("profile %v: %d accepting paths matched, tree says %v", d, matches, tree.Evaluate(d))
		}
	}
}

func TestDecisionTreeFractionExactSubsets(t *testing.T) {
	const m = 25000
	p := 0.25
	pop := dataset.Epidemiology(91, m, dataset.DefaultEpidemiologyRates())
	tree := riskTree()

	// Sketch the exact subset of every accepting path.
	var subsets []bitvec.Subset
	for _, path := range tree.AcceptingPaths() {
		b, _ := path.Split()
		subsets = append(subsets, b)
	}
	src, e := buildSource(t, pop, subsets, p, 10, 92)

	truth := 0.0
	for _, pr := range pop.Profiles {
		if tree.Evaluate(pr.Data) {
			truth++
		}
	}
	truth /= float64(m)

	est, err := e.DecisionTreeFraction(src, tree)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-truth) > 0.06 {
		t.Errorf("decision tree fraction %v vs truth %v", est.Value, truth)
	}
	if est.Queries != len(tree.AcceptingPaths()) {
		t.Errorf("queries = %d, want one per accepting path (%d)", est.Queries, len(tree.AcceptingPaths()))
	}
}

func TestDecisionTreeFractionGluedFromSingleBits(t *testing.T) {
	skipIfShort(t)
	const m = 25000
	p := 0.25
	pop := dataset.Epidemiology(93, m, dataset.DefaultEpidemiologyRates())
	tree := riskTree()

	// Only single-bit sketches are available; paths must be glued.
	var subsets []bitvec.Subset
	for i := 0; i < dataset.EpiWidth; i++ {
		subsets = append(subsets, bitvec.MustSubset(i))
	}
	src, e := buildSource(t, pop, subsets, p, 10, 94)

	truth := 0.0
	for _, pr := range pop.Profiles {
		if tree.Evaluate(pr.Data) {
			truth++
		}
	}
	truth /= float64(m)

	est, err := e.DecisionTreeFraction(src, tree)
	if err != nil {
		t.Fatal(err)
	}
	// The glued path pays the Appendix F conditioning penalty, so the
	// tolerance is looser than the exact-subset variant.
	if math.Abs(est.Value-truth) > 0.12 {
		t.Errorf("glued decision tree fraction %v vs truth %v", est.Value, truth)
	}
}

func TestDecisionTreeDegenerateCases(t *testing.T) {
	pop := dataset.UniformBinary(95, 500, 4, 0.5)
	src, e := buildSource(t, pop, []bitvec.Subset{bitvec.MustSubset(0)}, 0.3, 8, 96)

	// All-accepting tree: fraction 1 and no queries.
	est, err := e.DecisionTreeFraction(src, Leaf(true))
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 1 || est.Queries != 0 {
		t.Errorf("all-accept tree: %+v", est)
	}
	// All-rejecting tree: fraction 0.
	est, err = e.DecisionTreeFraction(src, Leaf(false))
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 || est.Queries != 0 {
		t.Errorf("all-reject tree: %+v", est)
	}
	// Invalid tree surfaces its validation error.
	if _, err := e.DecisionTreeFraction(src, Node(0, nil, Leaf(true))); err == nil {
		t.Error("invalid tree accepted")
	}
}
