package query

import (
	"fmt"

	"sketchprivacy/internal/bitvec"
)

// TreeNode is a node of a binary decision tree over profile attributes.
// Internal nodes test one attribute and branch on its value; leaves either
// accept or reject.  Section 4.1 observes that the fraction of users
// satisfying a decision tree is the sum, over accepting root-to-leaf paths,
// of the conjunctive query defined by that path (every user satisfies at
// most one path).
type TreeNode struct {
	// Leaf marks terminal nodes; Accept is meaningful only for leaves.
	Leaf   bool
	Accept bool
	// Attr is the attribute tested at an internal node.
	Attr int
	// Zero and One are the subtrees followed when the attribute is 0 or 1.
	Zero, One *TreeNode
}

// Leaf returns an accepting or rejecting leaf.
func Leaf(accept bool) *TreeNode { return &TreeNode{Leaf: true, Accept: accept} }

// Node returns an internal node testing attr.
func Node(attr int, zero, one *TreeNode) *TreeNode {
	return &TreeNode{Attr: attr, Zero: zero, One: one}
}

// Validate checks that the tree is well formed: internal nodes have both
// children, attributes are non-negative and no attribute repeats along a
// root-to-leaf path (a repeat would make the path conjunction degenerate).
func (n *TreeNode) Validate() error {
	return n.validate(map[int]bool{})
}

func (n *TreeNode) validate(onPath map[int]bool) error {
	if n == nil {
		return fmt.Errorf("query: nil tree node")
	}
	if n.Leaf {
		return nil
	}
	if n.Attr < 0 {
		return fmt.Errorf("query: negative attribute %d in decision tree", n.Attr)
	}
	if onPath[n.Attr] {
		return fmt.Errorf("query: attribute %d tested twice on one path", n.Attr)
	}
	if n.Zero == nil || n.One == nil {
		return fmt.Errorf("query: internal node for attribute %d is missing a child", n.Attr)
	}
	onPath[n.Attr] = true
	defer delete(onPath, n.Attr)
	if err := n.Zero.validate(onPath); err != nil {
		return err
	}
	return n.One.validate(onPath)
}

// Evaluate reports whether a profile reaches an accepting leaf — the ground
// truth the estimator is compared against in tests.
func (n *TreeNode) Evaluate(d bitvec.Vector) bool {
	cur := n
	for !cur.Leaf {
		if d.Get(cur.Attr) {
			cur = cur.One
		} else {
			cur = cur.Zero
		}
	}
	return cur.Accept
}

// AcceptingPaths returns the conjunction for every accepting root-to-leaf
// path.
func (n *TreeNode) AcceptingPaths() []bitvec.Conjunction {
	var out []bitvec.Conjunction
	var walk func(node *TreeNode, path []bitvec.Literal)
	walk = func(node *TreeNode, path []bitvec.Literal) {
		if node.Leaf {
			if node.Accept {
				out = append(out, bitvec.MustConjunction(path...))
			}
			return
		}
		walk(node.Zero, append(append([]bitvec.Literal(nil), path...), bitvec.Literal{Position: node.Attr, Value: false}))
		walk(node.One, append(append([]bitvec.Literal(nil), path...), bitvec.Literal{Position: node.Attr, Value: true}))
	}
	walk(n, nil)
	return out
}

// DecisionTreeFraction estimates the fraction of users accepted by the
// tree: the sum over accepting paths of each path's conjunctive-query
// estimate.  Paths with an exactly-sketched subset use Algorithm 2
// directly; otherwise single-bit sketches are glued via Appendix F (see
// ConjunctionFraction).  Every accepting path's conjunction (exact subset
// and Appendix F fallback alike) rides one plan execution — one table pass
// locally, one fan-out over a cluster, however many paths the tree has.
//
// A tree whose every leaf accepts has fraction exactly 1 and consumes no
// queries.
func (e *Estimator) DecisionTreeFraction(src PartialSource, tree *TreeNode) (NumericEstimate, error) {
	return run(src, func(p *Plan) (NumericFinisher, error) {
		return e.PlanDecisionTreeFraction(p, tree)
	})
}
