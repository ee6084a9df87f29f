package sketch

import (
	"testing"

	"sketchprivacy/internal/bitvec"
)

// TestSameBlockHoldsLengths: a block does not say how many ids it holds,
// so two blocks of consecutive ids from one first id are the same bytes
// whatever their lengths; SameBlock must tell windows of 64 and of 10 such
// ids apart, and a column from a slice of its own.
func TestSameBlockHoldsLengths(t *testing.T) {
	run := func(n int) IDs {
		ids := make([]bitvec.UserID, n)
		for i := range ids {
			ids[i] = bitvec.UserID(7<<40 + i)
		}
		return MakeIDs(ids)
	}
	long, short := run(64), run(10)
	if !long.SameBlock(0, run(64), 0) || !short.SameBlock(0, run(10), 0) {
		t.Fatal("equal windows of consecutive ids are not the same block")
	}
	if long.SameBlock(0, short, 0) || short.SameBlock(0, long, 0) {
		t.Fatal("windows of 64 and of 10 consecutive ids are the same block")
	}
	if long.Slice(0, 10).SameBlock(0, long, 0) || !long.Slice(0, 10).SameBlock(0, short, 0) {
		t.Fatal("the first 10 ids of a block are told apart by bytes, not by length")
	}
}
