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

// TestAppendBlockTakesShortLastBlock: a column read back block by block —
// its short last block too, taken as it stands — is the column it was,
// and nothing may follow a short block: AppendBlock refuses another block
// and Append panics.
func TestAppendBlockTakesShortLastBlock(t *testing.T) {
	ids := make([]bitvec.UserID, 100)
	for i := range ids {
		ids[i] = bitvec.UserID(7<<40 + 3*i)
	}
	col := MakeIDs(ids)
	var b IDBuilder
	for k := 0; k < col.Blocks(); k++ {
		if _, err := b.AppendBlock(col.BlockBytes(k), min(IDBlockLen, len(ids)-k*IDBlockLen)); err != nil {
			t.Fatalf("block %d: %v", k, err)
		}
	}
	next := MakeIDs([]bitvec.UserID{ids[99] + 1})
	if _, err := b.AppendBlock(next.BlockBytes(0), 1); err == nil {
		t.Fatal("a block after a short block was appended")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an id after a short block was appended")
			}
		}()
		var c IDBuilder
		if _, err := c.AppendBlock(col.BlockBytes(1), 36); err != nil {
			t.Fatal(err)
		}
		c.Append(ids[99] + 1)
	}()
	if got := b.IDs(); !got.equal(col) {
		t.Fatalf("the column read back holds %d ids in %d bytes, want %d in %d", got.Len(), got.Bytes(), col.Len(), col.Bytes())
	}
}
