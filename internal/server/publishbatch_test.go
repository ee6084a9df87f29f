package server

import (
	"errors"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
	"sketchprivacy/internal/wire"
)

// TestPublishBatchOverTCP drives the batched publish path end to end: one
// PublishAll call must reach the server as ONE TypePublishBatch frame (the
// whole point of the opcode — the records share commit windows instead of
// paying a round-trip and an fsync each), land every record, stay
// idempotent under re-publish, and reject a conflicting sketch with the
// engine's budget error.
func TestPublishBatchOverTCP(t *testing.T) {
	const m = 300
	srv, addr, h, params := startTestServer(t, 0.25, 10)
	eng := srv.eng

	pop := dataset.UniformBinary(5, m, 4, 0.5)
	subset := bitvec.MustSubset(0, 1)
	sk, err := sketch.NewSketcher(h, params)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(77)
	batch := make([]sketch.Published, 0, m)
	for _, profile := range pop.Profiles {
		pubs, err := sk.SketchAll(rng, profile, []bitvec.Subset{subset})
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, pubs...)
	}

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	before := srv.frames.Load()
	if err := cli.PublishAll(batch); err != nil {
		t.Fatal(err)
	}
	if got := srv.frames.Load() - before; got != 1 {
		t.Fatalf("batch of %d records cost %d frames, want 1", m, got)
	}
	if got := eng.Sketches(); got != m {
		t.Fatalf("engine holds %d sketches after batch publish, want %d", got, m)
	}

	// Re-publishing the identical batch is an idempotent no-op: one ack,
	// nothing new stored.
	if err := cli.PublishAll(batch); err != nil {
		t.Fatalf("identical batch re-publish refused: %v", err)
	}
	if got := eng.Sketches(); got != m {
		t.Fatalf("engine holds %d sketches after re-publish, want %d", got, m)
	}

	// A conflicting sketch for an already-published (user, subset) pair is
	// rejected — each extra sketch would spend more privacy budget — and
	// the error surfaces through the batch ack as a remote error.
	conflict := batch[0]
	conflict.S.Key++
	if err := cli.PublishAll([]sketch.Published{conflict}); !errors.Is(err, ErrRemote) {
		t.Fatalf("conflicting batch publish returned %v, want ErrRemote", err)
	}
	if got := eng.Sketches(); got != m {
		t.Fatalf("engine holds %d sketches after rejected conflict, want %d", got, m)
	}
	if err := cli.PublishAll([]sketch.Published{conflict}); !wire.IsRefused(err.Error()) {
		t.Fatalf("the conflict's reply %v carries no admission-refusal marker", err)
	}
}

// TestForeignLengthRefusedOverTCP: a node admits its ℓ alone.  A batch
// whose third record is of another length lands the two before it and is
// answered with an error carrying wire.RefusedMarker; so is a lone publish
// of another length, which lands nothing.  The stats report counts no
// record set aside on a node whose store never held another length.
func TestForeignLengthRefusedOverTCP(t *testing.T) {
	srv, addr, _, params := startTestServer(t, 0.25, 10)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	b := bitvec.MustSubset(0, 1)
	rec := func(id uint64, length int) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: b, S: sketch.Sketch{Key: id % 4, Length: length}}
	}
	err = cli.PublishAll([]sketch.Published{rec(1, params.Length), rec(2, params.Length), rec(3, params.Length+1), rec(4, params.Length)})
	if err == nil || !wire.IsRefused(err.Error()) || srv.eng.Sketches() != 2 {
		t.Fatalf("a batch with a foreign length third = %v, %d stored; want the two before it and a refusal", err, srv.eng.Sketches())
	}
	if err := cli.Publish(rec(5, params.Length-1)); err == nil || !wire.IsRefused(err.Error()) || srv.eng.Sketches() != 2 {
		t.Fatalf("a lone publish of a foreign length = %v, %d stored", err, srv.eng.Sketches())
	}
	st, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SetAsideRecords != 0 || st.Sketches != 2 {
		t.Fatalf("stats report %d records set aside and %d sketches, want 0 and 2", st.SetAsideRecords, st.Sketches)
	}
}
