package server

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

func startTestServer(t *testing.T, p float64, length int) (*Server, string, *prf.Biased, sketch.Params) {
	t.Helper()
	h := prf.NewBiased(bytes.Repeat([]byte{0x11}, prf.MinKeyBytes), prf.MustProb(p))
	params := sketch.MustParams(p, length)
	eng, err := engine.New(h, params)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, h, params
}

func TestPublishAndQueryOverTCP(t *testing.T) {
	const m = 4000
	p := 0.25
	_, addr, h, params := startTestServer(t, p, 10)

	pop := dataset.UniformBinary(3, m, 4, 0.5)
	subset := bitvec.MustSubset(0, 1)
	sk, err := sketch.NewSketcher(h, params)
	if err != nil {
		t.Fatal(err)
	}

	// Several concurrent clients publish disjoint slices of the population.
	const clients = 4
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	per := m / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cli.Close()
			rng := stats.NewRNG(uint64(100 + c))
			for _, profile := range pop.Profiles[c*per : (c+1)*per] {
				pubs, err := sk.SketchAll(rng, profile, []bitvec.Subset{subset})
				if err != nil {
					errCh <- err
					return
				}
				if err := cli.PublishAll(pubs); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// An analyst queries remotely.
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	v := bitvec.MustFromString("11")
	res, err := cli.QueryConjunction(subset, v)
	if err != nil {
		t.Fatal(err)
	}
	if res.Users != m {
		t.Errorf("Users = %d, want %d", res.Users, m)
	}
	truth := pop.TrueFraction(subset, v)
	if math.Abs(res.Fraction-truth) > 0.08 {
		t.Errorf("remote estimate %v vs truth %v", res.Fraction, truth)
	}
}

// TestConcurrentPublishAndQueryOverTCP mixes publishing clients with
// querying clients on one live server (run under -race): the wire layer,
// the engine and the snapshot-cached table must tolerate analysts reading
// while users are still streaming sketches in.
func TestConcurrentPublishAndQueryOverTCP(t *testing.T) {
	const m = 2000
	p := 0.25
	_, addr, h, params := startTestServer(t, p, 10)

	pop := dataset.UniformBinary(9, m, 4, 0.5)
	subset := bitvec.MustSubset(0, 1)
	v := bitvec.MustFromString("11")
	sk, err := sketch.NewSketcher(h, params)
	if err != nil {
		t.Fatal(err)
	}

	// Seed a first batch so queries racing the writers always have data.
	seedCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	const seeded = m / 2
	for _, profile := range pop.Profiles[:seeded] {
		pubs, err := sk.SketchAll(rng, profile, []bitvec.Subset{subset})
		if err != nil {
			t.Fatal(err)
		}
		if err := seedCli.PublishAll(pubs); err != nil {
			t.Fatal(err)
		}
	}
	seedCli.Close()

	// Pre-sketch the remaining records (the RNG is single-goroutine).
	rest := make([][]sketch.Published, 0, m-seeded)
	for _, profile := range pop.Profiles[seeded:] {
		pubs, err := sk.SketchAll(rng, profile, []bitvec.Subset{subset})
		if err != nil {
			t.Fatal(err)
		}
		rest = append(rest, pubs)
	}

	const writers, readers = 2, 3
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	per := len(rest) / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(batches [][]sketch.Published) {
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cli.Close()
			for _, pubs := range batches {
				if err := cli.PublishAll(pubs); err != nil {
					errCh <- err
					return
				}
			}
		}(rest[w*per : (w+1)*per])
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cli.Close()
			for i := 0; i < 25; i++ {
				res, err := cli.QueryConjunction(subset, v)
				if err != nil {
					errCh <- err
					return
				}
				if res.Users < seeded || res.Users > m {
					errCh <- errors.New("mid-ingest query saw an impossible user count")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestServerReportsErrors(t *testing.T) {
	_, addr, _, _ := startTestServer(t, 0.3, 8)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Query for a subset nobody sketched.
	_, err = cli.QueryConjunction(bitvec.MustSubset(7), bitvec.MustFromString("1"))
	if !errors.Is(err, ErrRemote) {
		t.Errorf("expected remote error, got %v", err)
	}
	// Re-publishing the identical sketch is an idempotent ack (replicated
	// publish retries depend on it); a conflicting sketch for the same
	// (user, subset) is refused but the connection stays usable.
	pub := sketch.Published{ID: 1, Subset: bitvec.MustSubset(0), S: sketch.Sketch{Key: 1, Length: 8}}
	if err := cli.Publish(pub); err != nil {
		t.Fatal(err)
	}
	if err := cli.Publish(pub); err != nil {
		t.Errorf("identical re-publish err = %v, want idempotent ack", err)
	}
	conflict := pub
	conflict.S.Key = 2
	if err := cli.Publish(conflict); !errors.Is(err, ErrRemote) {
		t.Errorf("conflicting publish err = %v", err)
	}
	if err := cli.Publish(sketch.Published{ID: 2, Subset: bitvec.MustSubset(0), S: sketch.Sketch{Key: 2, Length: 8}}); err != nil {
		t.Errorf("connection unusable after error: %v", err)
	}
}
