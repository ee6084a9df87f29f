// Collection example: the full client/server deployment over localhost TCP,
// on top of the durable store.  A sketchd-style server is started
// in-process with a data directory, simulated users connect and publish
// their sketches over the wire protocol, an analyst client asks the server
// for a conjunctive query's counters and debiases them — and then the
// server is torn down and rebuilt from the data directory alone,
// demonstrating that the published sketch table survives a restart.
//
//	go run ./examples/collection
//
// # Running the same deployment with the real daemon
//
// The in-process server below is exactly what `sketchd -data-dir` runs:
//
//	sketchd -addr 127.0.0.1:7070 -users 5000 -data-dir ./sketchd-data -shards 8 \
//	        -fsync -fsync-window 2ms
//	sketchctl -addr 127.0.0.1:7070 publish -id 17 -profile 10110 -subset 0,1
//	sketchctl -addr 127.0.0.1:7070 stats       # per-subset counts, WAL/segment sizes
//
// Kill the daemon however you like — SIGKILL included — and restart it
// with the same -data-dir: it replays the shard WALs (truncating any torn
// tail the kill left behind), reloads the segments, prints how many
// sketches it recovered, and answers queries over every sketch whose
// publish was acknowledged.  -fsync extends the guarantee from process
// crashes to machine crashes — and stays fast because concurrent
// publishes share group-commit windows: one fsync covers every record
// that parked on the window (-fsync-window bounds how long a window
// waits for stragglers).  The batched publishes below land each batch
// as roughly one commit window per touched store shard.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"sketchprivacy"
	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/server"
)

func main() {
	const users = 5000
	const p = 0.3
	key := bytes.Repeat([]byte{0x66}, prf.MinKeyBytes)

	dataDir := filepath.Join(os.TempDir(), "sketchprivacy-collection-example")
	os.RemoveAll(dataDir) // fresh run each time
	defer os.RemoveAll(dataDir)

	h, err := sketchprivacy.NewSource(key, p)
	if err != nil {
		log.Fatal(err)
	}
	params, err := sketchprivacy.ParamsFor(p, users, 1e-6)
	if err != nil {
		log.Fatal(err)
	}
	// Fsync on: every acknowledged publish survives even a machine crash.
	// Group commit keeps that affordable — concurrent publishes share one
	// fsync per commit window instead of paying one each.
	st, err := sketchprivacy.OpenStore(sketchprivacy.StoreOptions{Dir: dataDir, Shards: 4, Fsync: true})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := sketchprivacy.NewEngineWithStore(h, params, st)
	if err != nil {
		log.Fatal(err)
	}

	srv := server.New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("collection server listening on %s\n", addr)

	pop := dataset.Epidemiology(13, users, dataset.DefaultEpidemiologyRates())
	subset := bitvec.MustSubset(dataset.EpiHIV, dataset.EpiAIDS)
	sketcher, err := sketchprivacy.NewSketcher(h, params)
	if err != nil {
		log.Fatal(err)
	}

	// Simulated users connect in parallel and publish only their sketches,
	// in batches: each PublishAll travels as one wire frame and lands as
	// roughly one fsync'd commit window per touched store shard — not one
	// round-trip and one fsync per record.
	const (
		workers   = 8
		batchSize = 64
	)
	var wg sync.WaitGroup
	per := users / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := server.Dial(addr)
			if err != nil {
				log.Fatal(err)
			}
			defer cli.Close()
			rng := sketchprivacy.NewRNG(uint64(1000 + w))
			mine := pop.Profiles[w*per : (w+1)*per]
			for lo := 0; lo < len(mine); lo += batchSize {
				batch := make([]sketchprivacy.Published, 0, batchSize)
				for _, profile := range mine[lo:min(lo+batchSize, len(mine))] {
					s, err := sketcher.Sketch(rng, profile, subset)
					if err != nil {
						log.Fatal(err)
					}
					batch = append(batch, sketchprivacy.Published{ID: profile.ID, Subset: subset, S: s})
				}
				if err := cli.PublishAll(batch); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("users published %d sketches over TCP (fsync'd, group-committed)\n", eng.Sketches())

	// Analyst client runs a remote query: the server counts, the analyst's
	// own estimator debiases.
	est, err := sketchprivacy.NewEstimator(h)
	if err != nil {
		log.Fatal(err)
	}
	analyst, err := server.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer analyst.Close()
	res, err := est.Fraction(analyst, subset, bitvec.MustFromString("10"))
	if err != nil {
		log.Fatal(err)
	}
	b, v := dataset.HIVNotAIDSQuery()
	fmt.Printf("HIV+ and not AIDS: true %.4f, remotely estimated %.4f over %d users\n",
		pop.TrueFraction(b, v), res.Fraction, res.Users)

	// "Restart": tear everything down, then rebuild the server from the
	// data directory alone — the sketches were never only in memory.
	analyst.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	st2, err := sketchprivacy.OpenStore(sketchprivacy.StoreOptions{Dir: dataDir})
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	eng2, err := sketchprivacy.NewEngineWithStore(h, params, st2)
	if err != nil {
		log.Fatal(err)
	}
	srv2 := server.New(eng2)
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv2.Close()
	analyst2, err := server.Dial(addr2)
	if err != nil {
		log.Fatal(err)
	}
	defer analyst2.Close()
	res2, err := est.Fraction(analyst2, subset, bitvec.MustFromString("10"))
	if err != nil {
		log.Fatal(err)
	}
	stats, err := analyst2.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after restart from %s: recovered %d sketches across %d shards, estimate %.4f (identical: %v)\n",
		dataDir, eng2.Sketches(), len(stats.Store.Shards), res2.Fraction, res2 == res)
}
