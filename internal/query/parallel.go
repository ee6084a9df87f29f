package query

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/sketch"
)

// minRecordsPerWorker is the smallest record shard worth a goroutine: below
// this, spawn-and-join overhead outweighs the ~2 SHA-256 compressions per
// record, so small tables stay on the caller's goroutine.
const minRecordsPerWorker = 1024

// workersFor returns how many goroutines to shard n records across.
func workersFor(n int) int {
	w := runtime.GOMAXPROCS(0)
	if max := n / minRecordsPerWorker; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// countMatches counts records whose evaluation H(id, B, v, s) is 1,
// sharding the record loop across GOMAXPROCS workers.  Each worker owns a
// pooled sketch.Kernel — its own hasher state and scratch — so the loop is
// lock-free and allocation-free per record.  The result is independent of
// the sharding because H is deterministic.
func countMatches(h prf.BitSource, records sketch.View, b bitvec.Subset, v bitvec.Vector) int {
	workers := workersFor(records.Len())
	if workers <= 1 {
		return sketch.CountMatches(h, records, b, v)
	}
	var (
		wg    sync.WaitGroup
		total atomic.Int64
	)
	chunk := (records.Len() + workers - 1) / workers
	for lo := 0; lo < records.Len(); lo += chunk {
		wg.Add(1)
		go func(part sketch.View) {
			defer wg.Done()
			total.Add(int64(sketch.CountMatches(h, part, b, v)))
		}(records.Slice(lo, min(lo+chunk, records.Len())))
	}
	wg.Wait()
	return int(total.Load())
}

// matchHistogram computes, for each user, how many of the k sub-queries
// evaluate to 1 on that user's sketches, and returns the histogram over
// match counts — the observed vector of the Appendix F system.  The user
// loop is sharded across workers; each worker holds one kernel per
// sub-query so every evaluation stays on the zero-allocation path.
func matchHistogram(h prf.BitSource, tab *sketch.Table, subs []SubQuery, users []bitvec.UserID) ([]int, error) {
	k := len(subs)
	workers := workersFor(len(users) * k)
	counts := func(ids []bitvec.UserID) ([]int, error) {
		kernels := make([]*sketch.Kernel, k)
		for i, s := range subs {
			kernels[i] = sketch.AcquireKernel(h, s.Subset, s.Value)
		}
		defer func() {
			for _, kn := range kernels {
				kn.Release()
			}
		}()
		hist := make([]int, k+1)
		for _, id := range ids {
			matches := 0
			for i, s := range subs {
				sk1, ok := tab.Get(id, s.Subset)
				if !ok {
					return nil, errMissingSubset(id, s.Subset)
				}
				if kernels[i].Evaluate(id, sk1) {
					matches++
				}
			}
			hist[matches]++
		}
		return hist, nil
	}
	if workers <= 1 {
		return counts(users)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	hist := make([]int, k+1)
	chunk := (len(users) + workers - 1) / workers
	for lo := 0; lo < len(users); lo += chunk {
		hi := lo + chunk
		if hi > len(users) {
			hi = len(users)
		}
		wg.Add(1)
		go func(ids []bitvec.UserID) {
			defer wg.Done()
			part, err := counts(ids)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if first == nil {
					first = err
				}
				return
			}
			for i, c := range part {
				hist[i] += c
			}
		}(users[lo:hi])
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return hist, nil
}
