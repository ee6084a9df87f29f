package query

import (
	"runtime"
	"sync"

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

// matchHistogram computes the Appendix F match histogram counters over
// the table's users that sketched every sub-query subset and pass keep:
// for each such user, how many of the k sub-queries evaluate to 1 on that
// user's sketches.  The users and their sketches come from one consistent
// set of aligned views (Table.ViewsWithAll), so a concurrent removal
// cannot tear a user between two subsets.  The user loop is sharded across
// workers on 64-user words; each worker holds one kernel per sub-query and
// evaluates a word of users at a time through the multi-lane batch path.
func matchHistogram(h prf.BitSource, tab *sketch.Table, subs []SubQuery, keep func(bitvec.UserID) bool) HistPartial {
	k := len(subs)
	subsets := make([]bitvec.Subset, k)
	for i, s := range subs {
		subsets[i] = s.Subset
	}
	views := tab.ViewsWithAll(subsets, keep)
	n := views[0].Len()
	out := HistPartial{Users: uint64(n)}
	count := func(lo, hi int) []uint64 {
		kernels := make([]*sketch.Kernel, k)
		for j, s := range subs {
			kernels[j] = sketch.AcquireKernel(h, s.Subset, s.Value)
		}
		defer func() {
			for _, kn := range kernels {
				kn.Release()
			}
		}()
		hist := make([]uint64, k+1)
		words := make([]uint64, k)
		for ; lo < hi; lo += 64 {
			m := min(64, hi-lo)
			for j, kn := range kernels {
				words[j] = kn.EvaluateWord(views[j].Slice(lo, lo+m))
			}
			for i := 0; i < m; i++ {
				matches := 0
				for _, w := range words {
					matches += int(w >> uint(i) & 1)
				}
				hist[matches]++
			}
		}
		return hist
	}
	workers := workersFor(n * k)
	if workers <= 1 {
		out.Hist = count(0, n)
		return out
	}
	out.Hist = make([]uint64, k+1)
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	// Whole words per worker, so only the last shard has a ragged word.
	chunk := ((n+workers-1)/workers + 63) &^ 63
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			part := count(lo, hi)
			mu.Lock()
			defer mu.Unlock()
			for i, c := range part {
				out.Hist[i] += c
			}
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
	return out
}
