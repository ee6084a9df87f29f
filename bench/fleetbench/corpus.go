package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/gateway"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

// fieldWidth is the width of the one integer attribute every user holds;
// users sketch its ten prefix subsets P1..P10, which is what the paper's
// interval queries (Section 4.1) read.
const fieldWidth = 10

var (
	field    = bitvec.MustIntField(0, fieldWidth)
	prefixes = query.FieldPrefixSubsets(field)
	fullSet  = field.FullSubset() // P10
)

// corpus is everything a run feeds the fleet, derived from the seed alone
// (noise rule 1): the population, each user's Algorithm 1 sketches, and
// the records of the new users the write workloads publish.
type corpus struct {
	pop     *dataset.Population
	planted bitvec.Vector
	// base holds users × 10 records, user-major, under tenant-effective
	// ids: what the preload puts into the fleet.
	base []sketch.Published
	// fresh holds the new users' records in the order the workload
	// publishes them, and freshIDs their tenant-relative user ids.
	fresh    []sketch.Published
	freshIDs []uint64

	sketchTime time.Duration
	sketched   int
}

// buildCorpus generates the population and runs Algorithm 1 for every
// record.  freshUsers new users follow the population; each publishes the
// subsets freshSubsets names (all ten prefixes, or P10 alone).
func buildCorpus(seed uint64, users, freshUsers int, freshSubsets []bitvec.Subset, tenant *gateway.Tenant, sk *sketch.Sketcher) (*corpus, error) {
	rng := stats.NewRNG(seed)
	planted := bitvec.FromUint(rng.Uint64()&field.Max(), fieldWidth)
	pop, err := dataset.PlantedConjunction(seed, users, fieldWidth, fullSet, planted, 0.1, 0.5)
	if err != nil {
		return nil, err
	}
	c := &corpus{pop: pop, planted: planted}
	c.base = make([]sketch.Published, users*len(prefixes))
	c.fresh = make([]sketch.Published, freshUsers*len(freshSubsets))
	c.freshIDs = make([]uint64, len(c.fresh))

	// New users hold uniform values; their ids follow the population's.
	values := rng.Split(1)
	freshData := make([]bitvec.Vector, freshUsers)
	for i := range freshData {
		freshData[i] = bitvec.FromUint(values.Uint64()&field.Max(), fieldWidth)
	}

	// Each user flips private coins of their own, seeded by (seed, id), so
	// the sketches do not depend on how the users are spread over workers.
	coinSeed := rng.Uint64()
	sketchUser := func(id uint64, data bitvec.Vector, subsets []bitvec.Subset, out []sketch.Published) error {
		eff, err := tenant.EffectiveID(id)
		if err != nil {
			return err
		}
		coins := stats.NewRNG(coinSeed ^ id*0x9e3779b97f4a7c15)
		profile := bitvec.Profile{ID: bitvec.UserID(eff), Data: data}
		for j, b := range subsets {
			s, err := sk.Sketch(coins, profile, b)
			if err != nil {
				return fmt.Errorf("sketching user %d subset %v: %w", id, b, err)
			}
			out[j] = sketch.Published{ID: profile.ID, Subset: b, S: s}
		}
		return nil
	}
	start := time.Now()
	total := users + freshUsers
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := total * w / workers; u < total*(w+1)/workers && errs[w] == nil; u++ {
				if u < users {
					p := pop.Profiles[u]
					errs[w] = sketchUser(uint64(p.ID), p.Data, prefixes, c.base[u*len(prefixes):])
					continue
				}
				i, id := u-users, uint64(u+1)
				errs[w] = sketchUser(id, freshData[i], freshSubsets, c.fresh[i*len(freshSubsets):])
				for j := range freshSubsets {
					c.freshIDs[i*len(freshSubsets)+j] = id
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c.sketchTime = time.Since(start)
	c.sketched = len(c.base) + len(c.fresh)
	return c, nil
}

// The JSON request shapes of the gateway's API, as a client would send
// them.

type sketchBody struct {
	Key    uint64 `json:"key"`
	Length int    `json:"length"`
}

type recordBody struct {
	ID     uint64     `json:"id"`
	Subset []int      `json:"subset"`
	Sketch sketchBody `json:"sketch"`
}

type publishBody struct {
	Records []recordBody `json:"records"`
}

type fractionBody struct {
	Subset []int  `json:"subset"`
	Value  string `json:"value"`
}

type fieldBody struct {
	Offset int `json:"offset"`
	Width  int `json:"width"`
}

type intervalBody struct {
	Field fieldBody `json:"field"`
	Lo    uint64    `json:"lo"`
	Hi    uint64    `json:"hi"`
}

// publishRequest encodes fresh[from:to] as one POST /v1/records body.
func (c *corpus) publishRequest(from, to int) []byte {
	body := publishBody{Records: make([]recordBody, 0, to-from)}
	for i := from; i < to; i++ {
		p := c.fresh[i]
		body.Records = append(body.Records, recordBody{
			ID:     c.freshIDs[i],
			Subset: p.Subset.Positions(),
			Sketch: sketchBody{Key: p.S.Key, Length: p.S.Length},
		})
	}
	return mustJSON(body)
}

// fractionRequest encodes a POST /v1/query/fraction body on P10.
func fractionRequest(value uint64) []byte {
	return mustJSON(fractionBody{Subset: fullSet.Positions(), Value: bitvec.FromUint(value, fieldWidth).String()})
}

// intervalRequest encodes a POST /v1/query/interval body.
func intervalRequest(lo, hi uint64) []byte {
	return mustJSON(intervalBody{Field: fieldBody{Offset: field.Offset, Width: field.Width}, Lo: lo, Hi: hi})
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // the shapes above always encode
	}
	return data
}

// intervalDeck draws n (lo, hi) pairs whose compiled plans cost the same
// (noise rule 3): five prefix terms for each bound plus the equality term,
// touching exactly eight of the ten prefix subsets.  A cached interval
// query's cost is one ownership mask per touched subset, so the deck holds
// that count fixed.  The bounds differ in their top bit, so no prefix term
// of one is also a term of the other and every plan has eleven entries.
func intervalDeck(rng *stats.RNG, n int) [][2]uint64 {
	deck := make([][2]uint64, 0, n)
	seen := make(map[[2]uint64]bool)
	for len(deck) < n {
		lo, hi := rng.Uint64()&field.Max(), rng.Uint64()&field.Max()
		if lo > hi {
			lo, hi = hi, lo
		}
		touched := lo | hi | 1 // bit 0 ↔ prefix 10, the equality term's subset
		top := uint64(1) << (fieldWidth - 1)
		if lo&top != 0 || hi&top == 0 || hi >= field.Max() || bits.OnesCount64(lo) != 5 || bits.OnesCount64(hi) != 5 ||
			bits.OnesCount64(touched) != 8 || seen[[2]uint64{lo, hi}] {
			continue
		}
		seen[[2]uint64{lo, hi}] = true
		deck = append(deck, [2]uint64{lo, hi})
	}
	return deck
}
