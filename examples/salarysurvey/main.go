// Salary-survey example: Section 4.1's numeric machinery on integer
// attributes.  Users sketch the individual bits and prefixes of their age
// and salary fields; the analyst estimates the mean salary, the salary CDF
// at several thresholds, and the mean salary of workers under 40 — all from
// the same per-bit sketches.
//
// Field widths matter: the mean decomposition weights the noise of bit i by
// 2^(k-i), so a k-bit field needs on the order of 4^k/(1-2p)² users before
// the mean is meaningful (experiment E9 quantifies this).  The example
// therefore buckets salaries into a 7-bit field (0–127 k$); the full 17-bit
// layout in internal/dataset is appropriate for populations in the many
// millions.
//
//	go run ./examples/salarysurvey
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"

	"sketchprivacy"
	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
)

func main() {
	const users = 40000
	const p = 0.25
	key := bytes.Repeat([]byte{0x3c}, prf.MinKeyBytes)

	h, err := sketchprivacy.NewSource(key, p)
	if err != nil {
		log.Fatal(err)
	}
	params, err := sketchprivacy.ParamsFor(p, users, 1e-6)
	if err != nil {
		log.Fatal(err)
	}
	sketcher, err := sketchprivacy.NewSketcher(h, params)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := sketchprivacy.NewEngine(h, params)
	if err != nil {
		log.Fatal(err)
	}

	// Layout: 6-bit age bucket (18..63) and 7-bit salary in k$ (0..127).
	age := bitvec.MustIntField(0, 6)
	salary := bitvec.MustIntField(age.End(), 7)
	width := salary.End()

	// Synthetic survey: log-normal-ish salaries, uniform ages.
	rng := sketchprivacy.NewRNG(5)
	profiles := make([]sketchprivacy.Profile, users)
	for u := 0; u < users; u++ {
		d := bitvec.New(width)
		age.Encode(d, uint64(18+rng.Intn(46)))
		s := math.Exp(math.Log(55) + 0.5*rng.NormFloat64())
		if s > 127 {
			s = 127
		}
		salary.Encode(d, uint64(s))
		profiles[u] = sketchprivacy.Profile{ID: sketchprivacy.UserID(u + 1), Data: d}
	}

	// Each user sketches every salary bit, every salary prefix and every
	// age prefix (bits that are also prefixes are sketched once).
	subsetSet := map[string]sketchprivacy.Subset{}
	add := func(subs []sketchprivacy.Subset) {
		for _, s := range subs {
			subsetSet[s.Key()] = s
		}
	}
	add(query.FieldBitSubsets(salary))
	add(query.FieldPrefixSubsets(salary))
	add(query.FieldPrefixSubsets(age))
	subsets := make([]sketchprivacy.Subset, 0, len(subsetSet))
	for _, s := range subsetSet {
		subsets = append(subsets, s)
	}

	skRNG := sketchprivacy.NewRNG(9)
	for _, profile := range profiles {
		pubs, err := sketcher.SketchAll(skRNG, profile, subsets)
		if err != nil {
			log.Fatal(err)
		}
		if err := engine.IngestBatch(pubs); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("each user published %d sketches of %d bits each (%d total sketches)\n\n",
		len(subsets), params.Length, engine.Sketches())

	// Ground truths for comparison.
	var trueMean float64
	for _, pr := range profiles {
		trueMean += float64(salary.Decode(pr.Data))
	}
	trueMean /= users

	// Mean salary via the per-bit decomposition.
	mean, err := engine.FieldMean(salary)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean salary        : true %.1f k$, estimated %.1f k$ (%d bit queries)\n", trueMean, mean.Value, mean.Queries)

	// Salary CDF at a few thresholds ("how many users have salary <= c?").
	for _, c := range []uint64{30, 60, 100} {
		truth := 0.0
		for _, pr := range profiles {
			if salary.Decode(pr.Data) <= c {
				truth++
			}
		}
		truth /= users
		est, err := engine.FieldAtMost(salary, c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("salary <= %3d k$   : true %.3f, estimated %.3f (%d queries)\n", c, truth, est.Value, est.Queries)
	}

	// Combined query: mean salary of users younger than 40.
	var condSum, condCount float64
	for _, pr := range profiles {
		if age.Decode(pr.Data) < 40 {
			condSum += float64(salary.Decode(pr.Data))
			condCount++
		}
	}
	est, err := engine.Estimator().ConditionalMeanGivenLessThan(engine.Source(nil), salary, age, 40)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean salary | age<40: true %.1f k$, estimated %.1f k$ (%d queries)\n", condSum/condCount, est.Value, est.Queries)
}
