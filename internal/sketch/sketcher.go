package sketch

import (
	"fmt"
	"sync"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/stats"
)

// Sketcher runs Algorithm 1.  It holds only public objects — the public
// p-biased function H and the mechanism parameters — so a single Sketcher
// can serve every user; the user's private data and private coin flips are
// arguments to Sketch.
type Sketcher struct {
	// H is the public p-biased pseudorandom function.  Its bias must match
	// Params.P; NewSketcher enforces this.
	H prf.BitSource
	// Params carries the bias p and sketch length ℓ.
	Params Params
}

// NewSketcher validates that the bit source's bias matches the parameters
// and returns a Sketcher.
func NewSketcher(h prf.BitSource, params Params) (*Sketcher, error) {
	if _, err := NewParams(params.P, params.Length); err != nil {
		return nil, err
	}
	if h.Bias() != params.P {
		return nil, fmt.Errorf("sketch: bit source bias %v does not match params bias %v", h.Bias(), params.P)
	}
	return &Sketcher{H: h, Params: params}, nil
}

// Result reports the outcome of one run of Algorithm 1, including the
// iteration count used by the running-time experiment (E3).
type Result struct {
	S          Sketch
	Iterations int
}

// Sketch runs Algorithm 1 for the given user profile and attribute subset
// and returns the published sketch.  rng supplies the user's private coin
// flips (key selection and the accept/reject decisions); it is the only
// source of randomness the privacy guarantee depends on.
//
// ErrExhausted is returned when every key in the key space has been
// considered and rejected — the failure event bounded by Lemma 3.1.
func (sk *Sketcher) Sketch(rng *stats.RNG, profile bitvec.Profile, b bitvec.Subset) (Sketch, error) {
	res, err := sk.SketchDetailed(rng, profile, b)
	return res.S, err
}

// sketcherScratch bundles the reusable state of one run of Algorithm 1 —
// the batch evaluation kernel, the projected value d_B it is reset to and
// the lazy-shuffle bookkeeping — so the hot path stays allocation-free
// across calls.
type sketcherScratch struct {
	kernel  Kernel
	value   bitvec.Vector
	swapped map[int]uint64
}

var sketcherPool = sync.Pool{
	New: func() any { return &sketcherScratch{swapped: make(map[int]uint64, 16)} },
}

// SketchDetailed is Sketch but also reports the number of iterations.
func (sk *Sketcher) SketchDetailed(rng *stats.RNG, profile bitvec.Profile, b bitvec.Subset) (Result, error) {
	if b.Len() == 0 {
		return Result{}, fmt.Errorf("sketch: cannot sketch an empty subset")
	}
	if b.Max() >= profile.Data.Len() {
		return Result{}, fmt.Errorf("sketch: subset position %d outside profile of width %d", b.Max(), profile.Data.Len())
	}
	sc := sketcherPool.Get().(*sketcherScratch)
	defer sketcherPool.Put(sc)
	return sc.search(sk, rng, profile, b)
}

// search is the key search of Algorithm 1 over sc's storage; apart from
// that storage growing to a wider subset it allocates nothing.
func (sc *sketcherScratch) search(sk *Sketcher, rng *stats.RNG, profile bitvec.Profile, b bitvec.Subset) (Result, error) {
	accept := sk.Params.AcceptProb()
	l := sk.Params.Length
	space := sk.Params.KeySpace()

	sc.value = b.ProjectInto(sc.value, profile.Data)
	sc.kernel.Reset(sk.H, b, sc.value)
	defer sc.kernel.Drop()
	clear(sc.swapped)
	swapped := sc.swapped

	// Sample keys uniformly at random *without replacement* (step 1 of
	// Algorithm 1) using a lazy Fisher–Yates shuffle: position i of the
	// virtual permutation is drawn only when iteration i is reached, so the
	// expected work stays O(expected iterations) rather than O(2^ℓ).
	for i := 0; i < space; i++ {
		j := i + rng.Intn(space-i)
		ki, ok := swapped[i]
		if !ok {
			ki = uint64(i)
		}
		kj, ok := swapped[j]
		if !ok {
			kj = uint64(j)
		}
		candidate := Sketch{Key: kj, Length: l}

		if sc.kernel.Evaluate(profile.ID, candidate) {
			// Step 2-3: the key evaluates to 1 at the true value; publish.
			return Result{S: candidate, Iterations: i + 1}, nil
		}
		// Step 5: publish anyway with probability p²/(1−p)².
		if rng.Bernoulli(accept) {
			return Result{S: candidate, Iterations: i + 1}, nil
		}
		// The search goes on: position j takes what position i held.
		// Position i is never drawn again, so its half of the swap is not
		// written — and a search that ends on its first key, as ≈ 43 % do
		// at p = 0.3, never touches the map.
		swapped[j] = ki
	}
	return Result{Iterations: space}, fmt.Errorf("%w: ℓ=%d", ErrExhausted, l)
}

// SketchAll runs Algorithm 1 once per subset and returns the published
// records.  If any subset fails it returns the error immediately; Corollary
// 3.4 governs how many subsets a user should be willing to sketch at a
// given privacy budget (see Params.Epsilon and BiasForBudget).
func (sk *Sketcher) SketchAll(rng *stats.RNG, profile bitvec.Profile, subsets []bitvec.Subset) ([]Published, error) {
	out := make([]Published, 0, len(subsets))
	for _, b := range subsets {
		s, err := sk.Sketch(rng, profile, b)
		if err != nil {
			return nil, fmt.Errorf("subset %v: %w", b, err)
		}
		out = append(out, Published{ID: profile.ID, Subset: b, S: s})
	}
	return out, nil
}

// PublishProbabilities returns, for a fixed user/subset/value, the exact
// probability that Algorithm 1 publishes each key of the key space, given
// the evaluation pattern of H on that (user, subset, value).  evaluations[k]
// is H(id, B, v, key k).  The function reproduces the probability analysis
// of Lemma 3.3 (the Z^(q) quantities) in closed form and is used by the
// privacy auditor to compute exact likelihood ratios.
//
// Derivation.  The algorithm stops at the first drawn key that either
// evaluates to 1, or evaluates to 0 and is accepted (probability
// r = p²/(1−p)²).  Keys are drawn uniformly without replacement, so the only
// keys that can precede the published one are rejected 0-keys.  With
// L = len(evaluations) keys of which z evaluate to 0:
//
//	Pr[publish a specific 1-key]  = Σ_t (∏_{j<t} (z−j)/(L−j) · (1−r)) · 1/(L−t)
//	Pr[publish a specific 0-key]  = Σ_t (∏_{j<t} (z−1−j)/(L−j) · (1−r)) · 1/(L−t) · r
//
// (the t rejected keys before the target must come from the z, respectively
// z−1, other 0-keys).  For z = L−1 the first expression telescopes to the
// paper's Z^(1) = Σ (1−r)^i / L, and for z = 0 it is 1/L = Z^(L).
func PublishProbabilities(params Params, evaluations []bool) []float64 {
	n := len(evaluations)
	probs := make([]float64, n)
	if n == 0 {
		return probs
	}
	zeros := 0
	for _, e := range evaluations {
		if !e {
			zeros++
		}
	}
	accept := params.AcceptProb()

	target := func(zeroTarget bool) float64 {
		othersZero := zeros
		if zeroTarget {
			othersZero = zeros - 1
		}
		total := 0.0
		prefix := 1.0 // probability the first t draws are rejected other-0-keys
		for t := 0; t <= othersZero; t++ {
			term := prefix / float64(n-t)
			if zeroTarget {
				term *= accept
			}
			total += term
			// Extend the prefix by one more rejected 0-key.
			prefix *= float64(othersZero-t) / float64(n-t) * (1 - accept)
			if prefix == 0 {
				break
			}
		}
		return total
	}

	oneProb := target(false)
	zeroProb := 0.0
	if zeros > 0 {
		zeroProb = target(true)
	}
	for k, e := range evaluations {
		if e {
			probs[k] = oneProb
		} else {
			probs[k] = zeroProb
		}
	}
	return probs
}
