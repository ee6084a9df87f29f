package query

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"sketchprivacy/internal/bitvec"
)

// parsePairKey reads a compact pair key back: the inverse that makes
// appendPairKey injective.  It fails on a key with bytes left over.
func parsePairKey(key []byte) (bitvec.Subset, bitvec.Vector, error) {
	b, rest, err := parseSubsetKey(key)
	if err != nil {
		return bitvec.Subset{}, bitvec.Vector{}, err
	}
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(8*len(rest)) || uint64(len(rest)-k) != (n+7)/8 {
		return bitvec.Subset{}, bitvec.Vector{}, fmt.Errorf("a value of %d bits in %d bytes", n, len(rest))
	}
	v := bitvec.New(int(n))
	for i := 0; i < int(n); i++ {
		v.Set(i, rest[k+i/8]>>uint(i%8)&1 == 1)
	}
	return b, v, nil
}

// parseSubsetKey reads a compact subset key from the front of key and
// returns what follows it.
func parseSubsetKey(key []byte) (bitvec.Subset, []byte, error) {
	b, n, err := bitvec.ParseCompact(key)
	if err != nil {
		return bitvec.Subset{}, nil, err
	}
	return b, key[n:], nil
}

// randomPair draws a (subset, value) pair from few positions around the
// uvarint byte boundaries, so that near-collisions are common: subsets of
// up to 40 positions, and values of the subset's length — up to 40 bits —
// or, one time in four, of any length up to 200 bits.
func randomPair(rng *rand.Rand) (bitvec.Subset, bitvec.Vector) {
	pool := []int{0, 1, 2, 126, 127, 128, 129, 255, 256, 16383, 16384, 1 << 21}
	for len(pool) < 40 {
		pool = append(pool, 3+len(pool))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	b := bitvec.MustSubset(pool[:rng.Intn(41)]...)
	n := b.Len()
	if rng.Intn(4) == 0 {
		n = rng.Intn(201)
	}
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.Intn(3) == 0)
	}
	return b, v
}

// TestCompactKeysInjective: distinct (subset, value) pairs have distinct
// compact keys, and no pair's key is any subset's — 20 000 random pairs
// over subsets of up to 40 positions, positions of one to four uvarint
// bytes and values up to 200 bits wide.  Each key parses back to its pair,
// which is what makes the encoding injective; equal keys are counted too.
func TestCompactKeysInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pairs := make(map[string]string)
	subsets := make(map[string]string)
	for i := 0; i < 20_000; i++ {
		b, v := randomPair(rng)
		pair := fmt.Sprint(b, " ", v)
		key := FractionEval{Subset: b, Value: v}.Key()
		if prev, ok := pairs[key]; ok && prev != pair {
			t.Fatalf("%s and %s share the key %x", prev, pair, key)
		}
		pairs[key] = pair
		gotB, gotV, err := parsePairKey([]byte(key))
		if err != nil || !gotB.Equal(b) || !gotV.Equal(v) {
			t.Fatalf("the key %x of %s parses as %v %v (%v)", key, pair, gotB, gotV, err)
		}
		mask := SubsetKey(b)
		if prev, ok := subsets[mask]; ok && prev != b.String() {
			t.Fatalf("%s and %s share the key %x", prev, b, mask)
		}
		subsets[mask] = b.String()
		if gotB, rest, err := parseSubsetKey([]byte(mask)); err != nil || !gotB.Equal(b) || len(rest) != 0 {
			t.Fatalf("the key %x of %s parses as %v with %d bytes over (%v)", mask, b, gotB, len(rest), err)
		}
	}
	for key := range pairs {
		if b, ok := subsets[key]; ok {
			t.Fatalf("the pair %s and the subset %s share the key %x", pairs[key], b, key)
		}
	}
}

// FuzzCompactKeys: a pair's key parses back to the pair, so no two pairs
// share one, and its subset's key is a strict prefix of it, never equal.
func FuzzCompactKeys(f *testing.F) {
	for _, seed := range []struct {
		positions []byte // two bytes a position
		value     []byte
		bits      uint8
	}{
		{nil, nil, 0},
		{[]byte{0, 0, 0, 1, 0, 2}, []byte{5}, 3},
		{[]byte{0, 127, 0, 128, 1, 0, 255, 255}, []byte{0xff, 0x0f}, 12},
		{make([]byte, 0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 77},
	} {
		f.Add(seed.positions, seed.value, seed.bits)
	}
	f.Fuzz(func(t *testing.T, positions, value []byte, bits uint8) {
		seen := make(map[int]bool)
		var ps []int
		for i := 0; i+1 < len(positions); i += 2 {
			if p := int(binary.BigEndian.Uint16(positions[i:])); !seen[p] {
				seen[p], ps = true, append(ps, p)
			}
		}
		b := bitvec.MustSubset(ps...)
		v := bitvec.New(int(bits))
		for i := 0; i < int(bits) && i/8 < len(value); i++ {
			v.Set(i, value[i/8]>>uint(i%8)&1 == 1)
		}
		key := FractionEval{Subset: b, Value: v}.Key()
		gotB, gotV, err := parsePairKey([]byte(key))
		if err != nil || !gotB.Equal(b) || !gotV.Equal(v) {
			t.Fatalf("the key %x of %v %v parses as %v %v (%v)", key, b, v, gotB, gotV, err)
		}
		if mask := SubsetKey(b); len(mask) >= len(key) || key[:len(mask)] != mask {
			t.Fatalf("the subset key %x is not a strict prefix of the pair key %x", mask, key)
		}
	})
}
