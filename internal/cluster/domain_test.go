package cluster

import "testing"

// TestDomainIDRoundTrip: ID places a relative id inside the domain Keep
// admits, at both ends of the id space, keeps the relative id in its low
// bits, refuses the first id past MaxID, and a neighbouring tag's domain
// keeps none of it.
func TestDomainIDRoundTrip(t *testing.T) {
	for _, bits := range []uint8{0, 1, 24, 32} {
		d := Domain{Bits: bits}
		if bits > 0 {
			d.Tag = 1<<(bits-1) | 1 // the top and bottom tag bits set
		}
		neighbour := Domain{Bits: bits, Tag: d.Tag ^ 1}
		for _, rel := range []uint64{0, d.MaxID()} {
			id, err := d.ID(rel)
			if err != nil {
				t.Fatalf("bits %d: ID(%d): %v", bits, rel, err)
			}
			if !d.Keep(id) {
				t.Fatalf("bits %d: ID(%d) = %#x escapes its domain", bits, rel, uint64(id))
			}
			if uint64(id)&d.MaxID() != rel {
				t.Fatalf("bits %d: ID(%d) = %#x loses the relative id", bits, rel, uint64(id))
			}
			if bits > 0 && neighbour.Keep(id) {
				t.Fatalf("bits %d: ID(%d) = %#x lands in the neighbouring tag's domain", bits, rel, uint64(id))
			}
		}
		if bits > 0 {
			if id, err := d.ID(d.MaxID() + 1); err == nil {
				t.Fatalf("bits %d: ID(MaxID+1) admitted as %#x", bits, uint64(id))
			}
		}
	}
}
